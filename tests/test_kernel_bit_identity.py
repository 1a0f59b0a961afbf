"""Byte-for-byte checks of the vectorised forest walk, the one-copy conv
GEMM operand and the strided-add ``col2im`` against reference copies of
the straightforward implementations: a per-tree, per-row forest walk
summed tree by tree, a fancy-indexing ``im2col`` followed by a
transpose copy, and an ``np.add.at`` scatter for ``col2im``.

Scores are compared with ``tobytes()``, not ``allclose``: the detector's
decisions must not depend on which implementation computed them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classifier import RandomForest
from repro.core.serialization import forest_from_arrays, forest_to_arrays
from repro.nn.functional import col2im, conv_output_size
from repro.nn.layers import Conv2d

# -- reference implementations ------------------------------------------------


def _forest_ref(forest, x):
    """Walk each tree row by row, then add the trees' leaf probabilities
    in tree order."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    probs = np.zeros(x.shape[0])
    for tree in forest.trees:
        out = np.empty(x.shape[0])
        for i, row in enumerate(x):
            node = tree._root
            while not node.is_leaf:
                node = (
                    node.left if row[node.feature] <= node.threshold
                    else node.right
                )
            out[i] = node.probability
        probs += out
    return probs / len(forest.trees)


def _im2col_indices_ref(in_shape, kernel, stride):
    _, channels, height, width = in_shape
    out_h = conv_output_size(height, kernel, stride, 0)
    out_w = conv_output_size(width, kernel, stride, 0)
    i0 = np.tile(np.repeat(np.arange(kernel), kernel), channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel), kernel * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel * kernel).reshape(-1, 1)
    return k, i, j


def _pad(x, padding):
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _im2col_ref(x, kernel, stride, padding):
    x = _pad(x, padding)
    k, i, j = _im2col_indices_ref(x.shape, kernel, stride)
    return x[:, k, i, j]


def _col2im_ref(cols, in_shape, kernel, stride, padding):
    batch, channels, height, width = in_shape
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding),
        dtype=cols.dtype,
    )
    k, i, j = _im2col_indices_ref(padded.shape, kernel, stride)
    np.add.at(padded, (slice(None), k, i, j), cols)
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def _conv_forward_ref(conv, x):
    cols = _im2col_ref(x, conv.kernel_size, conv.stride, conv.padding)
    w_mat = conv.weight.data.reshape(conv.out_channels, -1)
    n, f, p = cols.shape
    if n == 1:
        out = (w_mat @ cols[0])[None]
    else:
        flat = cols.transpose(1, 0, 2).reshape(f, n * p)
        out = (w_mat @ flat).reshape(conv.out_channels, n, p).transpose(1, 0, 2)
    out = out + conv.bias.data[None, :, None]
    out_h = conv_output_size(x.shape[2], conv.kernel_size, conv.stride,
                             conv.padding)
    out_w = conv_output_size(x.shape[3], conv.kernel_size, conv.stride,
                             conv.padding)
    return out.reshape(n, conv.out_channels, out_h, out_w), cols


def _conv_backward_ref(conv, x, cols, grad_out):
    """Returns (input grad, weight grad, bias grad)."""
    n, f, p = cols.shape
    grad_mat = grad_out.reshape(n, conv.out_channels, -1)
    w_mat = conv.weight.data.reshape(conv.out_channels, -1)
    cols_flat = cols.transpose(1, 0, 2).reshape(f, n * p)
    grad_flat = grad_mat.transpose(1, 0, 2).reshape(conv.out_channels, n * p)
    weight_grad = (grad_flat @ cols_flat.T).reshape(conv.weight.data.shape)
    bias_grad = grad_mat.sum(axis=(0, 2))
    grad_cols = (w_mat.T @ grad_flat).reshape(f, n, p).transpose(1, 0, 2)
    grad_x = _col2im_ref(grad_cols, x.shape, conv.kernel_size, conv.stride,
                         conv.padding)
    return grad_x, weight_grad, bias_grad


# -- forest -------------------------------------------------------------------


@st.composite
def forest_cases(draw):
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    # few training rows make bootstrap samples that are pure or too small
    # to split, so some trees are a single root leaf
    n_rows = draw(st.sampled_from([1, 3, 5, 12, 60]))
    n_features = draw(st.integers(1, 4))
    x = rng.normal(size=(n_rows, n_features))
    if draw(st.booleans()):
        y = (x[:, 0] + rng.normal(scale=0.5, size=n_rows) > 0).astype(int)
    else:
        y = np.full(n_rows, draw(st.integers(0, 1)))
    forest = RandomForest(
        n_trees=draw(st.integers(1, 12)),
        max_depth=draw(st.integers(1, 6)),
        min_samples_leaf=draw(st.integers(1, 3)),
        seed=seed,
    ).fit(x, y)
    if draw(st.booleans()):
        forest = forest_from_arrays(
            forest_to_arrays(forest),
            {"n_trees": forest.n_trees, "max_depth": forest.max_depth,
             "seed": forest.seed},
        )
    batch = draw(st.sampled_from([1, 2, 9, 64]))
    query = rng.normal(size=(batch, n_features))
    if draw(st.booleans()):
        query[rng.random(size=query.shape) < 0.2] = np.nan
    return forest, query


class TestForestWalk:
    @given(forest_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_tree_walk(self, case):
        forest, query = case
        got = forest.predict_proba(query)
        assert got.tobytes() == _forest_ref(forest, query).tobytes()

    def test_all_root_leaves(self):
        x = np.zeros((4, 2))
        forest = RandomForest(n_trees=3, seed=0).fit(x, np.ones(4, dtype=int))
        assert all(tree.node_count == 1 for tree in forest.trees)
        query = np.array([[0.0, 1.0], [np.nan, -1.0]])
        assert forest.predict_proba(query).tobytes() == (
            _forest_ref(forest, query).tobytes()
        )

    def test_refit_drops_the_old_node_table(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(80, 2))
        forest = RandomForest(n_trees=5, seed=1)
        forest.fit(x, (x[:, 0] > 0).astype(int))
        forest.predict_proba(x)
        forest.fit(x, (x[:, 1] > 0).astype(int))
        assert forest.predict_proba(x).tobytes() == (
            _forest_ref(forest, x).tobytes()
        )


# -- conv and col2im ----------------------------------------------------------

GEOMETRIES = [
    (kernel, stride, padding, batch)
    for kernel in (1, 2, 3, 5)
    for stride in (1, 2, 3)
    for padding in (0, 1, 2)
    for batch in (1, 2, 17)
]


@pytest.mark.parametrize("kernel,stride,padding,batch", GEOMETRIES)
def test_conv_forward_backward_bytes(kernel, stride, padding, batch):
    rng = np.random.default_rng(kernel * 100 + stride * 10 + padding + batch)
    conv = Conv2d(2, 3, kernel, stride=stride, padding=padding, rng=rng)
    conv.bias.data = rng.normal(size=3)
    x = rng.normal(size=(batch, 2, 7, 8))
    out = conv.forward(x)
    ref_out, cols = _conv_forward_ref(conv, x)
    assert out.shape == ref_out.shape
    assert out.tobytes() == ref_out.tobytes()

    grad_out = rng.normal(size=out.shape)
    grad_x = conv.backward(grad_out)
    ref_grad_x, ref_w, ref_b = _conv_backward_ref(conv, x, cols, grad_out)
    assert grad_x.tobytes() == ref_grad_x.tobytes()
    assert conv.weight.grad.tobytes() == ref_w.tobytes()
    assert conv.bias.grad.tobytes() == ref_b.tobytes()


@pytest.mark.parametrize("kernel,stride,padding,batch", GEOMETRIES)
def test_col2im_bytes(kernel, stride, padding, batch):
    rng = np.random.default_rng(kernel + stride * 7 + padding * 31 + batch)
    in_shape = (batch, 2, 7, 8)
    out_h = conv_output_size(7, kernel, stride, padding)
    out_w = conv_output_size(8, kernel, stride, padding)
    cols = rng.normal(size=(batch, 2 * kernel * kernel, out_h * out_w))
    got = col2im(cols, in_shape, kernel, kernel, stride, padding)
    ref = _col2im_ref(cols, in_shape, kernel, stride, padding)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()

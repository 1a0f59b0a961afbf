"""Byte-for-byte checks of the vectorised forest walk, the batch-minor
conv forward, the strided-add ``col2im`` and the pooling layers against
reference copies of the straightforward implementations: a per-tree,
per-row forest walk summed tree by tree, a fancy-indexing ``im2col``
followed by a transpose copy, an ``np.add.at`` scatter for ``col2im``,
max pooling by ``argmax`` over ``im2col`` windows, and average-pooling
importance expanded one window at a time.  The batch-invariant GEMM
operand is checked against a wide product, and the conv and Linear
forwards against one-sample forwards.

Scores are compared with ``tobytes()``, not ``allclose``: the detector's
decisions must not depend on which implementation computed them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classifier import RandomForest
from repro.core.serialization import forest_from_arrays, forest_to_arrays
from repro.nn.functional import (
    GEMM_COLUMN_ALIGN,
    col2im,
    conv_output_size,
    gemm_operand,
    gemm_width,
)
from repro.nn.layers import AvgPool2d, Conv2d, Linear, MaxPool2d

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


class _MaxPool2dRef:
    """Max pooling as an ``argmax`` over the ``im2col`` windows of each
    channel, with the argmax computed in ``forward``."""

    def __init__(self, kernel, stride):
        self.kernel, self.stride = kernel, stride

    def forward(self, x):
        batch, channels, height, width = x.shape
        out_h = conv_output_size(height, self.kernel, self.stride, 0)
        out_w = conv_output_size(width, self.kernel, self.stride, 0)
        cols = _im2col_ref(
            x.reshape(batch * channels, 1, height, width), self.kernel,
            self.stride, 0,
        )
        self.argmax = cols.argmax(axis=1)
        self.x_shape, self.cols_shape = x.shape, cols.shape
        self.out_hw = (out_h, out_w)
        out = np.take_along_axis(cols, self.argmax[:, None, :], axis=1)
        return out[:, 0, :].reshape(batch, channels, out_h, out_w)

    def backward(self, grad_out):
        batch, channels, height, width = self.x_shape
        grad_cols = np.zeros(self.cols_shape)
        np.put_along_axis(
            grad_cols, self.argmax[:, None, :],
            grad_out.reshape(batch * channels, -1)[:, None, :], axis=1,
        )
        grad = _col2im_ref(
            grad_cols, (batch * channels, 1, height, width), self.kernel,
            self.stride, 0,
        )
        return grad.reshape(batch, channels, height, width)

    def propagate_back(self, positions, sample=0):
        if positions.size == 0:
            return positions
        _, channels, height, width = self.x_shape
        out_h, out_w = self.out_hw
        c, rem = np.divmod(positions, out_h * out_w)
        oy, ox = np.divmod(rem, out_w)
        window_idx = self.argmax[sample * channels + c, oy * out_w + ox]
        ky, kx = np.divmod(window_idx, self.kernel)
        iy = oy * self.stride + ky
        ix = ox * self.stride + kx
        return c * height * width + iy * width + ix


def _avgpool_propagate_back_ref(pool, positions):
    """Average-pooling importance: one window per position, then unique."""
    if positions.size == 0:
        return positions
    _, _, height, width = pool._in_shape
    out_h, out_w = pool._out_hw
    c, rem = np.divmod(positions, out_h * out_w)
    oy, ox = np.divmod(rem, out_w)
    expanded = []
    for ci, yi, xi in zip(c, oy, ox):
        iy = int(yi) * pool.stride + np.arange(pool.kernel_size)
        ix = int(xi) * pool.stride + np.arange(pool.kernel_size)
        iy_grid, ix_grid = np.meshgrid(iy, ix, indexing="ij")
        expanded.append(
            int(ci) * height * width + (iy_grid * width + ix_grid).ravel()
        )
    return np.unique(np.concatenate(expanded))


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


#: The five conv layers of ``mini_alexnet``: (in, out, image size).
ALEXNET_CONVS = [(3, 8, 16), (8, 16, 8), (16, 24, 4), (24, 24, 4), (24, 16, 4)]


def _gemm_width(kernel, stride, padding, batch, height=7, width=8):
    return (batch * conv_output_size(height, kernel, stride, padding)
            * conv_output_size(width, kernel, stride, padding))


@pytest.mark.parametrize("kernel,stride,padding,batch", GEOMETRIES)
def test_conv_forward_backward_bytes(kernel, stride, padding, batch):
    """Forward bytes equal the reference where its GEMM width is a
    multiple of GEMM_COLUMN_ALIGN.  At other widths the reference runs
    its last columns through OpenBLAS's ragged-tail kernels, so its own
    bytes depend on the batch size; there the values must agree, and
    test_conv_forward_is_batch_invariant pins the bytes."""
    rng = np.random.default_rng(kernel * 100 + stride * 10 + padding + batch)
    conv = Conv2d(2, 3, kernel, stride=stride, padding=padding, rng=rng)
    conv.bias.data = rng.normal(size=3)
    x = rng.normal(size=(batch, 2, 7, 8))
    out = conv.forward(x)
    ref_out, cols = _conv_forward_ref(conv, x)
    assert out.shape == ref_out.shape
    if _gemm_width(kernel, stride, padding, batch) % GEMM_COLUMN_ALIGN == 0:
        assert out.tobytes() == ref_out.tobytes()
    else:
        np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12)

    grad_out = rng.normal(size=out.shape)
    grad_x = conv.backward(grad_out)
    ref_grad_x, ref_w, ref_b = _conv_backward_ref(conv, x, cols, grad_out)
    assert grad_x.tobytes() == ref_grad_x.tobytes()
    assert conv.weight.grad.tobytes() == ref_w.tobytes()
    assert conv.bias.grad.tobytes() == ref_b.tobytes()


@pytest.mark.parametrize("kernel,stride,padding,batch", GEOMETRIES)
def test_conv_forward_is_batch_invariant(kernel, stride, padding, batch):
    """A batched forward gives each sample the bytes of its own
    one-sample forward."""
    rng = np.random.default_rng([kernel, stride, padding, batch])
    conv = Conv2d(2, 3, kernel, stride=stride, padding=padding, rng=rng)
    conv.bias.data = rng.normal(size=3)
    x = rng.normal(size=(batch, 2, 7, 8))
    out = conv.forward(x)
    singles = np.concatenate([conv.forward(x[i:i + 1]) for i in range(batch)])
    assert out.tobytes() == singles.tobytes()


@pytest.mark.parametrize("batch", [1, 16, 64])
@pytest.mark.parametrize("in_ch,out_ch,size", ALEXNET_CONVS)
def test_alexnet_conv_forward_bytes(in_ch, out_ch, size, batch):
    rng = np.random.default_rng([in_ch, out_ch, size, batch])
    conv = Conv2d(in_ch, out_ch, 3, padding=1, rng=rng)
    conv.bias.data = rng.normal(size=out_ch)
    x = rng.normal(size=(batch, in_ch, size, size))
    if in_ch != 3:
        # past conv1 the model feeds each conv a batch-minor activation
        x = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    assert _gemm_width(3, 1, 1, batch, size, size) % GEMM_COLUMN_ALIGN == 0
    out = conv.forward(x)
    ref_out, _ = _conv_forward_ref(conv, x)
    assert out.tobytes() == ref_out.tobytes()


@pytest.mark.parametrize("rows", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("depth", [216, 400, 576, 1152])
def test_gemm_operand_columns_match_a_wide_product(depth, rows):
    """Through gemm_operand, every real width from 1 to 64 gives each
    column the bytes a 1024-wide product gives it: the width rule keeps
    every product out of OpenBLAS's ragged-tail and small-matrix
    kernels."""
    rng = np.random.default_rng([depth, rows])
    weight = rng.normal(size=(rows, depth))
    columns = rng.normal(size=(depth, 1024))
    wide = weight @ columns
    for n_cols in range(1, 65):
        operand = gemm_operand(weight, n_cols)
        assert operand.shape == (depth, gemm_width(rows, depth, n_cols))
        assert operand.shape[1] % GEMM_COLUMN_ALIGN == 0
        assert not operand[:, n_cols:].any()
        operand[:, :n_cols] = columns[:, :n_cols]
        got = (weight @ operand)[:, :n_cols]
        assert got.tobytes() == wide[:, :n_cols].tobytes(), n_cols


@pytest.mark.parametrize("size", [1, 2])
def test_deep_conv_on_small_maps_is_batch_invariant(size):
    """mini_vgg's Conv2d(64, 64) on its 2x2 and 1x1 maps (K = 576): a
    few samples' product is small enough for the small-matrix kernel
    unless its width is padded past it, and a batch of 17 is not."""
    rng = np.random.default_rng(size)
    conv = Conv2d(64, 64, 3, padding=1, rng=rng)
    conv.bias.data = rng.normal(size=64)
    x = rng.normal(size=(17, 64, size, size))
    singles = [conv.forward(x[i:i + 1]) for i in range(17)]
    for batch in (*range(1, 9), 17):
        out = conv.forward(x[:batch])
        assert out.tobytes() == np.concatenate(singles[:batch]).tobytes()


@pytest.mark.parametrize("in_features,out_features", [
    (64, 48), (48, 10), (576, 48), (1152, 8),
])
def test_linear_eval_is_batch_and_layout_invariant(in_features,
                                                   out_features):
    """In eval mode each sample's row has the bytes of its own
    one-sample forward, whether the input is C-ordered or F-ordered like
    the (N, C) output a global pool leaves of a batch-minor activation."""
    rng = np.random.default_rng([in_features, out_features])
    fc = Linear(in_features, out_features, rng=rng)
    fc.bias.data = rng.normal(size=out_features)
    fc.train(False)
    x = rng.normal(size=(17, in_features))
    singles = np.concatenate([fc.forward(x[i:i + 1]) for i in range(17)])
    for batch in (1, 2, 5, 16, 17):
        strided = np.asfortranarray(x[:batch])
        for rows in (x[:batch], strided):
            assert fc.forward(rows).tobytes() == (
                singles[:batch].tobytes()
            )


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


# -- pooling ------------------------------------------------------------------

POOL_GEOMETRIES = [(2, 2), (3, 2), (3, 1), (2, 1)]
#: (height, width): odd sizes leave rows and columns no window covers
POOL_SIZES = [(5, 5), (7, 9), (6, 7)]
POOL_INPUTS = ["normal", "integer_ties", "signed_zeros", "nan", "relu"]


def _pool_input(kind, shape, rng):
    if kind == "normal":
        return rng.normal(size=shape)
    if kind == "integer_ties":
        return rng.integers(-2, 3, size=shape).astype(np.float64)
    if kind == "signed_zeros":
        return rng.choice(np.array([0.0, -0.0, -1.0]), size=shape)
    if kind == "nan":
        return rng.choice(
            np.array([np.nan, -np.nan, 0.0, -0.0, 1.0, 1.0, -2.0]), size=shape
        )
    # a ReLU output: x * (x > 0) turns every negative input into -0.0
    x = rng.normal(size=shape)
    return x * (x > 0)


def _all_positions(out_shape):
    return np.arange(int(np.prod(out_shape[1:])), dtype=np.int64)


@pytest.mark.parametrize("kind", POOL_INPUTS)
@pytest.mark.parametrize("height,width", POOL_SIZES)
@pytest.mark.parametrize("kernel,stride", POOL_GEOMETRIES)
def test_maxpool_forward_backward_bytes(kernel, stride, height, width, kind):
    rng = np.random.default_rng([kernel, stride, height, width,
                                 POOL_INPUTS.index(kind)])
    pool, ref = MaxPool2d(kernel, stride), _MaxPool2dRef(kernel, stride)
    x = _pool_input(kind, (3, 2, height, width), rng)
    out, ref_out = pool.forward(x), ref.forward(x)
    assert out.shape == ref_out.shape
    assert out.tobytes() == ref_out.tobytes()
    grad_out = rng.normal(size=out.shape)
    assert pool.backward(grad_out).tobytes() == ref.backward(grad_out).tobytes()


@pytest.mark.parametrize("kind", POOL_INPUTS)
@pytest.mark.parametrize("height,width", POOL_SIZES)
@pytest.mark.parametrize("kernel,stride", POOL_GEOMETRIES)
def test_maxpool_propagate_back_bytes(kernel, stride, height, width, kind):
    rng = np.random.default_rng([height, width, kernel, stride,
                                 POOL_INPUTS.index(kind)])
    pool, ref = MaxPool2d(kernel, stride), _MaxPool2dRef(kernel, stride)
    x = _pool_input(kind, (3, 2, height, width), rng)
    out = pool.forward(x)
    ref.forward(x)
    positions = _all_positions(out.shape)
    subset = np.sort(rng.choice(positions, size=positions.size // 3,
                                replace=False))
    for sample in range(x.shape[0]):
        for pos in (positions, subset, positions[:0]):
            got = pool.propagate_back(pos, sample)
            want = ref.propagate_back(pos, sample)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel,stride", POOL_GEOMETRIES)
def test_maxpool_sequence_bytes(kernel, stride):
    """forward -> backward -> forward of another batch -> propagate_back ->
    backward: the argmax of one batch never leaks into the next."""
    rng = np.random.default_rng(kernel * 10 + stride)
    pool, ref = MaxPool2d(kernel, stride), _MaxPool2dRef(kernel, stride)
    for shape, kind in (((2, 3, 7, 7), "integer_ties"),
                        ((4, 3, 9, 7), "relu"),
                        ((1, 3, 5, 9), "nan")):
        x = _pool_input(kind, shape, rng)
        assert pool.forward(x).tobytes() == ref.forward(x).tobytes()
        grad_out = rng.normal(size=ref.argmax.shape).reshape(
            (shape[0], shape[1]) + ref.out_hw
        )
        assert (pool.backward(grad_out).tobytes()
                == ref.backward(grad_out).tobytes())
        positions = _all_positions(grad_out.shape)
        assert (pool.propagate_back(positions, shape[0] - 1).tobytes()
                == ref.propagate_back(positions, shape[0] - 1).tobytes())
        assert (pool.backward(grad_out).tobytes()
                == ref.backward(grad_out).tobytes())


def test_forward_holds_no_operand_and_no_argmax():
    rng = np.random.default_rng(0)
    conv = Conv2d(2, 3, 3, padding=1, rng=rng)
    pool = MaxPool2d(3, 2)
    x = rng.normal(size=(2, 2, 9, 9))
    out = pool.forward(conv.forward(x))
    assert set(conv._cache) == {"x"}
    assert set(pool._cache) == {"x"}
    pool.propagate_back(_all_positions(out.shape))
    assert set(pool._cache) == {"x", "argmax"}
    pool.forward(conv.forward(x))
    assert set(pool._cache) == {"x"}


@pytest.mark.parametrize("kernel,stride", POOL_GEOMETRIES + [(3, 3)])
def test_avgpool_propagate_back_bytes(kernel, stride):
    rng = np.random.default_rng(kernel * 7 + stride)
    pool = AvgPool2d(kernel, stride)
    out = pool.forward(rng.normal(size=(1, 3, 9, 7)))
    positions = _all_positions(out.shape)
    cases = [positions, positions[:0], positions[::-1],
             np.repeat(positions[:4], 2)]
    cases += [np.sort(rng.choice(positions, size=n, replace=False))
              for n in (1, 2, positions.size // 2)]
    for pos in cases:
        got = pool.propagate_back(pos)
        want = _avgpool_propagate_back_ref(pool, pos)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

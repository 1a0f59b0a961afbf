"""Benchmark-suite configuration.

Each benchmark regenerates one table or figure of the paper on the
synthetic substrate and prints the same rows/series the paper reports.
Expensive state (trained models, attack sets, profiled detectors) is
cached in the Workbench, so pytest-benchmark's repeated calls measure
the detection machinery, not training.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.

Smoke mode (``pytest benchmarks/ --smoke``) shrinks every scenario to
tiny sizes and relaxes paper-shape assertions into skips, so CI can
execute every benchmark script end-to-end in minutes: imports, data
plumbing, and table rendering can never silently rot, while the
quantitative claims stay bound to full-size runs.
"""

import os
import sys
from pathlib import Path

# Make the in-repo package importable from any working directory —
# pytest (and CI) must not depend on the invoker exporting PYTHONPATH.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="tiny-sizes mode: shrink scenarios, relax paper-shape "
        "assertions into skips (plumbing check only; REPRO_SMOKE=1 "
        "in the environment turns this on too)",
    )


def _smoke_active(config) -> bool:
    """``--smoke``, or a truthy ``REPRO_SMOKE`` in the environment, which
    lets CI make any invocation a smoke run without editing its
    arguments."""
    if config.getoption("--smoke"):
        return True
    return os.environ.get("REPRO_SMOKE", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def pytest_configure(config):
    if _smoke_active(config):
        from repro.eval import workloads

        workloads.shrink_for_smoke()


@pytest.fixture(scope="session")
def smoke(request):
    """True when the suite runs in tiny-sizes smoke mode."""
    return _smoke_active(request.config)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """In smoke mode a failed paper-shape assertion is a skip, not a
    failure: tiny substrates cannot support the quantitative claims,
    only exercise the code paths.

    This relaxation covers *every* AssertionError, so correctness
    contracts that must hold even at tiny sizes (batch equivalence,
    accounting sanity) should raise RuntimeError instead of asserting."""
    try:
        return (yield)
    except AssertionError as exc:
        if _smoke_active(item.config):
            pytest.skip(f"paper-shape assertion relaxed in smoke mode: {exc}")
        raise


def pytest_collection_modifyitems(items):
    """Keep benchmark ordering stable (fig/table number order)."""
    items.sort(key=lambda item: item.fspath.basename)

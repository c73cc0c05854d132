"""Shared fixtures: platform models and receive chains.

Board models are session-scoped for speed; the function-scoped cluster
fixtures reset mutable state (voltage, clock, power gating) so tests
stay independent.  Each cluster owns a chain session that caches the
schedules and transfer-function grids of its ``run`` and ``run_trace``
for the whole test session, so a test that counts cache misses, AC
analyses or kernel calls builds a fresh board (``make_juno_board()``).

Also home to the test-suite plumbing: the ``--update-golden`` flag
(regenerates ``tests/golden/`` data instead of comparing against it)
and the failing-seed report (tests exposing a ``seed``/``plan_seed``
fixture or hypothesis example print it on failure, so a red run is
reproducible from the log alone).
"""

import numpy as np
import pytest

from repro import EMCharacterizer, make_amd_desktop, make_juno_board
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate tests/golden/ data files instead of "
        "comparing against them",
    )


@pytest.fixture
def update_golden(request):
    """True when the run should rewrite golden data files."""
    return request.config.getoption("--update-golden")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """On failure, print any seed-like fixture values of the test.

    Seeded tests (chaos plans, property tests, RNG fixtures) become
    reproducible from the failure log: the report gains a
    ``seeds: name=value ...`` line listing every int-valued argument
    whose name mentions ``seed``.
    """
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    seeds = {
        name: value
        for name, value in getattr(item, "funcargs", {}).items()
        if "seed" in name and isinstance(value, (int, np.integer))
    }
    if seeds:
        rendered = " ".join(f"{k}={v}" for k, v in sorted(seeds.items()))
        report.sections.append(("seeds", f"seeds: {rendered}"))


@pytest.fixture(scope="session")
def juno_board():
    return make_juno_board()


@pytest.fixture(scope="session")
def amd_desktop():
    return make_amd_desktop()


@pytest.fixture
def a72(juno_board):
    juno_board.a72.reset()
    yield juno_board.a72
    juno_board.a72.reset()


@pytest.fixture
def a53(juno_board):
    juno_board.a53.reset()
    yield juno_board.a53
    juno_board.a53.reset()


@pytest.fixture
def athlon(amd_desktop):
    amd_desktop.cpu.reset()
    yield amd_desktop.cpu
    amd_desktop.cpu.reset()


@pytest.fixture
def characterizer():
    return EMCharacterizer(
        analyzer=SpectrumAnalyzer(rng=np.random.default_rng(1234)),
        samples=5,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(99)

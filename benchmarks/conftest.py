"""Shared fixtures for the benchmark harness.

Each ``test_table*.py`` module regenerates one of the paper's tables;
run with ``pytest benchmarks/ --benchmark-only``.  Regenerated tables
are written to ``benchmarks/output/``.

Table runs can opt into the execution engine's result cache: pass
``--engine-cache DIR`` (and optionally ``--engine-jobs N``) and the
``table_runner`` fixture routes measured-table runs through
:mod:`repro.engine`, so repeated harness invocations on an unchanged
tree are served from disk instead of re-simulating.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.sessions import open_session

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def pytest_addoption(parser):
    parser.addoption(
        "--engine-cache",
        default=None,
        metavar="DIR",
        help="content-addressed result cache for table runs "
        "(see repro.engine); default: no cache",
    )
    parser.addoption(
        "--engine-jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for engine-backed table runs (default: 1)",
    )


@pytest.fixture(scope="session")
def output_dir() -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def session_factory():
    return lambda: open_session("cm5", 32)


@pytest.fixture(scope="session")
def table_runner(request):
    """Engine-backed ``(name, params) -> PerfReport`` runner, or None.

    None (the default, without ``--engine-cache``/``--engine-jobs``)
    keeps the classic in-process path; table regeneration functions
    accept either via their ``runner`` argument.
    """
    cache_dir = request.config.getoption("--engine-cache")
    jobs = request.config.getoption("--engine-jobs")
    if cache_dir is None and jobs <= 1:
        return None

    from repro.engine import Engine, EngineConfig, RunRequest

    engine = Engine(EngineConfig(jobs=jobs, cache_dir=cache_dir))

    def runner(name, params):
        (result,) = engine.run([RunRequest(benchmark=name, params=params)])
        if not result.ok:
            raise RuntimeError(
                f"engine run {result.request.describe()} {result.status}: "
                f"{result.error}"
            )
        return result.report

    return runner


def save_table(output_dir: pathlib.Path, name: str, text: str) -> None:
    (output_dir / f"{name}.txt").write_text(text + "\n")

"""Benchmark harness plumbing.

Each bench module regenerates one paper table/figure through the experiment
registry, times it with pytest-benchmark (one round — these are simulation
campaigns, not microseconds-scale functions), verifies the paper-shape
assertions, and writes the rendered table to ``results/<id>.txt`` so the
regenerated artifact is inspectable after the run.
"""

import pathlib

import pytest

from repro.experiments.executor import ExperimentExecutor

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    group = parser.getgroup("repro", "experiment sweep execution")
    # When benchmarks/ is collected alongside tests/ (e.g. ``pytest .``),
    # this conftest is not an initial one: another plugin may already have
    # added the options, or option registration may be closed entirely.
    # Either way the benches must still collect and run with defaults.
    try:
        group.addoption(
            "--jobs", type=int, default=1,
            help="worker processes for experiment sweeps (default: serial)",
        )
        group.addoption(
            "--no-cache", action="store_true",
            help="ignore the persistent result cache under results/cache/",
        )
        group.addoption(
            "--sanitize", action="store_true",
            help=(
                "arm the coherence model checker and kernel-window race "
                "detector on every GMAC workload execution (disables the "
                "result cache: checked results must come from checked runs)"
            ),
        )
    except ValueError:
        pass


@pytest.fixture(scope="session", autouse=True)
def _sanitize_mode(request):
    from repro import analysis

    if not _option(request.config, "--sanitize", False):
        yield
        return
    analysis.enable()
    yield
    analysis.disable()


def _option(config, name, default):
    """getoption with a fallback for runs where registration was skipped."""
    try:
        return config.getoption(name)
    except ValueError:
        return default


@pytest.fixture
def executor(request):
    """The sweep executor configured from the --jobs/--no-cache options."""
    instance = ExperimentExecutor(
        jobs=_option(request.config, "--jobs", 1),
        use_cache=not (
            _option(request.config, "--no-cache", False)
            or _option(request.config, "--sanitize", False)
        ),
    )
    yield instance
    instance.close()


@pytest.fixture
def regenerate(benchmark, executor):
    """Run one experiment under the benchmark timer and persist its table."""

    def run(experiment_id, quick=False):
        result = benchmark.pedantic(
            executor.run,
            args=(experiment_id,),
            kwargs={"quick": quick},
            rounds=1,
            iterations=1,
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{experiment_id}.txt").write_text(
            result.render() + "\n"
        )
        (RESULTS_DIR / f"{experiment_id}.json").write_text(result.to_json())
        return result

    return run

"""Shared fixtures: machines, applications, GMAC instances, test kernels."""

import numpy as np
import pytest

from repro.hw.machine import reference_system, integrated_system
from repro.workloads.base import Application
from repro.cuda.kernels import Kernel


def pytest_addoption(parser):
    group = parser.getgroup("repro", "ADSM sanitizer")
    # benchmarks/conftest.py registers its own options with the same
    # guard; whichever conftest loads first wins, the other passes.
    try:
        group.addoption(
            "--sanitize", action="store_true",
            help=(
                "arm the coherence model checker and kernel-window race "
                "detector on every GMAC workload execution"
            ),
        )
    except ValueError:
        pass


@pytest.fixture(scope="session", autouse=True)
def _sanitize_mode(request):
    """Honor --sanitize: every Workload.execute gets the dynamic checkers."""
    from repro import analysis

    try:
        wanted = request.config.getoption("--sanitize")
    except ValueError:
        wanted = False
    if not wanted:
        yield
        return
    analysis.enable()
    yield
    analysis.disable()


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the persistent result cache at a session tmp dir.

    Tests must neither read stale outcomes from, nor deposit new ones
    into, the shared cache under benchmarks/results/.
    """
    from repro.experiments import common
    from repro.experiments.cache import ResultCache

    with common.using_cache(
        ResultCache(tmp_path_factory.mktemp("result-cache"))
    ):
        yield


@pytest.fixture
def machine():
    return reference_system()


@pytest.fixture
def integrated_machine():
    return integrated_system()


@pytest.fixture
def app(machine):
    return Application(machine)


@pytest.fixture
def gmac_factory(app):
    """Build GMAC instances bound to the shared application."""

    def build(protocol="rolling", **kwargs):
        kwargs.setdefault("layer", "driver")
        return app.gmac(protocol=protocol, **kwargs)

    return build


def _scale_fn(gpu, data, n, factor):
    gpu.view(data, "f4", n)[:] *= np.float32(factor)


def _add_fn(gpu, a, b, c, n):
    np.add(gpu.view(a, "f4", n), gpu.view(b, "f4", n), out=gpu.view(c, "f4", n))


@pytest.fixture
def scale_kernel():
    """data[i] *= factor over n float32 elements."""
    return Kernel(
        "scale", _scale_fn,
        cost=lambda data, n, factor: (n, 8 * n),
        writes=("data",),
    )


@pytest.fixture
def add_kernel():
    """c = a + b over n float32 elements."""
    return Kernel(
        "add", _add_fn,
        cost=lambda a, b, c, n: (n, 12 * n),
        writes=("c",),
    )

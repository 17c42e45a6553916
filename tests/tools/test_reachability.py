"""The reachability gate's diff logic (``tools/reachability.py``), on a
tiny package: the entry-point runs themselves are the CI job's business."""

import importlib.util
import pathlib
import sys
import textwrap

import pytest

GATE = pathlib.Path(__file__).resolve().parents[2] / "tools" / "reachability.py"

SOURCE = textwrap.dedent('''\
    import abc
    import functools


    def used():
        return 1


    def unused():
        return 2


    def tag(function):
        return function


    @tag
    @functools.lru_cache(maxsize=None)
    def decorated():
        return 3


    class Shape(abc.ABC):
        @abc.abstractmethod
        def area(self):
            """Never runs."""

        @property
        def side(self):
            return 1

        @side.setter
        def side(self, value):
            pass
''')


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("reachability_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def package(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "mod.py").write_text(SOURCE)
    return root


def _key(functions, qualname):
    [key] = [k for k, (name, _) in functions.items() if name == qualname]
    return key


def _verdict(gate, package, reached_names, allowed):
    functions = gate.defined_functions(package, package.parent)
    reached = {_key(functions, f"pkg/mod.py::{name}") for name in reached_names}
    return gate.check(functions, reached, allowed, exempt=frozenset())


ALL_REACHED = ("used", "tag", "decorated", "Shape.side", "Shape.side#2")


def test_every_function_reached_passes(gate, package):
    assert _verdict(gate, package, ALL_REACHED + ("unused",), {}) == (
        [], [], [],
    )


def test_unreached_unlisted_function_fails(gate, package):
    unlisted, stale, reached = _verdict(gate, package, ALL_REACHED, {})
    assert unlisted == ["pkg/mod.py::unused"]
    assert stale == reached == []


def test_allowlisted_unreached_function_passes(gate, package):
    allowed = {"pkg/mod.py::unused": "debug"}
    assert _verdict(gate, package, ALL_REACHED, allowed) == ([], [], [])


def test_stale_entry_fails(gate, package):
    allowed = {"pkg/mod.py::unused": "debug", "pkg/mod.py::gone": "debug"}
    unlisted, stale, reached = _verdict(gate, package, ALL_REACHED, allowed)
    assert stale == ["pkg/mod.py::gone"]
    assert unlisted == reached == []


def test_reached_but_listed_entry_fails(gate, package):
    allowed = {"pkg/mod.py::unused": "debug", "pkg/mod.py::used": "debug"}
    unlisted, stale, reached = _verdict(gate, package, ALL_REACHED, allowed)
    assert reached == ["pkg/mod.py::used"]
    assert unlisted == stale == []


def test_abstract_methods_are_exempt(gate, package):
    functions = gate.defined_functions(package, package.parent)
    assert functions[_key(functions, "pkg/mod.py::Shape.area")][1] is True


def test_decorated_function_keyed_by_first_decorator_line(
    gate, package, monkeypatch
):
    functions = gate.defined_functions(package, package.parent)
    rel, first, name = _key(functions, "pkg/mod.py::decorated")
    assert SOURCE.splitlines()[first - 1] == "@tag"
    # The key is what the recorder sees when the function runs.
    monkeypatch.syspath_prepend(str(package.parent))
    monkeypatch.delitem(sys.modules, "pkg.mod", raising=False)
    module = importlib.import_module("pkg.mod")
    code = module.decorated.__wrapped__.__code__
    assert (rel, first, name) == ("mod.py", code.co_firstlineno, code.co_name)


def test_allowlist_rejects_unknown_reasons(gate, tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("# comment\n\npkg/mod.py::unused  debug\n")
    assert gate.load_allowlist(path) == {"pkg/mod.py::unused": "debug"}
    path.write_text("pkg/mod.py::unused  because\n")
    with pytest.raises(ValueError, match="unknown reason"):
        gate.load_allowlist(path)

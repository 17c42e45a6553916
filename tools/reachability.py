"""Reachability gate: every function under ``src/repro`` runs in a product
entry point, or ``tools/reachability_allow.txt`` says why it stays.

Run from anywhere (stdlib only, no flags)::

    python tools/reachability.py

The product is the paper's figures and the checkers that prove them, so
the product entry points are the CLI runs, analysis tools and examples in
:data:`ENTRY_POINTS`.  Each runs in a fresh interpreter under a
``sys.setprofile`` / ``threading.setprofile`` recorder.  The runs share a
temporary ``REPRO_CACHE_DIR`` and write their outputs (the report, and
sanitizer reports under ``REPRO_SANITIZE_REPORT``) into a temporary
directory; no other ``REPRO_*`` variable of the caller's environment
reaches them.  Forked pool workers inherit the recorder and dump their
records before ``os._exit``, which would otherwise drop them.

The functions checked are the ``def`` statements of an AST walk of
``src/repro``, keyed by file, first line and name.  The first line of a
decorated function is its first decorator's line, which is what
``co_firstlineno`` reports.  A function is named ``path::Qualname`` with
Python's qualname rules (``outer.<locals>.inner``); a name defined twice
in one scope, such as a property's getter and setter, gets ``#2``,
``#3`` ... on its later definitions.

Exempt by rule, not by entry:

* methods decorated with ``abc.abstractmethod``.  Their bodies never run
  by design; a concrete override carries the behaviour and is checked
  itself.
* the functions in :data:`TIMING_DEPENDENT`, whose reach depends on host
  timing rather than on the entry point.  The pool supervisor runs only
  when no worker reports within its poll interval, which a slow spec may
  or may not cause; allowlisting it would fail whenever a run reaches it.

The gate fails when

* a function no entry point reached is not in the allowlist;
* an allowlist entry names a function that does not exist;
* an allowlist entry names a function an entry point reached.

The allowlist holds one ``path::Qualname  reason`` per line (``#`` starts
a comment).  Reasons come from :data:`REASONS`.
"""

import ast
import os
import pathlib
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ALLOWLIST = ROOT / "tools" / "reachability_allow.txt"

#: The allowlist's reasons; its header says what each one covers.
REASONS = frozenset({
    "paper-api", "interpose", "recovery", "debug", "benchmark",
    "test-reference",
})

#: Reached or not depending on host timing (see the module docstring).
TIMING_DEPENDENT = frozenset({
    "src/repro/experiments/pool.py::PersistentWorkerPool._supervise",
})

# Argument vectors after ``python``; ``{out}`` is the run's output
# directory.  Order matters: the pooled run fills the shared temporary
# cache that the charted run then reads back (all hits).
ENTRY_POINTS = (
    ("-m", "repro.experiments", "all", "--quick", "--no-cache"),
    ("-m", "repro.experiments", "all", "--quick", "--sanitize"),
    ("-m", "repro.experiments", "all", "--quick", "--jobs", "2"),
    ("-m", "repro.experiments", "all", "--quick", "--chart"),
    ("-m", "repro.experiments", "report", "--quick",
     "--output", "{out}/reproduction_report.md"),
    ("-m", "repro.experiments", "fig7", "--scale", "paper"),
    ("-m", "repro.experiments", "chaos", "--quick"),
    ("-m", "repro.experiments", "chaos"),
    ("-m", "repro.experiments", "failover", "--quick", "--sanitize",
     "--devices", "3"),
    ("-m", "repro.experiments", "failover", "--devices", "3"),
    ("-m", "repro.analysis.modelcheck"),
    ("-m", "repro.analysis.mutations"),
    ("-m", "repro.analysis.lint", f"{ROOT}/src/repro", f"{ROOT}/benchmarks",
     f"{ROOT}/examples"),
    (f"{ROOT}/examples/quickstart.py",),
    (f"{ROOT}/examples/coherence_protocols.py",),
    (f"{ROOT}/examples/mri_pipeline.py",),
    (f"{ROOT}/examples/portable_machines.py",),
    (f"{ROOT}/examples/transfer_overlap_timeline.py",),
)

# Runs in the child: ``argv[1]`` is the dump directory, ``argv[2]`` the
# package root, then the entry point's own ``-m module args`` or
# ``script args``.
_RECORDER = r"""
import atexit, os, runpy, sys, threading

dump_dir, package = sys.argv[1], os.path.realpath(sys.argv[2])
seen = {}


def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        seen[id(code)] = code


def dump():
    sys.setprofile(None)
    lines = set()
    for code in seen.values():
        path = os.path.realpath(code.co_filename)
        if path.startswith(package + os.sep):
            rel = os.path.relpath(path, package)
            lines.add(f"{rel}\t{code.co_firstlineno}\t{code.co_name}\n")
    name = f"{os.getpid()}-{os.urandom(4).hex()}.tsv"
    with open(os.path.join(dump_dir, name), "w") as handle:
        handle.writelines(sorted(lines))


real_exit = os._exit


def exit_dumping(status):
    dump()
    real_exit(status)


os._exit = exit_dumping
atexit.register(dump)
args = sys.argv[3:]
threading.setprofile(profile)
sys.setprofile(profile)
if args[0] == "-m":
    sys.argv = [args[1]] + args[2:]
    runpy.run_module(args[1], run_name="__main__", alter_sys=True)
else:
    sys.argv = list(args)
    runpy.run_path(args[0], run_name="__main__")
"""


def _is_abstract(node):
    for decorator in node.decorator_list:
        name = decorator.attr if isinstance(decorator, ast.Attribute) else (
            decorator.id if isinstance(decorator, ast.Name) else None
        )
        if name == "abstractmethod":
            return True
    return False


def defined_functions(package, root):
    """``{(relpath, first line, name): (qualname, abstract)}`` for every
    ``def`` under ``package``; ``relpath`` is relative to ``package`` and
    the qualname is prefixed with the path relative to ``root``."""
    package, root = pathlib.Path(package), pathlib.Path(root)
    functions = {}
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        shown = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        _walk(tree, [], rel, shown, functions, {})
    return functions


def _walk(node, scope, rel, shown, functions, taken):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = ".".join(scope + [child.name])
            count = taken.get(qualname, 0) + 1
            taken[qualname] = count
            if count > 1:
                qualname = f"{qualname}#{count}"
            first = (
                child.decorator_list[0].lineno if child.decorator_list
                else child.lineno
            )
            functions[(rel, first, child.name)] = (
                f"{shown}::{qualname}", _is_abstract(child),
            )
            _walk(
                child, scope + [child.name, "<locals>"], rel, shown,
                functions, taken,
            )
        elif isinstance(child, ast.ClassDef):
            _walk(child, scope + [child.name], rel, shown, functions, taken)
        else:
            _walk(child, scope, rel, shown, functions, taken)


def load_allowlist(path):
    """``{qualified name: reason}``; raises ValueError on a bad line."""
    allowed = {}
    lines = pathlib.Path(path).read_text().splitlines()
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2 or "::" not in parts[0]:
            raise ValueError(
                f"{path}:{number}: expected 'path::Qualname reason'"
            )
        name, reason = parts
        if reason not in REASONS:
            raise ValueError(
                f"{path}:{number}: unknown reason {reason!r} "
                f"(one of {', '.join(sorted(REASONS))})"
            )
        if name in allowed:
            raise ValueError(f"{path}:{number}: {name} listed twice")
        allowed[name] = reason
    return allowed


def read_dumps(directory):
    """The ``(relpath, first line, name)`` keys recorded under
    ``directory``."""
    reached = set()
    for path in pathlib.Path(directory).glob("*.tsv"):
        for line in path.read_text().splitlines():
            rel, first, name = line.split("\t")
            reached.add((rel, int(first), name))
    return reached


def check(functions, reached, allowed, exempt=TIMING_DEPENDENT):
    """The gate's verdict: ``(unlisted, stale, listed_but_reached)``,
    each a sorted list of qualified names.

    ``functions`` is :func:`defined_functions`' map, ``reached`` the
    recorded keys, ``allowed`` the allowlist and ``exempt`` the names
    whose reach depends on timing.
    """
    names = {qualname for qualname, _ in functions.values()}
    unreached = {
        qualname for key, (qualname, abstract) in functions.items()
        if key not in reached and not abstract
    } - exempt
    hit = {
        qualname for key, (qualname, _) in functions.items()
        if key in reached
    } - exempt
    unlisted = sorted(unreached - set(allowed))
    stale = sorted((set(allowed) | exempt) - names)
    listed_but_reached = sorted(set(allowed) & hit)
    return unlisted, stale, listed_but_reached


def record():
    """Run every entry point under the recorder; the reached keys."""
    base_env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    path = os.pathsep.join(
        [str(ROOT / "src")]
        + ([base_env["PYTHONPATH"]] if base_env.get("PYTHONPATH") else [])
    )
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        scratch = pathlib.Path(scratch)
        dumps = scratch / "dumps"
        out = scratch / "out"
        dumps.mkdir()
        out.mkdir()
        env = dict(
            base_env, PYTHONPATH=path, REPRO_CACHE_DIR=str(scratch / "cache"),
            REPRO_SANITIZE_REPORT=str(out / "sanitize-reports"),
        )
        for argv in ENTRY_POINTS:
            argv = [arg.format(out=out) for arg in argv]
            started = time.perf_counter()
            result = subprocess.run(
                [sys.executable, "-c", _RECORDER, str(dumps), str(PACKAGE)]
                + argv,
                cwd=out, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            shown = " ".join(arg.replace(f"{ROOT}/", "") for arg in argv)
            print(f"  {time.perf_counter() - started:5.1f}s  {shown}")
            if result.returncode != 0:
                raise SystemExit(
                    f"entry point failed ({result.returncode}): {shown}\n"
                    f"{result.stderr[-2000:]}"
                )
        return read_dumps(dumps)


def main():
    functions = defined_functions(PACKAGE, ROOT)
    allowed = load_allowlist(ALLOWLIST)
    print(f"recording {len(ENTRY_POINTS)} entry points:")
    reached = record()
    unlisted, stale, listed_but_reached = check(functions, reached, allowed)
    abstract = sum(1 for _, is_abstract in functions.values() if is_abstract)
    hit = sum(1 for key in functions if key in reached)
    print(
        f"{len(functions)} functions under src/repro: {hit} reached, "
        f"{len(allowed)} allowlisted; exempt by rule: {abstract} abstract, "
        f"{len(TIMING_DEPENDENT)} timing-dependent"
    )
    failed = False
    for title, names in (
        ("unreached and not in the allowlist", unlisted),
        ("allowlisted but not defined", stale),
        ("allowlisted but reached", listed_but_reached),
    ):
        if names:
            failed = True
            print(f"\n{len(names)} function(s) {title}:")
            for name in names:
                print(f"  {name}")
    if failed:
        print(
            "\nreachability gate FAILED (allowlist: "
            f"{ALLOWLIST.relative_to(ROOT)})"
        )
        return 1
    print("reachability gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

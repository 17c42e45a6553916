"""Repo-specific static lint (run as ``python -m repro.analysis.lint``).

Six rules, each encoding an invariant the simulator depends on but no
general-purpose linter knows about:

``R001``
    Device-memory internals (``_locate``, ``_allocations``,
    ``_alloc_starts``, assignment to ``on_observe``) must not be touched
    outside :mod:`repro.hw`.  Every device-byte access must flow through
    the public accessors so the ``on_observe`` hook — which the lazy
    materialization engine and the race detector both rely on — always
    fires.

``R002``
    No ``bytes(view[...])`` copies.  :mod:`repro.util.buffers` exists so
    bulk data moves by view; a ``bytes()`` of a subscript silently
    reintroduces the copy the zero-copy data path removed.

``R003``
    No unseeded randomness (``np.random.default_rng()`` or
    module-level ``random.*``) and no wall-clock reads (``time.time``,
    ``perf_counter``, ``datetime.now`` ...) in simulation code.  Results
    must be reproducible from the seed, and simulated time comes from
    :class:`~repro.sim.clock.VirtualClock`.

``R004``
    Protocol block-state mutation (``.state =``, ``.states[...] =``,
    ``.dirty_bits[...] =``, ``table.fill(...)``) is allowed only in the
    coherence core (``core/protocols``, ``core/manager.py``,
    ``core/blocks.py``, ``core/region.py``).  Everywhere else must go
    through the manager so transitions are counted and the coherence
    event stream stays complete — a bypassed mutation is invisible to
    the model checker.

``R005``
    No ``multiprocessing.Pool`` construction outside the worker-pool
    engine (``experiments/pool.py``).  Ad-hoc pools skip the persistent
    engine's configuration-affine dispatch, per-worker BLAS thread cap
    and crash supervision, and their sweeps
    never reach the result caches deterministically — all fan-out goes
    through :class:`~repro.experiments.executor.ExperimentExecutor`.

``R006``
    No direct byte copies between host mappings and device backing
    stores outside :mod:`repro.hw.memory`'s two ledger entry points
    (``copy_h2d`` / ``copy_d2h``).  A statement that both calls a
    device-memory byte accessor (``*.memory.read/write/fill/view``) and
    touches the host plane (``peek``/``peek_view``/``poke``/
    ``poke_fill``, a ``.backing`` store, or an address-space ``view``)
    is moving bytes around the transfer ledger: the copy dodges
    deferred-extent materialization, dirty-run recording and the COW
    shield, silently diverging the lazy engine from the eager one.

A finding is suppressed by a trailing ``# sanitizer: allow[R00X]``
comment on the offending line; every suppression is deliberate and
greppable.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set

RULES: Dict[str, str] = {
    "R001": "device-memory internals accessed outside repro.hw",
    "R002": "bytes() copy where a buffer view would do",
    "R003": "unseeded randomness or wall-clock in simulation code",
    "R004": "protocol block-state mutation outside the coherence core",
    "R005": "multiprocessing pool constructed outside the worker-pool engine",
    "R006": "host<->device byte copy outside the ledger entry points",
}

_ALLOW_RE = re.compile(r"#\s*sanitizer:\s*allow\[(R\d{3})\]")

_HW_INTERNALS = {"_locate", "_allocations", "_alloc_starts"}
_WALL_CLOCK = {
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("time", "process_time"), ("datetime", "now"), ("datetime", "utcnow"),
    ("datetime", "today"), ("date", "today"),
}
#: Paths (relative to the package root, "/"-separated) where protocol
#: state mutation is the *job*, not a bypass.
_STATE_CORE = (
    "core/protocols/", "core/manager.py", "core/blocks.py", "core/region.py",
)
#: The only module allowed to build worker pools: the sweep engine.
_POOL_CORE = ("experiments/pool.py",)
#: The only module allowed to move bytes between host and device stores:
#: the transfer-ledger entry points live here (DESIGN.md §14).
_LEDGER_CORE = ("hw/memory.py",)
#: Byte accessors on a ``*.memory`` receiver (device side) and the host
#: plane's privileged accessors, as seen by R006.
_DEVICE_BYTE_METHODS = {"read", "write", "fill", "view"}
_HOST_BYTE_METHODS = {"peek", "peek_view", "poke", "poke_fill"}


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _allowed_lines(source: str) -> Dict[int, Set[str]]:
    allowed: Dict[int, Set[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        for match in _ALLOW_RE.finditer(text):
            allowed.setdefault(number, set()).add(match.group(1))
    return allowed


class _Visitor(ast.NodeVisitor):
    def __init__(self, relative: str) -> None:
        self.relative = relative
        self.in_hw = relative.startswith("hw/")
        self.in_state_core = relative.startswith(_STATE_CORE)
        self.in_pool_core = relative in _POOL_CORE
        self.in_ledger_core = relative in _LEDGER_CORE
        self.findings: List[tuple[int, str, str]] = []

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append((node.lineno, rule, message))

    # R001 ------------------------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self.in_hw and node.attr in _HW_INTERNALS:
            self._flag(
                node, "R001",
                f"'{node.attr}' is a DeviceMemory internal; use the public "
                "accessors so on_observe fires",
            )
        self.generic_visit(node)

    def _check_assign_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Attribute):
            if not self.in_hw and target.attr == "on_observe":
                self._flag(
                    target, "R001",
                    "on_observe may only be (re)assigned inside repro.hw; "
                    "instrument via Gpu.observe_hook instead",
                )
            if not self.in_state_core and target.attr == "state":
                self._flag(
                    target, "R004",
                    "direct block-state assignment bypasses the manager "
                    "(transitions uncounted, coherence events unsent)",
                )
        if isinstance(target, ast.Subscript):
            value = target.value
            if (isinstance(value, ast.Attribute)
                    and not self.in_state_core
                    and value.attr in ("states", "dirty_bits")):
                self._flag(
                    target, "R004",
                    f"direct '{value.attr}[...]' write bypasses the manager",
                )
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_assign_target(element)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_assign_target(target)
        self._check_direct_copy(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_assign_target(node.target)
        self._check_direct_copy(node)
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        self._check_direct_copy(node)
        self.generic_visit(node)

    # R006 ------------------------------------------------------------------------

    def _check_direct_copy(self, node: ast.stmt) -> None:
        """One statement touching both byte planes is a ledger bypass."""
        if self.in_ledger_core:
            return
        device = host = False
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr == "backing":
                host = True
            if not (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)):
                continue
            attr = sub.func.attr
            receiver = sub.func.value
            if (attr in _DEVICE_BYTE_METHODS
                    and isinstance(receiver, ast.Attribute)
                    and receiver.attr == "memory"):
                device = True
            elif attr in _HOST_BYTE_METHODS:
                host = True
            elif attr == "view" and (
                (isinstance(receiver, ast.Name) and "space" in receiver.id)
                or (isinstance(receiver, ast.Attribute)
                    and "space" in receiver.attr)
            ):
                host = True
        if device and host:
            self._flag(
                node, "R006",
                "statement copies bytes between host and device stores "
                "directly; route through repro.hw.memory.copy_h2d/copy_d2h "
                "so the transfer ledger stays sound",
            )

    # R002 / R003 / R004 ------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_bytes_copy(node)
        self._check_nondeterminism(node)
        self._check_table_fill(node)
        self._check_pool_construction(node)
        self.generic_visit(node)

    def _check_bytes_copy(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Name) and node.func.id == "bytes"
                and len(node.args) == 1 and not node.keywords
                and isinstance(node.args[0], ast.Subscript)):
            self._flag(
                node, "R002",
                "bytes(view[...]) copies; pass the view through "
                "repro.util.buffers instead",
            )

    def _check_nondeterminism(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        root = func.value
        # np.random.default_rng() with no seed
        if (func.attr == "default_rng" and not node.args and not node.keywords
                and isinstance(root, ast.Attribute) and root.attr == "random"):
            self._flag(
                node, "R003",
                "default_rng() without a seed is irreproducible; thread the "
                "experiment seed through",
            )
        if isinstance(root, ast.Name):
            pair = (root.id, func.attr)
            if pair in _WALL_CLOCK:
                self._flag(
                    node, "R003",
                    f"{root.id}.{func.attr}() reads the wall clock; "
                    "simulated time comes from VirtualClock",
                )
            if root.id == "random":
                if func.attr in ("Random", "SystemRandom") and (
                    node.args or node.keywords
                ):
                    return  # seeded generator: fine
                self._flag(
                    node, "R003",
                    f"random.{func.attr}() uses the unseeded global state; "
                    "use a seeded random.Random or numpy Generator",
                )

    def _check_table_fill(self, node: ast.Call) -> None:
        func = node.func
        if self.in_state_core or not isinstance(func, ast.Attribute):
            return
        if func.attr not in ("fill", "fill_range"):
            return
        receiver = func.value
        is_table = (
            (isinstance(receiver, ast.Attribute) and receiver.attr == "table")
            or (isinstance(receiver, ast.Name) and receiver.id == "table")
        )
        if is_table:
            self._flag(
                node, "R004",
                f"table.{func.attr}(...) bypasses the manager; use "
                "set_states_only / set_index_range",
            )

    # R005 ------------------------------------------------------------------------

    def _check_pool_construction(self, node: ast.Call) -> None:
        """Flag ``multiprocessing.Pool(...)`` / ``context.Pool(...)`` /
        bare ``Pool(...)`` anywhere outside the worker-pool engine."""
        if self.in_pool_core:
            return
        func = node.func
        named_pool = isinstance(func, ast.Name) and func.id == "Pool"
        attr_pool = isinstance(func, ast.Attribute) and func.attr == "Pool"
        if named_pool or attr_pool:
            self._flag(
                node, "R005",
                "worker pools are the executor engine's job; run sweeps "
                "through ExperimentExecutor (experiments/executor.py)",
            )


def lint_file(path: str, relative: str) -> List[Finding]:
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [Finding(path, error.lineno or 0, "R000", f"syntax: {error}")]
    visitor = _Visitor(relative)
    visitor.visit(tree)
    allowed = _allowed_lines(source)
    return [
        Finding(path, line, rule, message)
        for line, rule, message in sorted(visitor.findings)
        if rule not in allowed.get(line, set())
    ]


def _iter_python_files(root: str) -> Iterable[tuple[str, str]]:
    if os.path.isfile(root):
        yield root, os.path.basename(root)
        return
    for directory, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                yield path, os.path.relpath(path, root).replace(os.sep, "/")


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    findings: List[Finding] = []
    for root in paths:
        for path, relative in _iter_python_files(root):
            findings.extend(lint_file(path, relative))
    return findings


def main(argv: Sequence[str]) -> int:
    targets = list(argv) or [os.path.dirname(os.path.dirname(__file__))]
    findings = lint_paths(targets)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    print("sanitizer lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

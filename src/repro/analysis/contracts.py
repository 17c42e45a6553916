"""Static access-mode contracts: inference, declarations, verification.

The coherence protocols conservatively assume every shared object may be
read *and* written inside every kernel window; Section 4.3 suggests the
escape hatch — "compiler analysis or programmer annotations" that tell
the runtime which objects a kernel actually touches.  This module is
that static half, in three pieces:

* **Inference** — :func:`infer_kernel_contract` parses a kernel's Python
  source (every kernel computes over ``gpu.view(...)`` numpy views of its
  pointer parameters) and classifies each pointer parameter:

  - *proven write*: a store through a subscript of the parameter's view
    (``out[:] = ...``, ``bins[i] += ...``),
  - *proven read*: a load through a subscript of the view,
  - *escape*: the view flows into a helper call or container, where the
    AST loses track — treated as a possible read, and as a possible
    write only when the kernel's ``writes=`` signature says so.

  The per-parameter mode is then ``rw``/``wo``/``ro`` exactly as a
  human would annotate it, erring conservative on escapes.
  :func:`workload_bindings` lifts this to whole workloads by walking
  ``run_gmac``: ``name="..."`` allocation keywords bind variables to
  region names, kernel-call keywords bind region names to kernel
  parameters (through plain aliasing, tuple swaps and ``**self
  ._kernel_args(...)`` expansion), and the per-region join over every
  binding is the workload's inferred contract — including ``none`` for
  regions no kernel ever binds.

* **Declarations** — the :func:`access_modes` class decorator lets a
  workload state its contract (``@access_modes(atoms="ro", grid="wo")``).
  :func:`check_workload` cross-checks declarations against inference and
  returns :class:`~repro.analysis.report.Violation` values with precise
  expected-vs-declared diffs; a declaration the static analysis can
  refute never reaches the runtime.

* **Runtime verification** — :class:`ContractMonitor` re-checks every
  actual launch: when the ``declared`` protocol is active, each bound
  region's declared mode is compared against the launched kernel's
  inferred contract, so a wrong annotation surfaces as a precise
  ``wrong-mode-declaration`` violation instead of silent corruption.

Modes form a lattice ``none < ro, wo < rw``; joins happen when several
kernels (or several bindings) touch one region.  ``wo`` asserts the
kernel overwrites the *whole* object without reading it — the
``declared`` protocol exploits this by skipping the release-time flush
of dirty host blocks; ``none`` asserts no kernel ever touches the
object, so release may leave it entirely alone.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.util.errors import ReproError
from repro.analysis.report import Violation

#: The access-mode vocabulary, weakest to strongest claim about kernels.
MODES = ("none", "ro", "wo", "rw")

#: Methods that return a reshaped/retyped view of the same bytes; a view
#: wrapped in one still aliases its parameter.
_VIEW_WRAPPERS = ("reshape", "view", "astype", "ravel")

#: Rule id shared by static cross-check and runtime monitor findings.
RULE = "wrong-mode-declaration"


def join_modes(a: str, b: str) -> str:
    """The mode lattice join: ``none`` is identity, ``ro``+``wo`` = ``rw``."""
    if a == b:
        return a
    if a == "none":
        return b
    if b == "none":
        return a
    return "rw"


# -- kernel-level inference -------------------------------------------------------


@dataclass(frozen=True)
class KernelContract:
    """Per-kernel-window access modes for one kernel's pointer params.

    ``complete`` is False when the kernel source was unavailable (the
    contract then degrades to the ``writes=`` signature alone and every
    check built on proven reads/writes stays silent).
    """

    kernel: str
    params: Tuple[str, ...]
    modes: Dict[str, str] = field(default_factory=dict)
    proven_reads: FrozenSet[str] = frozenset()
    proven_writes: FrozenSet[str] = frozenset()
    escapes: FrozenSet[str] = frozenset()
    signature_writes: FrozenSet[str] = frozenset()
    complete: bool = True

    @property
    def writes(self) -> FrozenSet[str]:
        """Every parameter the kernel may write (signature or proven)."""
        return self.signature_writes | self.proven_writes

    @property
    def signature_gaps(self) -> FrozenSet[str]:
        """AST-proven writes the ``writes=`` signature fails to declare."""
        return self.proven_writes - self.signature_writes

    def mode_of(self, param: str) -> str:
        return self.modes.get(param, "rw")


def _unwrap_view(node: ast.AST, gpu: str, params: Set[str]) -> Optional[str]:
    """The pointer parameter ``node`` is a device view of, if any.

    Recognizes ``gpu.view(param, ...)`` and the same wrapped in reshaping
    method chains (``gpu.view(p, ...).reshape(...)``).
    """
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == gpu
        and func.attr == "view"
        and node.args
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id in params
    ):
        return node.args[0].id
    # ``view`` doubles as an ndarray method, so the base case above must
    # win before the wrapper-chain recursion sees the same attribute.
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _VIEW_WRAPPERS
    ):
        return _unwrap_view(func.value, gpu, params)
    return None


def _function_def(source: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            return node
    raise ReproError("no function definition found in kernel source")


class _KernelScan(ast.NodeVisitor):
    """Classify every use of a kernel's device views.

    Two aliasing levels are tracked: named aliases (``marking =
    gpu.view(places, ...)``) and direct in-expression views
    (``gpu.view(bins, ...)[:] = ...``).  A ``Name`` that is merely the
    base of a store-subscript is not a data read; everything else a view
    flows into is either a proven subscript access or an escape.
    """

    def __init__(self, gpu: str, params: Set[str]) -> None:
        self.gpu = gpu
        self.params = params
        self.aliases: Dict[str, str] = {}
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        self.escapes: Set[str] = set()
        #: Name/Call nodes already consumed as a subscript base (their
        #: Load context is addressing, not data access).
        self._consumed: Set[int] = set()

    # An expression that denotes a whole device view, or None.
    def _view_of(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        return _unwrap_view(node, self.gpu, self.params)

    def visit_Assign(self, node: ast.Assign) -> None:
        # Alias definition: <name> = gpu.view(<param>, ...)[.reshape(...)]
        param = _unwrap_view(node.value, self.gpu, self.params)
        if param is not None and len(node.targets) == 1 and isinstance(
            node.targets[0], ast.Name
        ):
            self.aliases[node.targets[0].id] = param
            # The view construction itself touches no data: skip the
            # value subtree so Name(param) does not count as an escape.
            return
        for target in node.targets:
            self.visit(target)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # ``view[i] += x`` and ``view += x`` both read and write the
        # parameter (numpy updates an array alias in place).
        target = node.target
        base = target.value if isinstance(target, ast.Subscript) else target
        param = self._view_of(base)
        if param is not None:
            self.reads.add(param)
            self.writes.add(param)
            self._consumed.add(id(base))
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        param = self._view_of(node.value)
        if param is not None:
            self._consumed.add(id(node.value))
            if isinstance(node.ctx, ast.Store):
                self.writes.add(param)
            elif isinstance(node.ctx, ast.Del):
                self.writes.add(param)
            else:
                self.reads.add(param)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if id(node) in self._consumed:
            return
        param = self.aliases.get(node.id)
        if param is not None and isinstance(node.ctx, ast.Load):
            self.escapes.add(param)

    def visit_Call(self, node: ast.Call) -> None:
        # A direct view expression used anywhere but as a subscript base
        # escapes into the call machinery (helper functions, memo lookups).
        param = _unwrap_view(node, self.gpu, self.params)
        if param is not None and id(node) not in self._consumed:
            self.escapes.add(param)
            return
        self.generic_visit(node)


_KERNEL_CONTRACTS: Dict[Any, KernelContract] = {}


def infer_kernel_contract(kernel: Any) -> KernelContract:
    """Static per-parameter access modes for one kernel (memoized)."""
    cached = _KERNEL_CONTRACTS.get(kernel.fn)
    if cached is not None:
        return cached
    signature_writes = frozenset(kernel.writes)
    try:
        source = inspect.getsource(kernel.fn)
        fn_def = _function_def(source)
    except (OSError, TypeError, ReproError, SyntaxError):
        # No source (built-in, exec'd, ...): fall back to the signature.
        contract = KernelContract(
            kernel=kernel.name,
            params=tuple(sorted(signature_writes)),
            modes={name: "rw" for name in signature_writes},
            signature_writes=signature_writes,
            complete=False,
        )
        _KERNEL_CONTRACTS[kernel.fn] = contract
        return contract
    arg_names = [arg.arg for arg in fn_def.args.args]
    gpu = arg_names[0] if arg_names else "gpu"
    candidates = set(arg_names[1:])
    # Pointer parameters are the ones viewed as device memory.
    pointer_params: Set[str] = set()
    for node in ast.walk(fn_def):
        param = _unwrap_view(node, gpu, candidates)
        if param is not None:
            pointer_params.add(param)
    pointer_params |= signature_writes & candidates
    scan = _KernelScan(gpu, pointer_params)
    for statement in fn_def.body:
        scan.visit(statement)
    modes: Dict[str, str] = {}
    for param in sorted(pointer_params):
        written = param in signature_writes or param in scan.writes
        read = param in scan.reads or param in scan.escapes
        if written and read:
            modes[param] = "rw"
        elif written:
            modes[param] = "wo"
        else:
            modes[param] = "ro"
    contract = KernelContract(
        kernel=kernel.name,
        params=tuple(sorted(pointer_params)),
        modes=modes,
        proven_reads=frozenset(scan.reads),
        proven_writes=frozenset(scan.writes),
        escapes=frozenset(scan.escapes),
        signature_writes=signature_writes,
    )
    _KERNEL_CONTRACTS[kernel.fn] = contract
    return contract


# -- workload-level inference -----------------------------------------------------

#: Allocation entry points whose ``name=`` keyword binds a region name.
_ALLOC_ATTRS = ("alloc", "safe_alloc", "adsmAlloc", "adsmSafeAlloc")

#: Kernel-launch entry points on the GMAC object.
_CALL_ATTRS = ("call", "adsmCall")


@dataclass(frozen=True)
class Binding:
    """One static (region, kernel parameter) association."""

    region: str
    kernel: Any
    param: str


def _method_source(func: Any) -> Optional[ast.FunctionDef]:
    try:
        return _function_def(inspect.getsource(func))
    except (OSError, TypeError, ReproError, SyntaxError):
        return None


def _resolve_regions(node: ast.AST, refs: Dict[str, Set[str]]) -> Set[str]:
    """Region names an argument expression may denote (flow-insensitive)."""
    if isinstance(node, ast.Name):
        return set(refs.get(node.id, ()))
    if isinstance(node, ast.BinOp):
        # Pointer arithmetic (ptr + offset) stays within the base region.
        return _resolve_regions(node.left, refs)
    return set()


def _expand_kwargs_helper(
    cls: type, call_value: ast.Call, refs: Dict[str, Set[str]]
) -> Dict[str, Set[str]]:
    """Expand ``**self._kernel_args(...)`` into param -> region names.

    The helper pattern the Parboil ports use: a method whose return is a
    ``dict(...)`` literal mapping kernel parameters to its own formals.
    Call-site arguments are matched to formals positionally; anything
    unresolvable simply contributes no binding (conservative silence).
    """
    func = call_value.func
    if not (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    ):
        return {}
    method = getattr(cls, func.attr, None)
    if method is None:
        return {}
    helper = _method_source(method)
    if helper is None:
        return {}
    formals = [arg.arg for arg in helper.args.args][1:]  # drop self
    formal_regions: Dict[str, Set[str]] = {}
    for formal, outer in zip(formals, call_value.args):
        formal_regions[formal] = _resolve_regions(outer, refs)
    out: Dict[str, Set[str]] = {}
    for node in ast.walk(helper):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        value = node.value
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
                and value.func.id == "dict":
            entries = [(kw.arg, kw.value) for kw in value.keywords if kw.arg]
        elif isinstance(value, ast.Dict):
            entries = [
                (key.value, item)
                for key, item in zip(value.keys, value.values)
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            ]
        else:
            continue
        for param, expr in entries:
            regions = _resolve_regions(expr, formal_regions)
            if regions:
                out.setdefault(param, set()).update(regions)
    return out


def _assign_refs(node: ast.Assign, gmac: str,
                 refs: Dict[str, Set[str]]) -> None:
    """Track region references through allocations, aliasing and swaps."""
    value = node.value
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and isinstance(value.func.value, ast.Name)
        and value.func.value.id == gmac
        and value.func.attr in _ALLOC_ATTRS
    ):
        name = next(
            (
                kw.value.value
                for kw in value.keywords
                if kw.arg == "name" and isinstance(kw.value, ast.Constant)
            ),
            None,
        )
        if name is not None and len(node.targets) == 1 and isinstance(
            node.targets[0], ast.Name
        ):
            refs.setdefault(node.targets[0].id, set()).add(name)
        return
    targets = node.targets[0] if len(node.targets) == 1 else None
    if isinstance(targets, ast.Name):
        sources = _resolve_regions(value, refs)
        if sources:
            refs.setdefault(targets.id, set()).update(sources)
    elif isinstance(targets, ast.Tuple) and isinstance(value, ast.Tuple):
        # ``current, scratch = scratch, current``: elementwise, unioned
        # flow-insensitively, so ping-pong swaps bind both regions.
        for target, source in zip(targets.elts, value.elts):
            if isinstance(target, ast.Name):
                regions = _resolve_regions(source, refs)
                if regions:
                    refs.setdefault(target.id, set()).update(regions)


def workload_bindings(
    workload_cls: type,
) -> Tuple[Dict[str, Set[str]], List[Binding]]:
    """Static walk of ``run_gmac``: region names and kernel bindings.

    Returns ``(alloc_names, bindings)`` where ``alloc_names`` maps each
    statically-named region to the variables referencing it (inverted for
    convenience of the none-mode check) and ``bindings`` lists every
    (region, kernel, parameter) association any launch may create.
    """
    func = inspect.unwrap(workload_cls.run_gmac)
    fn_def = _method_source(func)
    if fn_def is None:
        return {}, []
    params = [arg.arg for arg in fn_def.args.args]
    gmac = params[2] if len(params) > 2 else "gmac"
    module_globals = getattr(func, "__globals__", {})
    refs: Dict[str, Set[str]] = {}
    alloc_names: Dict[str, Set[str]] = {}
    bindings: List[Binding] = []
    for node in ast.walk(fn_def):
        if isinstance(node, ast.Assign):
            _assign_refs(node, gmac, refs)
    for var, regions in refs.items():
        for region in regions:
            alloc_names.setdefault(region, set()).add(var)
    for node in ast.walk(fn_def):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == gmac
            and node.func.attr in _CALL_ATTRS
            and node.args
        ):
            continue
        kernel_expr = node.args[0]
        kernel = (
            module_globals.get(kernel_expr.id)
            if isinstance(kernel_expr, ast.Name) else None
        )
        if kernel is None:
            continue
        for keyword in node.keywords:
            if keyword.arg == "writes":
                continue
            if keyword.arg is None:
                if isinstance(keyword.value, ast.Call):
                    expanded = _expand_kwargs_helper(
                        workload_cls, keyword.value, refs
                    )
                    for param, regions in expanded.items():
                        for region in sorted(regions):
                            bindings.append(Binding(region, kernel, param))
                continue
            for region in sorted(_resolve_regions(keyword.value, refs)):
                bindings.append(Binding(region, kernel, keyword.arg))
    return alloc_names, bindings


def infer_workload_contract(workload_cls: type) -> Dict[str, str]:
    """Region name -> inferred mode, joined over every static binding.

    Regions allocated but never bound to a kernel parameter infer
    ``none`` — the strongest (and riskiest) claim, which is why it is
    only ever *suggested* here and enforced both statically and at
    runtime when declared.
    """
    alloc_names, bindings = workload_bindings(workload_cls)
    contract: Dict[str, str] = {name: "none" for name in alloc_names}
    for binding in bindings:
        mode = infer_kernel_contract(binding.kernel).mode_of(binding.param)
        contract[binding.region] = join_modes(
            contract.get(binding.region, "none"), mode
        )
    return contract


# -- declarations and the cross-check ---------------------------------------------


def access_modes(**modes: str) -> Any:
    """Class decorator declaring a workload's per-region access modes.

    Keys are region names as passed to ``gmac.alloc(..., name=...)``
    (hyphenated names use the ``**{"k-coords": "ro"}`` spelling); values
    are one of ``ro``/``wo``/``rw``/``none``.  Undeclared regions default
    to ``rw`` (always sound).  Declarations are verified statically by
    :func:`check_workload` and at every launch by
    :class:`ContractMonitor` whenever the ``declared`` protocol runs.
    """
    for name, mode in modes.items():
        if mode not in MODES:
            raise ReproError(
                f"access mode for {name!r} must be one of {MODES}, "
                f"got {mode!r}"
            )

    def apply(cls: type) -> type:
        cls.declared_modes = dict(modes)
        return cls

    return apply


def check_workload(workload_cls: type) -> List[Violation]:
    """Cross-check a workload's declarations against static inference.

    Only *refutable* declarations are flagged: declaring ``rw`` where
    ``ro`` would do is sound (just conservative), but declaring ``ro`` or
    ``none`` on an object some kernel writes — or ``wo`` on one a kernel
    provably reads — would corrupt data, and yields a precise
    expected-vs-declared diff.
    """
    declared = getattr(workload_cls, "declared_modes", None) or {}
    violations: List[Violation] = []
    alloc_names, bindings = workload_bindings(workload_cls)
    inferred = infer_workload_contract(workload_cls)
    by_region: Dict[str, List[Binding]] = {}
    for binding in bindings:
        by_region.setdefault(binding.region, []).append(binding)

    def flag(region: str, message: str) -> None:
        violations.append(
            Violation("contracts", RULE, 0.0, message, region=region)
        )

    for region, mode in sorted(declared.items()):
        expected = inferred.get(region)
        if region not in alloc_names:
            flag(
                region,
                f"declared {mode!r} but no allocation in "
                f"{workload_cls.__name__}.run_gmac names a region "
                f"{region!r}",
            )
            continue
        bound = by_region.get(region, [])
        if mode == "none" and bound:
            binding = bound[0]
            flag(
                region,
                f"declared 'none' but kernel {binding.kernel.name!r} binds "
                f"it to parameter {binding.param!r} (expected "
                f"{expected!r})",
            )
            continue
        for binding in bound:
            contract = infer_kernel_contract(binding.kernel)
            if mode in ("ro", "none") and binding.param in contract.writes:
                flag(
                    region,
                    f"declared {mode!r} but kernel {binding.kernel.name!r} "
                    f"writes parameter {binding.param!r} (expected "
                    f"{expected!r}): stale host copies would survive the "
                    "kernel",
                )
                break
            if mode == "wo" and binding.param in contract.proven_reads:
                flag(
                    region,
                    f"declared 'wo' but kernel {binding.kernel.name!r} "
                    f"provably reads parameter {binding.param!r} (expected "
                    f"{expected!r}): skipping the release flush would feed "
                    "the kernel stale device bytes",
                )
                break
        for binding in bound:
            gaps = infer_kernel_contract(binding.kernel).signature_gaps
            if binding.param in gaps:
                violations.append(Violation(
                    "contracts", "kernel-signature-gap", 0.0,
                    f"kernel {binding.kernel.name!r} provably writes "
                    f"parameter {binding.param!r} but its writes= signature "
                    "omits it",
                    region=region,
                ))
    return violations


# -- runtime verification ---------------------------------------------------------


class ContractMonitor:
    """Launch-time declaration checking for the ``declared`` protocol.

    Armed by the sanitizer whenever the active protocol carries declared
    modes.  At each launch the *actual* parameter-to-region bindings are
    compared against the launched kernel's inferred contract — this
    closes the gap static workload analysis cannot see (dynamically
    chosen kernels, pointer arithmetic, bindings built at runtime).
    """

    def __init__(self, modes: Dict[str, str], clock: Any) -> None:
        self.modes = dict(modes)
        self.clock = clock
        self.violations: List[Violation] = []
        self.launches_checked = 0
        self._seen: Set[Tuple[str, str, str]] = set()

    def on_launch(self, kernel: Any, bindings: Dict[str, Any]) -> None:
        """Check one launch; ``bindings`` maps param name -> region."""
        self.launches_checked += 1
        contract = infer_kernel_contract(kernel)
        for param, region in bindings.items():
            if region is None:
                continue
            declared = self.modes.get(region.name, "rw")
            if declared == "rw":
                continue
            key = (kernel.name, param, region.name)
            if key in self._seen:
                continue
            problem = None
            if declared == "none":
                problem = (
                    f"declared 'none' but launched kernel {kernel.name!r} "
                    f"binds it to parameter {param!r}"
                )
            elif declared == "ro" and param in contract.writes:
                problem = (
                    f"declared 'ro' but launched kernel {kernel.name!r} "
                    f"writes parameter {param!r}: the protocol kept a host "
                    "copy the kernel is about to invalidate"
                )
            elif declared == "wo" and param in contract.proven_reads:
                problem = (
                    f"declared 'wo' but launched kernel {kernel.name!r} "
                    f"provably reads parameter {param!r}: the skipped "
                    "release flush starves the kernel of host writes"
                )
            if problem is not None:
                self._seen.add(key)
                self.violations.append(Violation(
                    "contracts", RULE, self.clock.now, problem,
                    region=region.name,
                ))

    def stats(self) -> Dict[str, int]:
        return {
            "launches_checked": self.launches_checked,
            "violations": len(self.violations),
        }

"""Per-module extraction of parallel/columnar safety facts.

The flow layer's call graph answers *who calls whom*; this scan
answers *what each function does that a pool must care about*: writes
to shared state, undisciplined randomness, in-place mutation of
caller-owned arrays, order-sensitive float accumulation, equivalence
tier declarations, and the dispatch sites that hand workers to a pool
(:mod:`repro.runtime.workers`). Nothing is imported or executed;
facts are attached to the same ``module:func`` /
``module:Class.method`` qualnames the call graph uses so the analysis
layer can carry them along call edges.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field

from repro.columnar.tiers import EQUIVALENCE_TIERS
from repro.lint.flow.callgraph import _MUTATOR_METHODS, _ModuleScan
from repro.lint.flow.reach import Fact
from repro.lint.pycheck import _NUMPY_RANDOM_SAFE, _dotted_name
from repro.runtime.workers import WorkerDispatch, dispatch_for

#: Constructors that start a random stream (seed analysis applies).
_RNG_CONSTRUCTORS = {"default_rng", "Random", "RandomState", "Generator",
                     "PCG64", "Philox", "SeedSequence"}

#: Callables whose presence in a seed expression marks it as derived.
_SEED_DERIVERS = {"derive_seed", "batch_stream", "spawn"}

#: Method names that draw from (i.e. advance) a random stream.
_RNG_DRAW_METHODS = {
    "normal", "standard_normal", "uniform", "random", "integers",
    "choice", "shuffle", "permutation", "poisson", "exponential",
    "binomial", "gauss", "randint", "rand", "randn", "random_sample",
}

#: Array methods returning views into the receiver's buffer.
_VIEW_METHODS = {"reshape", "ravel", "view", "transpose", "swapaxes",
                 "squeeze", "diagonal"}

#: numpy-level functions returning views (or no-copy passthroughs).
_VIEW_FUNCTIONS = {"asarray", "ravel", "transpose", "atleast_1d",
                   "squeeze", "broadcast_to"}

#: Methods where writes to ``self`` are construction, not mutation.
_CONSTRUCTOR_METHODS = {"__init__", "__post_init__", "__new__",
                        "__setstate__", "__init_subclass__"}


class ParFactKind(enum.Enum):
    """The hazard families the par pass knows about."""

    GLOBAL_WRITE = "global-write"
    STATE_MUTATION = "state-mutation"
    SELF_WRITE = "self-write"
    SHARED_RNG = "shared-rng"
    UNDERIVED_SEED = "underived-seed"
    INPLACE_PARAM = "inplace-param"
    RETURNS_VIEW = "returns-view"
    ARG_ATTR_WRITE = "arg-attr-write"
    RNG_DRAW = "rng-draw"
    ORDER_SENSITIVE = "order-sensitive"


@dataclass(frozen=True)
class TierDecl:
    """One valid ``@equivalence_tier(...)`` declaration."""

    qualname: str
    tier: str
    line: int


@dataclass(frozen=True)
class DispatchSite:
    """One call handing a worker callable to a registered pool."""

    module: str
    dispatcher: str
    line: int
    caller: str  # qualname of the enclosing function (or pseudo-node)
    worker: ast.expr
    class_name: str | None
    nested_names: frozenset[str]
    #: Simple local bindings of the enclosing scope (``name = expr``),
    #: so ``worker = partial(f, ...); parallel_map(worker, ...)``
    #: resolves through the intermediate name.
    bindings: dict = field(default_factory=dict)


@dataclass
class ModuleParScan:
    """Everything the par pass extracted from one module."""

    module: str
    facts: dict[str, tuple[Fact, ...]] = field(default_factory=dict)
    tiers: dict[str, TierDecl] = field(default_factory=dict)
    #: Invalid declarations: (qualname, line, problem).
    tier_errors: tuple[tuple[str, int, str], ...] = ()
    sites: tuple[DispatchSite, ...] = ()


def _root_name(expr: ast.expr) -> str | None:
    """The base ``Name`` an attribute/subscript chain hangs off."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _own_params(funcdef) -> list[str]:
    args = funcdef.args
    names = [p.arg for p in (*args.posonlyargs, *args.args,
                             *args.kwonlyargs)]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def _walk_with_loops(node: ast.AST, in_loop: bool = False):
    """``ast.walk`` that remembers whether a node repeats in a loop."""
    yield node, in_loop
    inside = in_loop or isinstance(node, (ast.For, ast.AsyncFor,
                                          ast.While))
    for child in ast.iter_child_nodes(node):
        yield from _walk_with_loops(child, inside)


def _has_slice(subscript: ast.Subscript) -> bool:
    index = subscript.slice
    if isinstance(index, ast.Slice):
        return True
    return (isinstance(index, ast.Tuple)
            and any(isinstance(e, ast.Slice) for e in index.elts))


def _seed_is_derived(call: ast.Call, params: set[str]) -> bool:
    """Does any seed argument trace back to a derived stream?

    A seed expression counts as derived when it contains a call to a
    ``derive_seed``-family helper, a reference to one of the
    function's own parameters (the seed flows in from the dispatcher),
    or an attribute read (configuration/state the caller owns).
    """
    exprs = list(call.args) + [kw.value for kw in call.keywords]
    for expr in exprs:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                dotted = _dotted_name(sub.func)
                if (dotted is not None and
                        dotted.rpartition(".")[2] in _SEED_DERIVERS):
                    return True
            elif isinstance(sub, ast.Name) and sub.id in params:
                return True
            elif isinstance(sub, ast.Attribute):
                return True
    return False


class _FunctionFacts:
    """Direct-hazard extraction over one function definition."""

    def __init__(self, scan: _ModuleScan, funcdef,
                 class_name: str | None) -> None:
        self.scan = scan
        self.funcdef = funcdef
        self.class_name = class_name
        self.constructing = (class_name is not None
                            and funcdef.name in _CONSTRUCTOR_METHODS)
        # Parameters of the function *and* of its nested defs/lambdas:
        # a nested helper mutating its own parameter almost always
        # received the enclosing function's array.
        params = set(_own_params(funcdef))
        for sub in ast.walk(funcdef):
            if sub is not funcdef and isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.Lambda)):
                params.update(_own_params(sub))
        params.discard("self")
        params.discard("cls")
        self.params = params
        self.globals_: set[str] = {
            name for node in ast.walk(funcdef)
            if isinstance(node, ast.Global) for name in node.names}
        self.facts: list[Fact] = []

    def _add(self, kind: ParFactKind, description: str,
             line: int) -> None:
        self.facts.append(Fact(kind=kind, description=description,
                               line=line))

    def run(self) -> tuple[Fact, ...]:
        for node, in_loop in _walk_with_loops(self.funcdef):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                self._scan_store(node, in_loop)
            elif isinstance(node, ast.Call):
                self._scan_call(node, in_loop)
            elif isinstance(node, ast.Return):
                self._scan_return(node)
        return tuple(sorted(
            set(self.facts),
            key=lambda f: (f.line, f.kind.value, f.description)))

    # -- stores --------------------------------------------------------

    def _scan_store(self, node, in_loop: bool) -> None:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        augmented = isinstance(node, ast.AugAssign)
        if (augmented and isinstance(node.op, (ast.Add, ast.Sub))
                and in_loop):
            self._add(ParFactKind.ORDER_SENSITIVE,
                      "a loop-carried float accumulation "
                      "(chunking-dependent reduction order)",
                      node.lineno)
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id in self.globals_:
                    self._add(ParFactKind.GLOBAL_WRITE,
                              f"a write to module-level name "
                              f"{target.id!r}", node.lineno)
                elif augmented and target.id in self.params:
                    self._add(ParFactKind.INPLACE_PARAM,
                              f"an augmented assignment to parameter "
                              f"{target.id!r}", node.lineno)
            elif isinstance(target, ast.Subscript):
                root = _root_name(target.value)
                if root == "self" and not self.constructing:
                    if self.class_name is not None:
                        self._add(ParFactKind.SELF_WRITE,
                                  "an item write into instance state "
                                  f"of {self.class_name!r}",
                                  node.lineno)
                elif root in self.params:
                    self._add(ParFactKind.INPLACE_PARAM,
                              f"an item/slice assignment into "
                              f"parameter {root!r}", node.lineno)
                elif root in self.scan.mutable_names:
                    self._add(ParFactKind.STATE_MUTATION,
                              f"an item write into module-level "
                              f"container {root!r}", node.lineno)
            elif isinstance(target, ast.Attribute):
                root = _root_name(target.value)
                if root == "self" and not self.constructing:
                    if self.class_name is not None:
                        self._add(ParFactKind.SELF_WRITE,
                                  f"a write to instance attribute "
                                  f"self.{target.attr}", node.lineno)
                elif root in self.params:
                    self._add(ParFactKind.ARG_ATTR_WRITE,
                              f"a write to attribute "
                              f"{root}.{target.attr} of a parameter",
                              node.lineno)

    # -- calls ---------------------------------------------------------

    def _scan_call(self, node: ast.Call, in_loop: bool) -> None:
        dotted = _dotted_name(node.func)
        resolved = (self.scan.imports.resolve(dotted)
                    if dotted is not None else None)
        if isinstance(node.func, ast.Attribute):
            self._scan_method_call(node)
        if resolved is not None:
            self._scan_rng(node, resolved)
        if (isinstance(node.func, ast.Name) and node.func.id == "sum"
                and self.scan.imports.alias_target("sum") is None):
            self._add(ParFactKind.ORDER_SENSITIVE,
                      "a builtin sum() reduction (use math.fsum or a "
                      "whole-array reduction for a fixed order)",
                      node.lineno)
        for keyword in node.keywords:
            if keyword.arg == "out":
                root = _root_name(keyword.value)
                if root in self.params:
                    self._add(ParFactKind.INPLACE_PARAM,
                              f"an out={root} aimed at a parameter",
                              node.lineno)

    def _scan_method_call(self, node: ast.Call) -> None:
        method = node.func.attr
        root = _root_name(node.func.value)
        if method in _MUTATOR_METHODS:
            if root == "self" and not self.constructing:
                if self.class_name is not None:
                    self._add(ParFactKind.SELF_WRITE,
                              f"a mutating .{method}() call on "
                              f"instance state", node.lineno)
            elif root in self.params:
                self._add(ParFactKind.INPLACE_PARAM,
                          f"a mutating .{method}() call on parameter "
                          f"{root!r}", node.lineno)
            elif (isinstance(node.func.value, ast.Name)
                  and root in self.scan.mutable_names):
                self._add(ParFactKind.STATE_MUTATION,
                          f"a mutating {root}.{method}() call on a "
                          f"module-level container", node.lineno)
        if method in _RNG_DRAW_METHODS and root is not None:
            self._add(ParFactKind.RNG_DRAW,
                      f"a random draw via .{method}()", node.lineno)

    def _scan_rng(self, node: ast.Call, resolved: str) -> None:
        base = resolved.rpartition(".")[2]
        if resolved == "random.Random" or (
                resolved.startswith("numpy.random.")
                and (base in _RNG_CONSTRUCTORS
                     or base in _NUMPY_RANDOM_SAFE)):
            if not node.args and not node.keywords:
                self._add(ParFactKind.UNDERIVED_SEED,
                          f"an RNG constructed without a seed "
                          f"({resolved}())", node.lineno)
            elif not _seed_is_derived(node, self.params):
                self._add(ParFactKind.UNDERIVED_SEED,
                          f"an RNG seeded from a constant, not a "
                          f"derive_seed(...)-derived argument "
                          f"({resolved}(...))", node.lineno)
            return
        if resolved.startswith("random."):
            self._add(ParFactKind.SHARED_RNG,
                      f"a draw from the process-global stream "
                      f"{resolved}()", node.lineno)
        elif (resolved.startswith("numpy.random.")
              and base != "default_rng"):
            self._add(ParFactKind.SHARED_RNG,
                      f"a draw from the legacy global stream "
                      f"{resolved}()", node.lineno)

    # -- returns -------------------------------------------------------

    def _scan_return(self, node: ast.Return) -> None:
        value = node.value
        if value is None:
            return
        if (isinstance(value, ast.Attribute) and value.attr == "T"
                and _root_name(value.value) in self.params):
            self._add(ParFactKind.RETURNS_VIEW,
                      "a .T transpose view of a parameter returned",
                      node.lineno)
        elif (isinstance(value, ast.Subscript) and _has_slice(value)
              and _root_name(value.value) in self.params):
            self._add(ParFactKind.RETURNS_VIEW,
                      f"a slice view of parameter "
                      f"{_root_name(value.value)!r} returned",
                      node.lineno)
        elif isinstance(value, ast.Call):
            dotted = _dotted_name(value.func)
            if (isinstance(value.func, ast.Attribute)
                    and value.func.attr in _VIEW_METHODS
                    and _root_name(value.func.value) in self.params):
                self._add(ParFactKind.RETURNS_VIEW,
                          f"a .{value.func.attr}() view of a "
                          f"parameter returned", node.lineno)
            elif (dotted is not None
                  and dotted.rpartition(".")[2] in _VIEW_FUNCTIONS
                  and len(value.args) >= 1
                  and isinstance(value.args[0], ast.Name)
                  and value.args[0].id in self.params):
                self._add(ParFactKind.RETURNS_VIEW,
                          f"a no-copy {dotted}() passthrough of a "
                          f"parameter returned", node.lineno)


def _tier_of(funcdef) -> tuple[str | None, int | None, str | None]:
    """(tier, decorator line, problem) of a tier-decorated function."""
    for decorator in funcdef.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        dotted = _dotted_name(decorator.func)
        if dotted is None or (dotted.rpartition(".")[2]
                              != "equivalence_tier"):
            continue
        if (decorator.args
                and isinstance(decorator.args[0], ast.Constant)
                and isinstance(decorator.args[0].value, str)):
            tier = decorator.args[0].value
            if tier in EQUIVALENCE_TIERS:
                return tier, decorator.lineno, None
            return None, decorator.lineno, (
                f"unknown tier {tier!r} (expected one of "
                f"{', '.join(EQUIVALENCE_TIERS)})")
        return None, decorator.lineno, (
            "tier is not a string constant; a computed tier declares "
            "nothing checkable")
    return None, None, None


class _SiteCollector:
    """Dispatch-site extraction inside one function (or module) body."""

    def __init__(self, module: str, caller: str,
                 class_name: str | None, body) -> None:
        self.module = module
        self.caller = caller
        self.class_name = class_name
        self.body = body
        self.nested = frozenset(
            sub.name for stmt in body for sub in ast.walk(stmt)
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)))
        # Last simple ``name = expr`` binding per local name: worker
        # callables are routinely built a line above the dispatch call.
        self.bindings: dict[str, ast.expr] = {}
        for stmt in body:
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Assign)
                        and len(sub.targets) == 1
                        and isinstance(sub.targets[0], ast.Name)):
                    self.bindings[sub.targets[0].id] = sub.value

    def collect(self) -> list[DispatchSite]:
        sites: list[DispatchSite] = []
        for stmt in self.body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                dotted = _dotted_name(node.func)
                if dotted is None:
                    continue
                dispatch = dispatch_for(dotted)
                if dispatch is None:
                    continue
                worker = _worker_argument(node, dispatch)
                if worker is None:
                    continue
                sites.append(DispatchSite(
                    module=self.module, dispatcher=dispatch.name,
                    line=node.lineno, caller=self.caller,
                    worker=worker, class_name=self.class_name,
                    nested_names=self.nested,
                    bindings=self.bindings))
        return sites


def _worker_argument(call: ast.Call,
                     dispatch: WorkerDispatch) -> ast.expr | None:
    """The expression travelling in the dispatcher's worker slot."""
    if len(call.args) > dispatch.arg_position:
        return call.args[dispatch.arg_position]
    for keyword in call.keywords:
        if keyword.arg == dispatch.keyword:
            return keyword.value
    return None


def scan_par_module(module: str, scan: _ModuleScan) -> ModuleParScan:
    """Extract every par-relevant fact from one scanned module."""
    result = ModuleParScan(module=module)
    tier_errors: list[tuple[str, int, str]] = []
    sites: list[DispatchSite] = []

    def scan_function(qualname: str, funcdef,
                      class_name: str | None) -> None:
        facts = _FunctionFacts(scan, funcdef, class_name).run()
        if facts:
            result.facts[qualname] = facts
        tier, line, problem = _tier_of(funcdef)
        if problem is not None:
            tier_errors.append((qualname, line, problem))
        elif tier is not None:
            result.tiers[qualname] = TierDecl(
                qualname=qualname, tier=tier, line=funcdef.lineno)
        sites.extend(_SiteCollector(module, qualname, class_name,
                                    funcdef.body).collect())

    for name, funcdef in sorted(scan.function_defs.items()):
        scan_function(f"{module}:{name}", funcdef, None)
    for class_name, klass in sorted(scan.class_defs.items()):
        for stmt in klass.body:
            if isinstance(stmt, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                scan_function(f"{module}:{class_name}.{stmt.name}",
                              stmt, class_name)
    module_body = [stmt for stmt in scan.tree.body
                   if not isinstance(stmt, (ast.FunctionDef,
                                            ast.AsyncFunctionDef,
                                            ast.ClassDef))]
    sites.extend(_SiteCollector(module, f"{module}:<module>", None,
                                module_body).collect())
    result.tier_errors = tuple(sorted(tier_errors))
    result.sites = tuple(sorted(
        sites, key=lambda s: (s.line, s.dispatcher, s.caller)))
    return result

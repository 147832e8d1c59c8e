"""Per-module extraction of determinism facts and root declarations.

The flow layer's call graph answers *who calls whom*; this scan
answers *what each function does that replayed serialization must
care about*: non-canonical JSON encoding, iteration over unordered
collections, filesystem enumeration, ambient-state reads (clocks,
identities, environment), drifting float formats, undisciplined
randomness, and locale-dependent rendering. Nothing is imported or
executed; facts are attached to the same ``module:func`` /
``module:Class.method`` qualnames the call graph uses so the analysis
layer can carry them along call edges.

``@replay_root`` declarations are collected here too — recognised by
dotted-name suffix, so a tree only ever *parsed* by the linter still
declares its roots.
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass, field

from repro.lint.flow.callgraph import _ModuleScan
from repro.lint.flow.reach import Fact
from repro.lint.par.scan import (
    _RNG_CONSTRUCTORS,
    _root_name,
    _seed_is_derived,
)
from repro.lint.pycheck import (
    _NUMPY_RANDOM_SAFE,
    _WALLCLOCK_CALLS,
    _dotted_name,
)

#: Builtins that consume an unordered source and emit an order-free
#: (or deterministically ordered) result: iterating through them is
#: fine, and a filesystem listing passed straight in is fine too.
_SANITIZERS = {"sorted", "len", "min", "max", "sum", "any", "all",
               "frozenset", "set"}

#: Module-level filesystem enumerations (resolved dotted names).
_FS_ENUM_CALLS = {"os.listdir", "os.scandir", "glob.glob",
                  "glob.iglob"}

#: Path-object methods enumerating a directory.
_FS_ENUM_METHODS = {"iterdir", "glob", "rglob", "scandir"}

#: Dict-view accessors whose iteration order is insertion order.
_DICT_VIEW_METHODS = {"keys", "values", "items"}

#: A format spec that pins float rendering to libc-style rounding.
_FLOAT_SPEC_RE = re.compile(r"[eEfFgG%]$")

#: A %-format template containing a float conversion.
_FLOAT_PERCENT_RE = re.compile(r"%[-+ #0]*[\d.]*[eEfFgG]")


class DetFactKind(enum.Enum):
    """The instability families the det pass knows about."""

    NONCANONICAL_JSON = "noncanonical-json"
    SET_ITERATION = "set-iteration"
    DICT_VIEW_ITERATION = "dict-view-iteration"
    UNSORTED_FS = "unsorted-fs"
    WALL_CLOCK = "wall-clock"
    HASH_IDENTITY = "hash-identity"
    ENV_READ = "env-read"
    FLOAT_FORMAT = "float-format"
    UNDERIVED_RNG = "underived-rng"
    LOCALE_STRING = "locale-string"
    DICT_FROM_UNORDERED = "dict-from-unordered"


@dataclass(frozen=True)
class RootDecl:
    """One valid ``@replay_root(...)`` declaration."""

    qualname: str
    label: str
    line: int


@dataclass
class ModuleDetScan:
    """Everything the det pass extracted from one module."""

    module: str
    facts: dict[str, tuple[Fact, ...]] = field(default_factory=dict)
    roots: dict[str, RootDecl] = field(default_factory=dict)
    #: Invalid declarations: (qualname, line, problem).
    root_errors: tuple[tuple[str, int, str], ...] = ()


def _is_setish(expr: ast.expr, bindings: dict,
               seen: frozenset = frozenset()) -> bool:
    """Is this expression (statically) a set?"""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id in {"set", "frozenset"}:
            return True
    if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # Set algebra: either operand being a set makes the result one.
        return (_is_setish(expr.left, bindings, seen)
                or _is_setish(expr.right, bindings, seen))
    if isinstance(expr, ast.Name) and expr.id not in seen:
        bound = bindings.get(expr.id)
        if bound is not None and not isinstance(bound, ast.Name):
            return _is_setish(bound, bindings, seen | {expr.id})
    return False


def _is_dict_view(expr: ast.expr) -> bool:
    """Is this expression a ``.keys()/.values()/.items()`` view?"""
    return (isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _DICT_VIEW_METHODS
            and not expr.args and not expr.keywords)


def _is_sorted_call(expr: ast.expr) -> bool:
    return (isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in {"sorted", "reversed"})


class _DetFunctionFacts:
    """Direct-instability extraction over one function definition."""

    def __init__(self, scan: _ModuleScan, funcdef) -> None:
        self.scan = scan
        self.funcdef = funcdef
        params = set()
        args = funcdef.args
        for p in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            params.add(p.arg)
        params.discard("self")
        params.discard("cls")
        self.params = params
        # Last simple ``name = expr`` binding per local name, so
        # ``tags = {...}; for t in tags:`` is still seen as a set.
        self.bindings: dict[str, ast.expr] = {}
        # Expressions consumed by a sanitizer: ``sorted(p.iterdir())``
        # is a deterministic enumeration, not a hazard.
        self.sanitized: set[int] = set()
        for node in ast.walk(funcdef):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                self.bindings[node.targets[0].id] = node.value
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _SANITIZERS):
                for arg in node.args:
                    self.sanitized.add(id(arg))
        self.facts: list[Fact] = []

    def _add(self, kind: DetFactKind, description: str,
             line: int) -> None:
        self.facts.append(Fact(kind=kind, description=description,
                               line=line))

    def run(self) -> tuple[Fact, ...]:
        for node in ast.walk(self.funcdef):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                self._scan_iteration(node.iter, node.lineno,
                                     dict_target=False)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                for generator in node.generators:
                    self._scan_iteration(
                        generator.iter, node.lineno,
                        dict_target=isinstance(node, ast.DictComp))
            elif isinstance(node, ast.Call):
                self._scan_call(node)
            elif isinstance(node, ast.Attribute):
                self._scan_attribute(node)
            elif isinstance(node, ast.FormattedValue):
                self._scan_format_spec(node)
            elif isinstance(node, ast.BinOp):
                self._scan_percent_format(node)
        return tuple(sorted(
            set(self.facts),
            key=lambda f: (f.line, f.kind.value, f.description)))

    # -- iteration sites -----------------------------------------------

    def _scan_iteration(self, source: ast.expr, line: int,
                        dict_target: bool) -> None:
        if _is_sorted_call(source):
            return
        if _is_setish(source, self.bindings):
            if dict_target:
                self._add(DetFactKind.DICT_FROM_UNORDERED,
                          "a dict comprehension over a set (insertion "
                          "order bakes in set order)", line)
            else:
                self._add(DetFactKind.SET_ITERATION,
                          "iteration over a set (hash-seed-dependent "
                          "order)", line)
        elif _is_dict_view(source):
            method = source.func.attr
            self._add(DetFactKind.DICT_VIEW_ITERATION,
                      f"unsorted iteration over a .{method}() dict "
                      f"view", line)

    # -- calls ---------------------------------------------------------

    def _scan_call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        resolved = (self.scan.imports.resolve(dotted)
                    if dotted is not None else None)
        if resolved in {"json.dumps", "json.dump"}:
            self._scan_json(node, resolved)
        if resolved is not None:
            if resolved in _WALLCLOCK_CALLS:
                self._add(DetFactKind.WALL_CLOCK,
                          f"a wall-clock read ({resolved}())",
                          node.lineno)
            elif resolved in _FS_ENUM_CALLS:
                if id(node) not in self.sanitized:
                    self._add(DetFactKind.UNSORTED_FS,
                              f"an unsorted filesystem enumeration "
                              f"({resolved}())", node.lineno)
            elif resolved == "os.getenv":
                self._add(DetFactKind.ENV_READ,
                          "an environment read (os.getenv())",
                          node.lineno)
            elif resolved.startswith("locale."):
                self._add(DetFactKind.LOCALE_STRING,
                          f"a locale-dependent operation "
                          f"({resolved}())", node.lineno)
            else:
                self._scan_rng(node, resolved)
        if isinstance(node.func, ast.Attribute):
            self._scan_method_call(node)
        if (isinstance(node.func, ast.Name)
                and node.func.id in {"id", "hash"}
                and self.scan.imports.alias_target(node.func.id)
                is None):
            self._add(DetFactKind.HASH_IDENTITY,
                      f"a per-process {node.func.id}() value",
                      node.lineno)
        for keyword in node.keywords:
            if (keyword.arg == "key"
                    and isinstance(keyword.value, ast.Name)
                    and keyword.value.id in {"id", "hash"}):
                self._add(DetFactKind.HASH_IDENTITY,
                          f"an ordering keyed on "
                          f"{keyword.value.id}()", node.lineno)

    def _scan_json(self, node: ast.Call, resolved: str) -> None:
        for keyword in node.keywords:
            if keyword.arg == "sort_keys":
                value = keyword.value
                if (isinstance(value, ast.Constant)
                        and value.value is True):
                    return
                self._add(DetFactKind.NONCANONICAL_JSON,
                          f"a {resolved}() whose sort_keys is not the "
                          f"constant True", node.lineno)
                return
        self._add(DetFactKind.NONCANONICAL_JSON,
                  f"a {resolved}() without sort_keys=True "
                  f"(insertion-ordered keys)", node.lineno)

    def _scan_method_call(self, node: ast.Call) -> None:
        method = node.func.attr
        dotted = _dotted_name(node.func)
        resolved = (self.scan.imports.resolve(dotted)
                    if dotted is not None else None)
        if (method in _FS_ENUM_METHODS
                and resolved not in _FS_ENUM_CALLS
                and id(node) not in self.sanitized):
            root = _root_name(node.func.value)
            receiver = f"{root}." if root is not None else ""
            self._add(DetFactKind.UNSORTED_FS,
                      f"an unsorted filesystem enumeration "
                      f"({receiver}{method}())", node.lineno)
        elif method == "strftime":
            self._add(DetFactKind.LOCALE_STRING,
                      "a strftime() rendering (locale-dependent "
                      "names)", node.lineno)

    def _scan_rng(self, node: ast.Call, resolved: str) -> None:
        base = resolved.rpartition(".")[2]
        if resolved == "random.Random" or (
                resolved.startswith("numpy.random.")
                and (base in _RNG_CONSTRUCTORS
                     or base in _NUMPY_RANDOM_SAFE)):
            if not node.args and not node.keywords:
                self._add(DetFactKind.UNDERIVED_RNG,
                          f"an RNG constructed without a seed "
                          f"({resolved}())", node.lineno)
            elif not _seed_is_derived(node, self.params):
                self._add(DetFactKind.UNDERIVED_RNG,
                          f"an RNG seeded from a constant "
                          f"({resolved}(...))", node.lineno)
            return
        if resolved.startswith("random."):
            self._add(DetFactKind.UNDERIVED_RNG,
                      f"a draw from the process-global stream "
                      f"({resolved}())", node.lineno)
        elif (resolved.startswith("numpy.random.")
              and base != "default_rng"):
            self._add(DetFactKind.UNDERIVED_RNG,
                      f"a draw from the legacy global stream "
                      f"({resolved}())", node.lineno)

    # -- ambient attribute reads ---------------------------------------

    def _scan_attribute(self, node: ast.Attribute) -> None:
        dotted = _dotted_name(node)
        if dotted is None:
            return
        if self.scan.imports.resolve(dotted) in {"os.environ",
                                                 "os.environb"}:
            self._add(DetFactKind.ENV_READ,
                      "an environment read (os.environ)", node.lineno)

    # -- formatting ----------------------------------------------------

    def _scan_format_spec(self, node: ast.FormattedValue) -> None:
        spec = node.format_spec
        if not isinstance(spec, ast.JoinedStr):
            return
        text = "".join(part.value for part in spec.values
                       if isinstance(part, ast.Constant))
        if _FLOAT_SPEC_RE.search(text):
            self._add(DetFactKind.FLOAT_FORMAT,
                      f"a fixed float format (:{text})", node.lineno)

    def _scan_percent_format(self, node: ast.BinOp) -> None:
        if not isinstance(node.op, ast.Mod):
            return
        left = node.left
        if (isinstance(left, ast.Constant)
                and isinstance(left.value, str)
                and _FLOAT_PERCENT_RE.search(left.value)):
            self._add(DetFactKind.FLOAT_FORMAT,
                      "a %-style float format", node.lineno)


def _root_decl(funcdef) -> tuple[str | None, int | None, str | None]:
    """(label, decorator line, problem) of a root-decorated function.

    The bare decorator and a zero-argument call declare an unlabelled
    root; a constant-string argument (positional or ``name=``) labels
    it. Anything computed is a DAS412 problem.
    """
    for decorator in funcdef.decorator_list:
        target = (decorator.func if isinstance(decorator, ast.Call)
                  else decorator)
        dotted = _dotted_name(target)
        if dotted is None or (dotted.rpartition(".")[2]
                              != "replay_root"):
            continue
        if not isinstance(decorator, ast.Call):
            return "", decorator.lineno, None
        labels = list(decorator.args) + [
            kw.value for kw in decorator.keywords if kw.arg == "name"]
        if not labels:
            return "", decorator.lineno, None
        label = labels[0]
        if (isinstance(label, ast.Constant)
                and isinstance(label.value, str)):
            return label.value, decorator.lineno, None
        return None, decorator.lineno, (
            "root name is not a string constant; a computed root "
            "declares nothing checkable")
    return None, None, None


def scan_det_module(module: str, scan: _ModuleScan) -> ModuleDetScan:
    """Extract every det-relevant fact from one scanned module."""
    result = ModuleDetScan(module=module)
    root_errors: list[tuple[str, int, str]] = []

    def scan_function(qualname: str, funcdef) -> None:
        facts = _DetFunctionFacts(scan, funcdef).run()
        if facts:
            result.facts[qualname] = facts
        label, line, problem = _root_decl(funcdef)
        if problem is not None:
            root_errors.append((qualname, line, problem))
        elif label is not None:
            result.roots[qualname] = RootDecl(
                qualname=qualname, label=label, line=line)

    for name, funcdef in sorted(scan.function_defs.items()):
        scan_function(f"{module}:{name}", funcdef)
    for class_name, klass in sorted(scan.class_defs.items()):
        for stmt in klass.body:
            if isinstance(stmt, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                scan_function(f"{module}:{class_name}.{stmt.name}",
                              stmt)
    result.root_errors = tuple(sorted(root_errors))
    return result

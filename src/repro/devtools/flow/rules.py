"""The four dataflow lint rules: RS009, RS010, RS011, RS012.

Each rule runs per function over the shared CFGs built once per module
by :func:`run_flow_rules` (the AST is parsed once and every CFG is
built once, no matter how many rules inspect it).  Findings come back
as plain ``(lineno, col, code, message)`` tuples; the lint front end in
:mod:`repro.devtools.lint` owns turning them into ``Finding`` records,
applying ``noqa`` suppression, and formatting output.

Scope notes (mirroring the single-node rules):

* RS009 applies to ``async def`` functions under ``repro.service`` and
  ``repro.cluster`` — the tiers whose concurrency model is
  interleaving-at-await-points.
* RS010 applies to all non-test ``repro`` code: dtype taint can start
  anywhere and flow into a count sink.
* RS011 applies to ``repro.service``, ``repro.cluster``, and
  ``repro.store`` — the tiers that acquire OS resources.
* RS012 applies to the service/cluster op-handler functions whose
  raises the protocol's fault barrier must map to wire error codes.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import NamedTuple

from .cfg import CFG, FlowNode, iter_function_cfgs
from .dataflow import ForwardAnalysis

__all__ = ["FLOW_RULE_CODES", "run_flow_rules"]

#: Codes of the rules implemented in this module.
FLOW_RULE_CODES = ("RS009", "RS010", "RS011", "RS012")

#: One raw finding: (lineno, col, code, message).
RawFinding = tuple[int, int, str, str]


# ---------------------------------------------------------------------------
# Shared scope + import-alias helpers
# ---------------------------------------------------------------------------
# _is_test_path/_in_package mirror repro.devtools.lint; duplicated here
# (they are three lines each) because lint.py imports this module.


def _is_test_path(path: Path) -> bool:
    if any(part in ("tests", "test") for part in path.parts):
        return True
    return path.name.startswith(("test_", "conftest"))


def _in_package(path: Path, *suffix: str) -> bool:
    parts = path.parts
    needle = ("repro", *suffix)
    for start in range(len(parts) - len(needle)):
        if parts[start : start + len(needle)] == needle:
            return True
    return False


#: Modules whose import aliases the rules care about.
_TRACKED_MODULES = frozenset({"numpy", "socket", "subprocess"})


class _Imports(NamedTuple):
    """Import aliases in one module, for resolving call targets."""

    modules: dict[str, str]  # local alias -> module ("np" -> "numpy")
    members: dict[str, tuple[str, str]]  # local name -> (module, member)


def _scan_imports(tree: ast.Module) -> _Imports:
    modules: dict[str, str] = {}
    members: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _TRACKED_MODULES:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module in _TRACKED_MODULES:
                for alias in node.names:
                    members[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )
    return _Imports(modules, members)


def _resolve_call(
    func: ast.expr, imports: _Imports
) -> tuple[str, str] | None:
    """Resolve a call target to ``(module, member)`` via import aliases."""
    if isinstance(func, ast.Name):
        return imports.members.get(func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        module = imports.modules.get(func.value.id)
        if module is not None:
            return (module, func.attr)
    return None


def _load_names(expr: ast.AST) -> frozenset[str]:
    """Every plain ``Name`` read inside ``expr``."""
    return frozenset(
        node.id
        for node in ast.walk(expr)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    )


def _node_value_names(node: FlowNode) -> frozenset[str]:
    """Every ``Name`` read anywhere in the node's local expressions."""
    names: set[str] = set()
    for expr in node.local_exprs():
        names |= _load_names(expr)
    return frozenset(names)


# ---------------------------------------------------------------------------
# RS009 — await-point race on shared table/sketch state
# ---------------------------------------------------------------------------

#: Attribute names that constitute shared table/sketch state: the
#: RS002/RS004 sets (including the ``repro.cache`` segment orderings
#: and doorkeeper bits) plus the service applier's sequencing fields.
_RACE_ATTRS = frozenset(
    {
        "_counters",
        "_cells",
        "_rows",
        "_table",
        "_total_weight",
        "counters",
        "table",
        "_applied_seq",
        "_enqueued_seq",
        "_records_applied",
        "_accepting",
        "_window_lru",
        "_probation",
        "_protected",
        "_lru_order",
        "_freq_buckets",
        "_key_freq",
        "_door_bits",
        "_tokens",
        "_turns",
        "_entries",
    }
)


class _RaceFact(NamedTuple):
    """``var`` holds a value read from ``base.attr``; ``crossed`` is
    True once an unguarded await has intervened."""

    var: str
    base: str
    attr: str
    crossed: bool


def _state_read(expr: ast.expr) -> tuple[str, str] | None:
    """The first shared-state attribute read inside ``expr``, if any."""
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in _RACE_ATTRS
        ):
            return (ast.unparse(node.value), node.attr)
    return None


def _has_unguarded_await(node: FlowNode) -> bool:
    """True when executing this node can suspend outside any
    ``async with`` block and outside the ``wait_applied`` read barrier."""
    if node.async_with_depth > 0:
        return False
    if node.is_async_point:
        return True
    for expr in node.walk():
        if isinstance(expr, ast.Await):
            value = expr.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "wait_applied"
            ):
                continue
            return True
    return False


class _RaceAnalysis(ForwardAnalysis[_RaceFact]):
    """Track shared-state reads across await points (RS009)."""

    def transfer(
        self, node: FlowNode, facts: frozenset[_RaceFact]
    ) -> frozenset[_RaceFact]:
        out: set[_RaceFact] = set(facts)
        if _has_unguarded_await(node):
            out = {fact._replace(crossed=True) for fact in out}
        stmt = node.stmt
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            var = stmt.targets[0].id
            survivors = {fact for fact in out if fact.var != var}
            read = _state_read(stmt.value)
            if read is not None:
                survivors.add(_RaceFact(var, read[0], read[1], False))
            elif isinstance(stmt.value, ast.Name):
                source = stmt.value.id
                for fact in out:
                    if fact.var == source:
                        survivors.add(fact._replace(var=var))
            out = survivors
        return frozenset(out)


def _written_state_attrs(stmt: ast.stmt) -> list[tuple[str, str]]:
    """Shared-state attributes this statement writes, as
    ``(base, attr)``."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    written: list[tuple[str, str]] = []
    for target in targets:
        candidate = target
        if isinstance(candidate, ast.Subscript):
            candidate = candidate.value
        if (
            isinstance(candidate, ast.Attribute)
            and candidate.attr in _RACE_ATTRS
        ):
            written.append((ast.unparse(candidate.value), candidate.attr))
    return written


def _rs009(
    cfg: CFG, func: ast.FunctionDef | ast.AsyncFunctionDef
) -> list[RawFinding]:
    if not isinstance(func, ast.AsyncFunctionDef):
        return []
    in_sets = _RaceAnalysis().run(cfg)
    findings: list[RawFinding] = []
    for node in cfg.statement_nodes():
        stmt = node.stmt
        if not isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            continue
        written = _written_state_attrs(stmt)
        if not written:
            continue
        value = getattr(stmt, "value", None)
        names = _load_names(value) if value is not None else frozenset()
        for base, attr in written:
            stale = [
                fact
                for fact in in_sets[node.index]
                if fact.crossed
                and fact.base == base
                and fact.attr == attr
                and fact.var in names
            ]
            if stale:
                var = sorted(fact.var for fact in stale)[0]
                findings.append(
                    (
                        stmt.lineno,
                        stmt.col_offset,
                        "RS009",
                        f"`{base}.{attr}` written from `{var}`, which was "
                        f"read before an intervening `await` — another task "
                        f"may have mutated the state in between",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# RS010 — float/NumPy dtype taint reaching count/weight sinks
# ---------------------------------------------------------------------------

#: NumPy scalar constructors whose results are dtype-tainted.
_NP_SCALAR_CTORS = frozenset(
    {
        "float16",
        "float32",
        "float64",
        "float128",
        "half",
        "single",
        "double",
        "longdouble",
        "int8",
        "int16",
        "int32",
        "int64",
        "uint8",
        "uint16",
        "uint32",
        "uint64",
        "intp",
        "uintp",
        "longlong",
        "ulonglong",
        "short",
        "ushort",
    }
)

#: Count-taking sketch methods and the positional index of their count
#: argument (mirrors RS005).
_COUNT_POSITIONS = {
    "update": 1,
    "observe_before": 1,
    "observe_after": 1,
    "second_pass_before": 1,
    "second_pass_after": 1,
    "scale": 0,
}

#: Snapshot-header fields that must stay plain ``int``.
_HEADER_KEYS = frozenset({"total_weight", "items_seen", "items_consumed"})


class _TaintAnalysis(ForwardAnalysis[str]):
    """Track variables holding float/NumPy-scalar values (RS010)."""

    def __init__(self, imports: _Imports) -> None:
        self._imports = imports

    def expr_tainted(self, expr: ast.expr, facts: frozenset[str]) -> bool:
        """True when ``expr`` may evaluate to a non-``int`` numeric."""
        if isinstance(expr, ast.Constant):
            return isinstance(expr.value, float)
        if isinstance(expr, ast.Name):
            return expr.id in facts
        if isinstance(expr, ast.BinOp):
            if isinstance(expr.op, ast.Div):
                return True
            return self.expr_tainted(expr.left, facts) or self.expr_tainted(
                expr.right, facts
            )
        if isinstance(expr, ast.UnaryOp):
            return self.expr_tainted(expr.operand, facts)
        if isinstance(expr, ast.IfExp):
            return self.expr_tainted(expr.body, facts) or self.expr_tainted(
                expr.orelse, facts
            )
        if isinstance(expr, (ast.NamedExpr,)):
            return self.expr_tainted(expr.value, facts)
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id == "float":
                return True
            if isinstance(func, ast.Name) and func.id == "int":
                return False
            resolved = _resolve_call(func, self._imports)
            return (
                resolved is not None
                and resolved[0] == "numpy"
                and resolved[1] in _NP_SCALAR_CTORS
            )
        return False

    def _bound_names(self, stmt: ast.stmt) -> list[str]:
        names: list[str] = []
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    names.append(node.id)
        return names

    def transfer(
        self, node: FlowNode, facts: frozenset[str]
    ) -> frozenset[str]:
        stmt = node.stmt
        out = set(facts)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            bound = self._bound_names(stmt)
            value = stmt.value
            if bound:
                tainted = value is not None and self.expr_tainted(
                    value, facts
                )
                # A tuple unpack of a tainted value conservatively
                # taints every bound name; a clean value scrubs them.
                for name in bound:
                    if tainted:
                        out.add(name)
                    else:
                        out.discard(name)
        elif isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.target, ast.Name
        ):
            name = stmt.target.id
            if isinstance(stmt.op, ast.Div) or self.expr_tainted(
                stmt.value, facts
            ):
                out.add(name)
            # Otherwise keep the prior taint state: ``x += 1`` neither
            # introduces nor removes float-ness.
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(stmt.target):
                if isinstance(sub, ast.Name):
                    out.discard(sub.id)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    for sub in ast.walk(item.optional_vars):
                        if isinstance(sub, ast.Name):
                            out.discard(sub.id)
        return frozenset(out)


def _rs010_sinks(
    node: FlowNode, analysis: _TaintAnalysis, facts: frozenset[str]
) -> list[RawFinding]:
    findings: list[RawFinding] = []

    def flag(expr: ast.expr, what: str) -> None:
        # Bare float literals at the sink are RS005's domain; RS010
        # reports only values that *flowed* here.
        if isinstance(expr, ast.Constant):
            return
        if analysis.expr_tainted(expr, facts):
            findings.append(
                (
                    expr.lineno,
                    expr.col_offset,
                    "RS010",
                    f"possibly non-int value reaches {what} without an "
                    f"`int(...)` cast",
                )
            )

    for root in node.local_exprs():
        for sub in ast.walk(root):
            if isinstance(sub, ast.Call):
                name: str | None = None
                if isinstance(sub.func, ast.Attribute):
                    name = sub.func.attr
                elif isinstance(sub.func, ast.Name):
                    name = sub.func.id
                position = _COUNT_POSITIONS.get(name or "")
                if position is not None and len(sub.args) > position:
                    flag(
                        sub.args[position],
                        f"the count argument of `{name}(...)`",
                    )
                for keyword in sub.keywords:
                    if keyword.arg == "count":
                        flag(keyword.value, "`count=`")
            elif isinstance(sub, ast.Dict):
                for key, value in zip(sub.keys, sub.values):
                    if (
                        isinstance(key, ast.Constant)
                        and key.value in _HEADER_KEYS
                    ):
                        flag(
                            value,
                            f"snapshot-header field `{key.value!r}`",
                        )
    # Subscript stores: ``header["total_weight"] = tainted``.
    stmt = node.stmt
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.slice, ast.Constant)
                and target.slice.value in _HEADER_KEYS
            ):
                flag(
                    stmt.value,
                    f"snapshot-header field `{target.slice.value!r}`",
                )
    return findings


def _rs010(cfg: CFG, imports: _Imports) -> list[RawFinding]:
    analysis = _TaintAnalysis(imports)
    in_sets = analysis.run(cfg)
    findings: list[RawFinding] = []
    for node in cfg.statement_nodes():
        findings.extend(_rs010_sinks(node, analysis, in_sets[node.index]))
    return findings


# ---------------------------------------------------------------------------
# RS011 — resource leak on some CFG path
# ---------------------------------------------------------------------------

#: Call targets whose result owns an OS resource, with a human label.
_ACQUIRERS: dict[tuple[str, str], str] = {
    ("socket", "socket"): "socket",
    ("socket", "create_connection"): "socket",
    ("subprocess", "Popen"): "subprocess",
}

#: Method names that release a tracked resource.
_CLOSERS = frozenset({"close", "stop", "terminate", "kill", "shutdown"})

#: Container methods through which a resource escapes to a longer-lived
#: owner.
_CONTAINER_ADDERS = frozenset({"append", "add", "insert", "extend"})


class _ResourceFact(NamedTuple):
    """``var`` holds a resource of ``kind`` acquired at
    ``line``:``col``."""

    var: str
    line: int
    col: int
    kind: str


def _direct_value_names(expr: ast.expr) -> frozenset[str]:
    """Names whose *values* are stored by assigning ``expr`` somewhere:
    bare names, through tuple/list structure and conditionals — but not
    names merely passed to a call."""
    if isinstance(expr, ast.Name):
        return frozenset({expr.id})
    if isinstance(expr, (ast.Tuple, ast.List)):
        out: frozenset[str] = frozenset()
        for elt in expr.elts:
            out |= _direct_value_names(elt)
        return out
    if isinstance(expr, ast.Starred):
        return _direct_value_names(expr.value)
    if isinstance(expr, ast.IfExp):
        return _direct_value_names(expr.body) | _direct_value_names(
            expr.orelse
        )
    return frozenset()


def _acquired_kind(value: ast.expr, imports: _Imports) -> str | None:
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "file handle"
    resolved = _resolve_call(func, imports)
    if resolved is not None:
        return _ACQUIRERS.get(resolved)
    return None


class _ResourceAnalysis(ForwardAnalysis[_ResourceFact]):
    """Track locally-owned resources until closed or escaped (RS011)."""

    def __init__(self, imports: _Imports) -> None:
        self._imports = imports

    def _kills(
        self, node: FlowNode, facts: frozenset[_ResourceFact]
    ) -> set[str]:
        stmt = node.stmt
        killed: set[str] = set()
        live = {fact.var for fact in facts}
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    killed.add(target.id)
            return killed
        for root in node.local_exprs():
            for sub in ast.walk(root):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                # ``var.close()`` / ``var.stop()`` — released.
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.attr in _CLOSERS
                ):
                    killed.add(func.value.id)
                # ``owner.append(var)`` — ownership transferred.
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _CONTAINER_ADDERS
                ):
                    for arg in sub.args:
                        killed |= _load_names(arg) & live
                # ``ShardProcess(index, process, ...)`` — a wrapper type
                # takes ownership.
                ctor = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else ""
                )
                if ctor[:1].isupper():
                    for arg in sub.args:
                        killed |= _load_names(arg) & live
                    for keyword in sub.keywords:
                        killed |= _load_names(keyword.value) & live
        # Escapes: returned/yielded, or stored into an attribute,
        # subscript, or tuple-structured target.
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            killed |= _load_names(stmt.value) & live
        for root in node.local_exprs():
            for sub in ast.walk(root):
                if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                    value = sub.value
                    if value is not None:
                        killed |= _load_names(value) & live
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                list(stmt.targets)
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            value = stmt.value
            if value is not None and any(
                not isinstance(target, ast.Name) for target in targets
            ):
                # Only names stored *directly* escape (``self._sock =
                # sock``); a name buried in a call is a borrow, not a
                # transfer (``host, port = probe(sock)``).
                killed |= _direct_value_names(value) & live
        return killed

    def transfer(
        self, node: FlowNode, facts: frozenset[_ResourceFact]
    ) -> frozenset[_ResourceFact]:
        killed = self._kills(node, facts)
        out = {fact for fact in facts if fact.var not in killed}
        stmt = node.stmt
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            var = stmt.targets[0].id
            out = {fact for fact in out if fact.var != var}
            kind = _acquired_kind(stmt.value, self._imports)
            if kind is not None:
                out.add(
                    _ResourceFact(var, stmt.lineno, stmt.col_offset, kind)
                )
        return frozenset(out)

    def transfer_exception(
        self, node: FlowNode, facts: frozenset[_ResourceFact]
    ) -> frozenset[_ResourceFact]:
        # If the statement raised, its own acquisition never bound — so
        # kills apply (an attempted ``close`` still counts on the path
        # into ``finally``) but gens do not.
        killed = self._kills(node, facts)
        return frozenset(
            fact for fact in facts if fact.var not in killed
        )


def _rs011(cfg: CFG, imports: _Imports) -> list[RawFinding]:
    in_sets = _ResourceAnalysis(imports).run(cfg)
    findings: list[RawFinding] = []
    for fact in sorted(in_sets[CFG.EXIT]):
        findings.append(
            (
                fact.line,
                fact.col,
                "RS011",
                f"{fact.kind} `{fact.var}` acquired here is not closed on "
                f"every path out of the function",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# RS012 — raise outside the closed wire-error vocabulary
# ---------------------------------------------------------------------------

#: Exception types the service fault barrier maps to wire error codes.
_WIRE_ERROR_TYPES = frozenset(
    {
        "_BadRequest",
        "_NoSuchTable",
        "WireProtocolError",
        "FrameTooLargeError",
        "TableOverloadedError",
        "TableQuotaExceededError",
    }
)

#: Handler functions whose raises must stay inside the vocabulary.
_HANDLER_NAMES = frozenset(
    {
        "dispatch",
        "dispatch_binary",
        "_dispatch_op",
        "_binary_ingest",
        "_answer",
        "_require_table",
    }
)


def _is_handler(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return func.name.startswith("_op_") or func.name in _HANDLER_NAMES


def _raised_type_name(exc: ast.expr) -> str | None:
    """The exception type name of a ``raise X(...)`` / ``raise m.X(...)``
    site, or ``None`` when it cannot be determined statically."""
    target = exc
    if isinstance(target, ast.Call):
        target = target.func
    else:
        # ``raise exc`` re-raises a bound exception object; its type was
        # vetted where it was caught or constructed.
        return None
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def _rs012(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[RawFinding]:
    if not _is_handler(func):
        return []
    findings: list[RawFinding] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Raise) and node.exc is not None:
            name = _raised_type_name(node.exc)
            if name is not None and name not in _WIRE_ERROR_TYPES:
                findings.append(
                    (
                        node.lineno,
                        node.col_offset,
                        "RS012",
                        f"`raise {name}(...)` in op handler "
                        f"`{func.name}` is outside the wire-error "
                        f"vocabulary the protocol maps to error codes",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_flow_rules(tree: ast.Module, path: Path) -> list[RawFinding]:
    """Run every applicable flow rule over one parsed module.

    The module's CFGs are built once and shared by all rules.  Returns
    raw ``(lineno, col, code, message)`` tuples sorted by position.
    """
    in_service_tier = _in_package(path, "service") or _in_package(
        path, "cluster"
    )
    in_resource_tier = (in_service_tier or _in_package(path, "store")
                        or _in_package(path, "cache"))
    in_repro = _in_package(path)
    is_test = _is_test_path(path)
    if is_test or not in_repro:
        return []

    imports = _scan_imports(tree)
    findings: list[RawFinding] = []
    for func, cfg in iter_function_cfgs(tree):
        if in_service_tier:
            findings.extend(_rs009(cfg, func))
            findings.extend(_rs012(func))
        if in_resource_tier:
            findings.extend(_rs011(cfg, imports))
        findings.extend(_rs010(cfg, imports))
    findings.sort(key=lambda item: (item[0], item[1], item[2]))
    return findings

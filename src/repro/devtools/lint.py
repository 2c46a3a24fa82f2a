"""Custom AST lint suite enforcing the repo's stream-sketch invariants.

The rules encode conventions that keep the paper's guarantees true but
that no general-purpose linter knows about:

* **RS001 unseeded-rng** — module-level ``random`` / ``np.random`` calls
  outside test code.  Experiments must thread an explicit seeded
  generator (``random.Random(seed)`` / ``np.random.default_rng(seed)``)
  or reproducibility is silently lost.
* **RS002 counter-mutation** — direct mutation of a sketch's counter /
  state arrays (``_counters`` and its flat view ``_cells``, ``_rows``,
  ``_table``, ``_total_weight``, or the public read-only views) on
  another object outside ``repro.core``.  Counters are int64 by
  invariant and only the core update paths may touch them.
* **RS003 metrics-lookup** — metrics-registry lookups (``.counter()`` /
  ``.gauge()`` / ``.histogram()`` / ``.timed()``) outside ``__init__`` /
  construction paths.  The PR-2 convention captures handles once at
  construction time so disabled metrics cost one attribute load per
  event; a lookup on a hot path defeats that.
* **RS004 unchecked-merge** — sketch state read or combined without the
  compatibility-checked API (reaching for another sketch's private
  ``_counters`` / calling ``_with_counters``) outside ``repro.core``.
  ``merge()`` / ``+`` / ``-`` enforce the §3.2 shared-hash check; raw
  array arithmetic merges incompatible sketches silently.
* **RS005 float-count** — float literals flowing into integer count
  parameters (``update(item, 1.5)``, ``count=2.0``, ``scale(1.5)``).
  A float count silently promotes the int64 counter array and breaks
  serialization and exact-merge equality.  Exact-reciprocal ``scale``
  factors (``scale(0.5)``, the TinyLFU aging reset) floor-divide and are
  exempt.
* **RS006 raw-state-serialization** — sketch state fed to a generic
  serializer (``json.dump``/``dumps``, ``pickle``, ``marshal``,
  ``np.save``/``savez``) outside ``repro.store``.  Ad-hoc dumps drop
  the format version, checksums, and hash coefficients, so the bytes
  cannot be validated or merged later; ``repro.store.save()`` /
  ``load()`` is the one sanctioned codec.
* **RS007 async-blocking-call** — blocking calls (``time.sleep``,
  ``subprocess``, ``os.system``, builtin ``open``, ``Path.read_text``
  and friends, ``repro.store.save``/``load``) inside an ``async def``
  under ``repro.service``.  The server runs every table on one event
  loop; a single blocking call stalls ingestion and all queries at
  once.  Await the async equivalent or use ``loop.run_in_executor``.
* **RS008 binary-wire-outside-protocol** — binary payload packing and
  unpacking primitives (``struct.*``, ``np.frombuffer``,
  ``.tobytes()``, ``int.to_bytes``/``from_bytes``) in ``repro.service``
  modules other than ``protocol.py``.  The binary frame layout is a
  wire contract with exactly one implementation; a second ad-hoc
  encoder drifts from the shared format silently.  Call the
  ``repro.service.protocol`` codec instead.

Rules RS009-RS012 are dataflow-aware: they run a per-function CFG +
fixpoint analysis (see :mod:`repro.devtools.flow`) instead of matching
single AST nodes:

* **RS009 await-point-race** — shared table/sketch state read into a
  local, an unguarded ``await`` (outside ``async with``, not the
  ``wait_applied`` read barrier), then the same state written from that
  stale local.  Another task may have interleaved at the await; the
  write loses its update.
* **RS010 dtype-taint** — a value originating from a float literal,
  division, ``float(...)``, or a NumPy scalar constructor *flows* into
  a count/weight parameter or snapshot-header field without an
  ``int(...)`` cast (the dataflow generalization of RS005).
* **RS011 resource-leak** — a file handle, socket, or subprocess
  acquired in ``repro.service`` / ``repro.cluster`` / ``repro.store``
  whose close/stop is not guaranteed on every CFG path (a raise
  between acquire and release escapes without cleanup; use
  ``try/finally`` or a context manager).
* **RS012 open-error-vocabulary** — a ``raise`` inside a service or
  cluster op handler whose exception type is outside the closed
  vocabulary the protocol maps to wire error codes; anything else
  surfaces to clients as an opaque ``internal`` error.

Suppress a finding by appending ``# repro: noqa-RS001`` (comma-separate
several codes: ``# repro: noqa-RS002,RS004``; bare ``# repro: noqa``
suppresses every rule) on the finding's first line.

Run as a module for the CI gate::

    python -m repro.devtools.lint src tests
    python -m repro.devtools.lint --format json src tests
    python -m repro.devtools.lint --select RS009-RS012 src tests

Exit codes: 0 clean, 1 findings, 2 syntax error in a linted file or a
bad ``--select`` / ``--ignore`` / ``--baseline`` argument.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import re
import sys
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

from .flow.rules import FLOW_RULE_CODES, run_flow_rules

__all__ = [
    "FAST_RULE_CODES",
    "FLOW_RULE_CODES",
    "RULES",
    "Finding",
    "LintResult",
    "Rule",
    "lint_paths",
    "lint_source",
    "main",
    "parse_rule_spec",
]


@dataclass(frozen=True)
class Rule:
    """One lint rule: a stable code, a slug, and a one-line fix hint."""

    code: str
    name: str
    summary: str
    hint: str


RULES: tuple[Rule, ...] = (
    Rule(
        "RS001",
        "unseeded-rng",
        "module-level random/np.random call outside test code",
        "thread an explicit seeded generator: random.Random(seed) / "
        "np.random.default_rng(seed)",
    ),
    Rule(
        "RS002",
        "counter-mutation",
        "direct mutation of a sketch's counter/state arrays outside "
        "repro.core",
        "go through the public update()/merge()/scale()/state_dict() API; "
        "only repro.core may touch counter arrays",
    ),
    Rule(
        "RS003",
        "metrics-lookup",
        "metrics-registry lookup outside __init__/construction paths",
        "capture the handle once at construction time and reuse it "
        "(the PR-2 handle-capture convention)",
    ),
    Rule(
        "RS004",
        "unchecked-merge",
        "sketch state accessed/combined without the compatibility-checked "
        "API",
        "use merge()/+/-/copy()/counters, which enforce the §3.2 "
        "shared-hash compatibility check",
    ),
    Rule(
        "RS005",
        "float-count",
        "float literal flowing into an integer count parameter",
        "counts are integers (the int64 counter invariant); pass an int",
    ),
    Rule(
        "RS006",
        "raw-state-serialization",
        "sketch state serialized with a generic codec outside repro.store",
        "persist summaries with repro.store.save()/load() — the versioned, "
        "CRC-checked snapshot format",
    ),
    Rule(
        "RS007",
        "async-blocking-call",
        "blocking call inside an async def under repro.service",
        "await the async equivalent or hand the work to "
        "loop.run_in_executor(...); the event loop must never block",
    ),
    Rule(
        "RS008",
        "binary-wire-outside-protocol",
        "binary payload encode/decode outside repro.service.protocol",
        "the binary frame layout has one implementation — use the "
        "repro.service.protocol codec (pack_binary_ingest / pack_key / "
        "unpack_frame) instead of ad-hoc struct/frombuffer/tobytes",
    ),
    Rule(
        "RS009",
        "await-point-race",
        "shared sketch/table state read, then written from the stale "
        "local across an unguarded await point",
        "re-read the state after the await, or hold the lock "
        "(async with) / use the wait_applied read barrier across the "
        "read-modify-write",
    ),
    Rule(
        "RS010",
        "dtype-taint",
        "float/NumPy-scalar value flows into a count parameter or "
        "snapshot-header field without an int(...) cast",
        "cast with int(...) at the source or the sink; counts and "
        "header fields are plain Python ints by invariant",
    ),
    Rule(
        "RS011",
        "resource-leak",
        "file handle / socket / subprocess not released on every CFG "
        "path",
        "acquire inside `with ...:` or close/stop/terminate in a "
        "`finally:` so exceptional paths release the resource too",
    ),
    Rule(
        "RS012",
        "open-error-vocabulary",
        "raise outside the closed wire-error vocabulary inside a "
        "service/cluster op handler",
        "raise one of _BadRequest / _NoSuchTable / WireProtocolError / "
        "FrameTooLargeError / TableOverloadedError so the fault barrier "
        "maps it to a wire error code",
    ),
)

#: Codes handled by the single-pass AST checker (fast stage).
FAST_RULE_CODES: tuple[str, ...] = tuple(
    rule.code for rule in RULES if rule.code not in FLOW_RULE_CODES
)

RULES_BY_CODE: dict[str, Rule] = {rule.code: rule for rule in RULES}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def rule(self) -> Rule:
        """The rule this finding violates."""
        return RULES_BY_CODE[self.code]

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible representation (used by ``--format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "rule": self.rule.name,
            "message": self.message,
            "hint": self.rule.hint,
        }

    def format_human(self) -> str:
        """The one-line human rendering used by the default output."""
        return (
            f"{self.path}:{self.line}:{self.col}: {self.code} "
            f"{self.message} (fix: {self.rule.hint})"
        )


@dataclass(frozen=True)
class LintResult:
    """The outcome of linting a set of paths.

    ``fast_seconds`` / ``flow_seconds`` are the cumulative wall-clock
    time spent in the single-pass AST stage (RS001-RS008) and the
    CFG/dataflow stage (RS009-RS012); cache hits contribute nothing.
    """

    findings: tuple[Finding, ...]
    files_checked: int
    suppressed: int
    fast_seconds: float = field(default=0.0, compare=False)
    flow_seconds: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        """True when no unsuppressed finding remains."""
        return not self.findings


# -- noqa suppression --------------------------------------------------------

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?P<codes>(?:-\s*RS\d{3})(?:\s*,\s*RS\d{3})*)?"
)


def _noqa_map(source: str) -> dict[int, frozenset[str] | None]:
    """Map line numbers to suppressed rule codes (``None`` = every rule)."""
    suppressions: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressions[lineno] = None
        else:
            suppressions[lineno] = frozenset(re.findall(r"RS\d{3}", codes))
    return suppressions


def _is_suppressed(
    finding: Finding, suppressions: dict[int, frozenset[str] | None]
) -> bool:
    codes = suppressions.get(finding.line, frozenset())
    return codes is None or finding.code in codes


# -- the checker -------------------------------------------------------------

#: Sketch state attributes whose *mutation* outside repro.core is RS002.
#: Includes the ``repro.cache`` shared state: cache segment orderings
#: (``_window_lru``/``_probation``/``_protected``), the LFU frequency
#: buckets, and the doorkeeper bit array.
_STATE_ATTRS = frozenset(
    {
        "_counters", "_cells", "_rows", "_table", "_total_weight", "counters",
        "table", "_window_lru", "_probation", "_protected", "_lru_order",
        "_freq_buckets", "_key_freq", "_door_bits",
    }
)

#: Private state attributes whose *read* outside repro.core is RS004.
_PRIVATE_STATE_ATTRS = frozenset(
    {
        "_counters", "_cells", "_rows", "_table", "_total_weight", "_window_lru",
        "_probation", "_protected", "_lru_order", "_freq_buckets",
        "_key_freq", "_door_bits",
    }
)

#: Registry lookup method names (RS003).
_REGISTRY_LOOKUPS = frozenset({"counter", "gauge", "histogram", "timed"})

#: Function names that count as construction paths for RS003.
_CONSTRUCTION_FUNCS = frozenset({"__init__", "__new__", "__post_init__"})

#: Implementations of the compatibility-checked arithmetic protocol: these
#: method bodies ARE the checked API, so their raw state reads are exempt
#: from RS004 (each is expected to validate compatibility itself).
_ARITHMETIC_IMPLS = frozenset(
    {
        "merge",
        "__add__",
        "__sub__",
        "__iadd__",
        "__isub__",
        "__neg__",
        "inner_product",
        "compatible_with",
        "_require_compatible",
    }
)

#: ``random`` module attributes that construct a generator: fine when
#: called *with* a seed argument, RS001 when called bare.
_RANDOM_CONSTRUCTORS = frozenset({"Random"})

#: ``np.random`` attributes that construct a generator (same seeding rule).
_NP_RANDOM_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "RandomState",
        "Generator",
        "SeedSequence",
        "PCG64",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Method name -> positional index of its count parameter (RS005).
_COUNT_POSITIONS = {
    "update": 1,
    "observe_before": 1,
    "observe_after": 1,
    "second_pass_before": 1,
    "second_pass_after": 1,
    "scale": 0,
}

#: Keyword names that carry integer counts (RS005).
_COUNT_KEYWORDS = frozenset({"count"})


def _is_exact_reciprocal(value: object) -> bool:
    """True for float literals ``scale`` accepts as floor-division factors.

    ``CountSketch.scale`` floor-divides on factors whose IEEE-754 value is
    exactly ``1/k`` (``0.5``, ``0.25``, …) — the TinyLFU aging/reset
    operation — so those literals are legitimate counts-preserving
    arguments, not RS005 findings.
    """
    if not isinstance(value, float) or not math.isfinite(value):
        return False
    ratio = Fraction(value)
    return ratio.numerator == 1 and ratio.denominator >= 2

#: Generic serializer entry points per stdlib/numpy module (RS006).
_SERIALIZER_FUNCS: dict[str, frozenset[str]] = {
    "json": frozenset({"dump", "dumps"}),
    "pickle": frozenset({"dump", "dumps"}),
    "marshal": frozenset({"dump", "dumps"}),
    "numpy": frozenset({"save", "savez", "savez_compressed"}),
}

#: Attribute names that mark an expression as sketch state (RS006): the
#: counter arrays (private and public views) and the state_dict() export.
_SERIALIZED_STATE_ATTRS = frozenset(
    {"_counters", "_cells", "counters", "_rows", "_table", "table"}
)

#: Module-level blocking entry points flagged inside ``async def`` bodies
#: under ``repro.service`` (RS007).
_BLOCKING_MODULE_CALLS: dict[str, frozenset[str]] = {
    "time": frozenset({"sleep"}),
    "os": frozenset({"system", "popen"}),
    "subprocess": frozenset(
        {"run", "call", "check_call", "check_output", "Popen"}
    ),
}

#: Blocking filesystem methods (the ``pathlib.Path`` I/O surface),
#: flagged on any receiver inside async service code (RS007).
_BLOCKING_METHODS = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes"}
)

#: ``repro.store`` entry points that hit the filesystem (RS007).
_STORE_IO_FUNCS = frozenset({"save", "load", "load_with_meta"})

#: Byte packing/unpacking methods whose presence in service code marks
#: ad-hoc binary wire encoding (RS008); flagged on any receiver.
_BINARY_METHODS = frozenset({"tobytes", "to_bytes", "from_bytes"})


def _is_test_path(path: Path) -> bool:
    """True for files where test-only relaxations (RS001/RS003) apply."""
    if any(part in ("tests", "test") for part in path.parts):
        return True
    name = path.name
    return name.startswith(("test_", "conftest"))


def _in_package(path: Path, *suffix: str) -> bool:
    """True when ``path`` lies under the ``repro/<suffix...>`` package."""
    parts = path.parts
    needle = ("repro", *suffix)
    for start in range(len(parts) - len(needle)):
        if parts[start : start + len(needle)] == needle:
            return True
    return False


def _float_literal(node: ast.expr) -> bool:
    """True for a float constant, possibly behind a unary ``+``/``-``."""
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


class _Checker(ast.NodeVisitor):
    """Single-pass visitor applying every RS rule to one module."""

    def __init__(self, path: Path, display_path: str) -> None:
        self._display_path = display_path
        self._is_test = _is_test_path(path)
        self._in_core = _in_package(path, "core")
        self._in_observability = _in_package(path, "observability")
        self._in_store = _in_package(path, "store")
        self._in_service = _in_package(path, "service")
        self._in_service_protocol = (
            self._in_service and path.name == "protocol.py"
        )
        self._func_stack: list[str] = []
        self._async_stack: list[bool] = []
        self._awaited_calls: set[int] = set()
        self._in_decorator = 0
        self.findings: list[Finding] = []
        # Import-derived name tables (module- or function-scoped alike).
        self._random_aliases: set[str] = set()
        self._numpy_aliases: set[str] = set()
        self._np_random_aliases: set[str] = set()
        self._from_random: dict[str, str] = {}
        self._from_np_random: dict[str, str] = {}
        self._observability_timed: set[str] = set()
        self._serializer_aliases: dict[str, str] = {}
        self._from_serializer: dict[str, tuple[str, str]] = {}
        self._blocking_module_aliases: dict[str, str] = {}
        self._from_blocking: dict[str, str] = {}
        self._store_module_aliases: set[str] = set()
        self._struct_aliases: set[str] = set()
        self._from_struct: dict[str, str] = {}

    # -- bookkeeping --------------------------------------------------------

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self._display_path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
            )
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self._random_aliases.add(bound)
            elif alias.name == "numpy":
                self._numpy_aliases.add(bound)
            elif alias.name in ("json", "pickle", "marshal"):
                self._serializer_aliases[bound] = alias.name
            elif alias.name == "numpy.random":
                if alias.asname is not None:
                    self._np_random_aliases.add(alias.asname)
                else:
                    self._numpy_aliases.add("numpy")
            if alias.name in _BLOCKING_MODULE_CALLS:
                self._blocking_module_aliases[bound] = alias.name
            elif alias.name == "repro.store" and alias.asname is not None:
                self._store_module_aliases.add(alias.asname)
            if alias.name == "struct":
                self._struct_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            bound = alias.asname or alias.name
            if module == "random":
                self._from_random[bound] = alias.name
            elif module == "numpy.random":
                self._from_np_random[bound] = alias.name
            elif module == "numpy" and alias.name == "random":
                self._np_random_aliases.add(bound)
            elif module.startswith("repro.observability") and (
                alias.name == "timed"
            ):
                self._observability_timed.add(bound)
            if (
                module in _SERIALIZER_FUNCS
                and alias.name in _SERIALIZER_FUNCS[module]
            ):
                self._from_serializer[bound] = (module, alias.name)
            if (
                module in _BLOCKING_MODULE_CALLS
                and alias.name in _BLOCKING_MODULE_CALLS[module]
            ):
                self._from_blocking[bound] = f"{module}.{alias.name}"
            elif module == "repro.store" and alias.name in _STORE_IO_FUNCS:
                self._from_blocking[bound] = f"repro.store.{alias.name}"
            if module == "struct":
                self._from_struct[bound] = alias.name
        self.generic_visit(node)

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._in_decorator += 1
        for decorator in node.decorator_list:
            self.visit(decorator)
        self._in_decorator -= 1
        self._func_stack.append(node.name)
        self._async_stack.append(isinstance(node, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            if child in node.decorator_list:
                continue
            self.visit(child)
        self._async_stack.pop()
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- RS001: unseeded RNG ------------------------------------------------

    def _rng_target(self, func: ast.expr) -> tuple[str, str] | None:
        """Resolve a call target to ``(module, attr)`` for RNG checking."""
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name):
                if value.id in self._random_aliases:
                    return ("random", func.attr)
                if value.id in self._np_random_aliases:
                    return ("np.random", func.attr)
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in self._numpy_aliases
            ):
                return ("np.random", func.attr)
        elif isinstance(func, ast.Name):
            if func.id in self._from_random:
                return ("random", self._from_random[func.id])
            if func.id in self._from_np_random:
                return ("np.random", self._from_np_random[func.id])
        return None

    def _check_rs001(self, node: ast.Call) -> None:
        if self._is_test:
            return
        target = self._rng_target(node.func)
        if target is None:
            return
        module, attr = target
        constructors = (
            _RANDOM_CONSTRUCTORS
            if module == "random"
            else _NP_RANDOM_CONSTRUCTORS
        )
        if attr in constructors:
            if node.args or node.keywords:
                return  # explicitly seeded constructor
            self._report(
                node,
                "RS001",
                f"`{module}.{attr}()` built without a seed",
            )
            return
        self._report(
            node,
            "RS001",
            f"module-level `{module}.{attr}(...)` uses hidden global RNG "
            "state",
        )

    # -- RS002 / RS004: counter state access --------------------------------

    @staticmethod
    def _state_attribute(node: ast.expr) -> ast.Attribute | None:
        """Unwrap ``obj.attr`` or ``obj.attr[...]`` to the Attribute node."""
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return node
        return None

    @staticmethod
    def _base_is_self(attribute: ast.Attribute) -> bool:
        return (
            isinstance(attribute.value, ast.Name)
            and attribute.value.id in ("self", "cls")
        )

    def _check_state_mutation(self, target: ast.expr) -> None:
        if self._in_core:
            return
        attribute = self._state_attribute(target)
        if attribute is None or attribute.attr not in _STATE_ATTRS:
            return
        if self._base_is_self(attribute):
            return
        base = ast.unparse(attribute.value)
        self._report(
            attribute,
            "RS002",
            f"direct mutation of `{base}.{attribute.attr}` outside "
            "repro.core",
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_state_mutation(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_state_mutation(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_state_mutation(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_state_mutation(target)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            not self._in_core
            and isinstance(node.ctx, ast.Load)
            and node.attr in _PRIVATE_STATE_ATTRS
            and not self._base_is_self(node)
            and not (
                self._func_stack
                and self._func_stack[-1] in _ARITHMETIC_IMPLS
            )
        ):
            base = ast.unparse(node.value)
            self._report(
                node,
                "RS004",
                f"read of private sketch state `{base}.{node.attr}` "
                "bypasses the compatibility-checked API",
            )
        self.generic_visit(node)

    # -- RS003: metrics lookups ---------------------------------------------

    def _in_construction_path(self) -> bool:
        if self._in_decorator:
            return True
        if not self._func_stack:
            return True  # module level runs once, at import time
        return any(name in _CONSTRUCTION_FUNCS for name in self._func_stack)

    def _check_rs003(self, node: ast.Call) -> None:
        if self._is_test or self._in_observability:
            return
        if self._in_construction_path():
            return
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _REGISTRY_LOOKUPS:
            base = ast.unparse(func.value)
            self._report(
                node,
                "RS003",
                f"metrics-registry lookup `{base}.{func.attr}(...)` outside "
                "a construction path",
            )
        elif (
            isinstance(func, ast.Name)
            and func.id in self._observability_timed
        ):
            self._report(
                node,
                "RS003",
                f"metrics-registry lookup `{func.id}(...)` outside a "
                "construction path",
            )

    # -- RS004: unchecked merge helpers -------------------------------------

    def _check_rs004_call(self, node: ast.Call) -> None:
        if self._in_core:
            return
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "_with_counters":
            base = ast.unparse(func.value)
            self._report(
                node,
                "RS004",
                f"`{base}._with_counters(...)` builds a sketch without the "
                "compatibility check",
            )

    # -- RS005: float counts ------------------------------------------------

    def _check_rs005(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if (
                keyword.arg in _COUNT_KEYWORDS
                and keyword.value is not None
                and _float_literal(keyword.value)
            ):
                self._report(
                    keyword.value,
                    "RS005",
                    f"float literal passed as `{keyword.arg}=`",
                )
        func = node.func
        name = None
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        position = _COUNT_POSITIONS.get(name or "")
        if position is None or len(node.args) <= position:
            return
        argument = node.args[position]
        if _float_literal(argument):
            if (
                name == "scale"
                and isinstance(argument, ast.Constant)
                and _is_exact_reciprocal(argument.value)
            ):
                # scale(0.5) floor-halves counters (the TinyLFU reset);
                # exact reciprocals keep the int64 invariant.
                return
            self._report(
                argument,
                "RS005",
                f"float literal passed as the count argument of "
                f"`{name}(...)`",
            )

    # -- RS006: raw state serialization ---------------------------------------

    def _serializer_target(self, func: ast.expr) -> str | None:
        """Resolve a call target to a serializer's display name, if any."""
        if isinstance(func, ast.Attribute):
            value = func.value
            if not isinstance(value, ast.Name):
                return None
            module = self._serializer_aliases.get(value.id)
            if module is not None and func.attr in _SERIALIZER_FUNCS[module]:
                return f"{module}.{func.attr}"
            if (
                value.id in self._numpy_aliases
                and func.attr in _SERIALIZER_FUNCS["numpy"]
            ):
                return f"numpy.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in self._from_serializer:
            module, attr = self._from_serializer[func.id]
            return f"{module}.{attr}"
        return None

    @staticmethod
    def _references_sketch_state(node: ast.Call) -> bool:
        """True when the call's argument tree reaches sketch state: a
        counter-array attribute or a ``state_dict()`` export."""
        roots: list[ast.expr] = list(node.args)
        roots.extend(
            keyword.value
            for keyword in node.keywords
            if keyword.value is not None
        )
        for root in roots:
            for child in ast.walk(root):
                if (
                    isinstance(child, ast.Attribute)
                    and child.attr in _SERIALIZED_STATE_ATTRS
                ):
                    return True
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "state_dict"
                ):
                    return True
        return False

    def _check_rs006(self, node: ast.Call) -> None:
        if self._in_store:
            return
        target = self._serializer_target(node.func)
        if target is None:
            return
        if self._references_sketch_state(node):
            self._report(
                node,
                "RS006",
                f"`{target}(...)` serializes raw sketch state outside "
                "repro.store",
            )

    # -- RS007: blocking calls in async service code --------------------------

    def visit_Await(self, node: ast.Await) -> None:
        self._awaited_calls.add(id(node.value))
        self.generic_visit(node)

    def _blocking_target(self, func: ast.expr) -> str | None:
        """Resolve a call target to a blocking API's display name."""
        if isinstance(func, ast.Attribute):
            if func.attr in _BLOCKING_METHODS:
                return f"{ast.unparse(func.value)}.{func.attr}"
            value = func.value
            if isinstance(value, ast.Name):
                module = self._blocking_module_aliases.get(value.id)
                if (
                    module is not None
                    and func.attr in _BLOCKING_MODULE_CALLS[module]
                ):
                    return f"{module}.{func.attr}"
                if (
                    value.id in self._store_module_aliases
                    and func.attr in _STORE_IO_FUNCS
                ):
                    return f"repro.store.{func.attr}"
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "store"
                and isinstance(value.value, ast.Name)
                and value.value.id == "repro"
                and func.attr in _STORE_IO_FUNCS
            ):
                return f"repro.store.{func.attr}"
        elif isinstance(func, ast.Name):
            if func.id == "open":
                return "open"
            return self._from_blocking.get(func.id)
        return None

    def _check_rs007(self, node: ast.Call) -> None:
        if not self._in_service:
            return
        if not (self._async_stack and self._async_stack[-1]):
            return
        if id(node) in self._awaited_calls:
            return  # awaited: an async namesake, not the blocking API
        target = self._blocking_target(node.func)
        if target is None:
            return
        self._report(
            node,
            "RS007",
            f"blocking call `{target}(...)` inside an `async def` stalls "
            "the event loop",
        )

    # -- RS008: binary wire codec outside repro.service.protocol -------------

    def _binary_codec_target(self, func: ast.expr) -> str | None:
        """Resolve a call target to a binary pack/unpack primitive name."""
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name):
                if value.id in self._struct_aliases:
                    return f"struct.{func.attr}"
                if value.id in self._numpy_aliases and func.attr == "frombuffer":
                    return "np.frombuffer"
            if func.attr in _BINARY_METHODS:
                return func.attr
        elif isinstance(func, ast.Name):
            if func.id in self._from_struct:
                return f"struct.{self._from_struct[func.id]}"
        return None

    def _check_rs008(self, node: ast.Call) -> None:
        if not self._in_service or self._in_service_protocol:
            return
        target = self._binary_codec_target(node.func)
        if target is None:
            return
        self._report(
            node,
            "RS008",
            f"binary payload codec `{target}(...)` outside "
            "repro.service.protocol",
        )

    # -- dispatch ------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_rs001(node)
        self._check_rs003(node)
        self._check_rs004_call(node)
        self._check_rs005(node)
        self._check_rs006(node)
        self._check_rs007(node)
        self._check_rs008(node)
        self.generic_visit(node)


# -- running -----------------------------------------------------------------


@dataclass(frozen=True)
class _Analysis:
    """Everything one parse of one module yields: kept findings,
    suppressed count, and per-stage wall-clock seconds."""

    findings: tuple[Finding, ...]
    suppressed: int
    fast_seconds: float
    flow_seconds: float


def _analyze(source: str, path: Path) -> _Analysis:
    """Parse once, run the fast AST stage and the flow stage, apply
    ``noqa`` suppression.

    Raises:
        SyntaxError: when ``source`` does not parse.
    """
    tree = ast.parse(source, filename=str(path))
    started = time.perf_counter()
    checker = _Checker(path, str(path))
    checker.visit(tree)
    findings = list(checker.findings)
    fast_seconds = time.perf_counter() - started
    started = time.perf_counter()
    findings.extend(
        Finding(str(path), line, col, code, message)
        for line, col, code, message in run_flow_rules(tree, path)
    )
    flow_seconds = time.perf_counter() - started
    suppressions = _noqa_map(source)
    kept = tuple(
        finding
        for finding in findings
        if not _is_suppressed(finding, suppressions)
    )
    return _Analysis(
        findings=kept,
        suppressed=len(findings) - len(kept),
        fast_seconds=fast_seconds,
        flow_seconds=flow_seconds,
    )


#: Per-process analysis cache: (path, mtime_ns, size) -> analysis.  The
#: test suite and the CI gate lint the same tree repeatedly (fast stage,
#: flow stage, determinism runs); one parse + one CFG build per file
#: version serves them all.
_ANALYSIS_CACHE: dict[tuple[str, int, int], _Analysis] = {}


def _analyze_file(path: Path) -> _Analysis:
    try:
        stat = path.stat()
        key = (str(path), stat.st_mtime_ns, stat.st_size)
    except OSError:
        key = None  # type: ignore[assignment]
    if key is not None:
        cached = _ANALYSIS_CACHE.get(key)
        if cached is not None:
            return _Analysis(
                findings=cached.findings,
                suppressed=cached.suppressed,
                fast_seconds=0.0,
                flow_seconds=0.0,
            )
    analysis = _analyze(path.read_text(encoding="utf-8"), path)
    if key is not None:
        _ANALYSIS_CACHE[key] = analysis
    return analysis


def lint_source(
    source: str, path: str | Path = "<string>"
) -> list[Finding]:
    """Lint one module's source text; returns unsuppressed findings.

    Raises:
        SyntaxError: when ``source`` does not parse.
    """
    return list(_analyze(source, Path(path)).findings)


def _iter_python_files(
    paths: Sequence[str | Path], include_fixtures: bool
) -> Iterator[Path]:
    seen: set[Path] = set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            candidates = [root]
        else:
            candidates = sorted(root.rglob("*.py"))
        for candidate in candidates:
            if candidate in seen:
                continue
            parts = candidate.parts
            if "__pycache__" in parts:
                continue
            if not include_fixtures and candidate != root and (
                "fixtures" in parts
            ):
                continue
            seen.add(candidate)
            yield candidate


def lint_paths(
    paths: Sequence[str | Path],
    include_fixtures: bool = False,
    select: frozenset[str] | None = None,
    ignore: frozenset[str] = frozenset(),
) -> LintResult:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    Directory walks skip ``__pycache__`` and (unless ``include_fixtures``)
    any ``fixtures`` directory — lint fixtures are data, not code.
    Explicit file arguments are always linted.  ``select`` restricts
    output to the given rule codes (``None`` = all rules); ``ignore``
    drops codes after selection.  Filtering happens on the analysis
    output, so repeated calls with different selections share the
    per-file cache.
    """
    findings: list[Finding] = []
    files = 0
    suppressed = 0
    fast_seconds = 0.0
    flow_seconds = 0.0
    for path in _iter_python_files(paths, include_fixtures):
        analysis = _analyze_file(path)
        files += 1
        findings.extend(analysis.findings)
        suppressed += analysis.suppressed
        fast_seconds += analysis.fast_seconds
        flow_seconds += analysis.flow_seconds
    if select is not None:
        findings = [f for f in findings if f.code in select]
    if ignore:
        findings = [f for f in findings if f.code not in ignore]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return LintResult(
        findings=tuple(findings),
        files_checked=files,
        suppressed=suppressed,
        fast_seconds=fast_seconds,
        flow_seconds=flow_seconds,
    )


def parse_rule_spec(spec: str) -> frozenset[str]:
    """Expand a ``--select`` / ``--ignore`` value into rule codes.

    Accepts comma-separated codes and inclusive ranges:
    ``"RS005"``, ``"RS001,RS003"``, ``"RS009-RS012"``, or a mix.

    Raises:
        ValueError: on malformed items or unknown rule codes.
    """
    codes: set[str] = set()
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        match = re.fullmatch(r"(RS\d{3})(?:-(RS\d{3}))?", item)
        if match is None:
            raise ValueError(f"malformed rule spec item: {item!r}")
        low, high = match.group(1), match.group(2) or match.group(1)
        expanded = {
            f"RS{number:03d}"
            for number in range(int(low[2:]), int(high[2:]) + 1)
        }
        unknown = expanded - RULES_BY_CODE.keys()
        if unknown:
            raise ValueError(
                f"unknown rule code(s): {', '.join(sorted(unknown))}"
            )
        codes |= expanded
    if not codes:
        raise ValueError(f"empty rule spec: {spec!r}")
    return frozenset(codes)


def _load_baseline(path: Path) -> set[tuple[str, str, str]]:
    """Load a ``--baseline`` allowlist: ``(path, code, message)`` keys.

    The file is the ``--format json`` output (or just its ``findings``
    array); line/column drift is deliberately ignored so a baseline
    survives unrelated edits.

    Raises:
        ValueError: when the file is not valid baseline JSON.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ValueError(f"baseline {path}: invalid JSON: {error}") from error
    entries = payload.get("findings") if isinstance(payload, dict) else payload
    if not isinstance(entries, list):
        raise ValueError(
            f"baseline {path}: expected a findings array or a "
            f"--format json document"
        )
    baseline: set[tuple[str, str, str]] = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"baseline {path}: non-object entry: {entry!r}")
        try:
            baseline.add(
                (
                    str(entry["path"]),
                    str(entry["code"]),
                    str(entry["message"]),
                )
            )
        except KeyError as error:
            raise ValueError(
                f"baseline {path}: entry missing key {error}"
            ) from error
    return baseline


def _format_rules() -> str:
    lines = []
    for rule in RULES:
        lines.append(f"{rule.code} [{rule.name}] {rule.summary}")
        lines.append(f"    fix: {rule.hint}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    Returns a process exit code: 0 clean, 1 findings, 2 syntax error in
    a linted file or a bad ``--select`` / ``--ignore`` / ``--baseline``
    argument.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="repo-specific AST + dataflow lint suite "
        "(rules RS001-RS012)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--include-fixtures", action="store_true",
        help="also lint files under fixtures/ directories",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--select", metavar="RULES", default=None,
        help="only report these rules; comma-separated codes and ranges "
        "(e.g. RS005 or RS009-RS012)",
    )
    parser.add_argument(
        "--ignore", metavar="RULES", default=None,
        help="drop these rules from the report; same syntax as --select",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", type=Path, default=None,
        help="allowlist of known findings to ignore — the --format json "
        "output of a previous run (matched on path/code/message)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_format_rules())
        return 0

    try:
        select = (
            parse_rule_spec(args.select) if args.select is not None else None
        )
        ignore = (
            parse_rule_spec(args.ignore)
            if args.ignore is not None
            else frozenset()
        )
        baseline = (
            _load_baseline(args.baseline)
            if args.baseline is not None
            else None
        )
    except (ValueError, OSError) as error:
        print(f"repro-lint: {error}", file=sys.stderr)
        return 2

    try:
        result = lint_paths(
            args.paths,
            include_fixtures=args.include_fixtures,
            select=select,
            ignore=ignore,
        )
    except SyntaxError as error:
        print(f"repro-lint: syntax error: {error}", file=sys.stderr)
        return 2

    findings = list(result.findings)
    baselined = 0
    if baseline is not None:
        kept = [
            finding
            for finding in findings
            if (finding.path, finding.code, finding.message) not in baseline
        ]
        baselined = len(findings) - len(kept)
        findings = kept

    if args.format == "json":
        print(
            json.dumps(
                {
                    "version": 1,
                    "files_checked": result.files_checked,
                    "suppressed": result.suppressed,
                    "baselined": baselined,
                    "findings": [f.to_dict() for f in findings],
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.format_human())
    print(
        f"repro-lint: {len(findings)} finding(s), "
        f"{result.suppressed} suppressed, {baselined} baselined, "
        f"{result.files_checked} file(s) checked "
        f"[fast {result.fast_seconds:.2f}s, flow {result.flow_seconds:.2f}s]",
        file=sys.stderr,
    )
    return 0 if not findings else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like grep.
        sys.exit(141)

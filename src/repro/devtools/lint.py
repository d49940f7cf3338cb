"""Repo-specific AST linter: the REP rule catalogue.

General-purpose linters cannot see this repository's structural contracts —
that the discrete-event simulator owns time, that stream generators must be
seeded, that instrumentation on hot paths must stay behind the
:data:`repro.obs.metrics.ENABLED` fast-path check.  This module encodes those
contracts as AST checks:

========  ==================================================================
code      rule
========  ==================================================================
REP001    no unseeded ``random`` / ``np.random`` module-level RNG calls in
          ``simulate/``, ``replication/``, ``data/`` — route randomness
          through an injected, seeded ``numpy.random.Generator``
REP002    no wall-clock reads (``time.time``, ``datetime.now``, ...) in
          simulation/event paths (``simulate/``, ``core/``, ``network/``,
          ``replication/``) — the simulator owns virtual time;
          ``time.perf_counter`` stays legal for duration measurement
REP003    no float ``==`` / ``!=`` against non-zero float literals or
          coefficient/precision-named values — compare with a tolerance
          (exact comparisons against the literal ``0.0`` sentinel are legal)
REP004    ``obs.counter`` / ``obs.gauge`` / ``obs.histogram`` calls in hot
          paths must sit behind an ``ENABLED``-style guard so a metrics-off
          process pays only the attribute check
REP005    no mutable default arguments (``def f(x=[])``) anywhere
REP006    no per-value Python loops feeding ``<swat-like>.update(v)`` in
          library code (``core/``, ``replication/``, ``histogram/``,
          ``sketches/``, ``network/``) — pass the block to ``.extend``,
          whose batched ingest path is bit-identical and vectorized
          (``experiments/`` is exempt: per-arrival timing loops are the
          point of Figure 6)
REP007    no bare ``except:`` and no swallowed exceptions in the
          fault-handling layers (``network/``, ``replication/``) — a
          handler must name the exception it expects, and a broad
          ``except Exception`` or a silent ``pass`` body hides exactly
          the failures the reliability sublayer exists to surface
REP008    no same-timestamp write/read conflicts on shared handler state
          (``simulate/``, ``network/``, ``replication/``) — an attribute
          plain-written by one event handler and read by another is
          decided by tie-break order when both fire at one virtual
          instant; use keyed/commutative structures
REP009    no order-sensitive dict/set iteration in handler-reachable code
          (same scope) — set order is hash order, dict order is event
          insertion order; iterate ``sorted(...)``
REP010    no ambient-state calls (module-level RNG, wall clock, uuid4,
          os.urandom) reachable from an event handler, one call level
          deep — interprocedural extension of REP001/REP002
REP011    no per-query Python loops feeding ``<swat-like>.answer`` /
          ``.estimates`` / ``.cover`` or ``build_cover(...)`` in library
          serving paths (``core/``, ``replication/``, ``histogram/``,
          ``sketches/``, ``network/``) — route repeated reads through
          ``QueryEngine.answer_batch``, which compiles the cover once per
          (shape, phase) and stays bit-identical (read-side mirror of
          REP006)
REP012    no direct mutation of summary tuning state (``k``,
          ``min_level``, node ``coeffs`` / ``positions``) outside
          ``repro.control`` and ``repro.core.swat`` / ``repro.core.node``
          — reconfiguration must go through ``Swat.reconfigure`` (or the
          governor) so query-plan epochs bump and the byte ledger stays
          exact; constructors (``__init__``) may still initialize
========  ==================================================================

REP008-REP010 are the static prong of the determinism sanitizer; their
effect-summary analysis lives in :mod:`repro.devtools.effects` and the
dynamic prong in :mod:`repro.simulate.shake` (``repro shake``).

A finding on any rule can be suppressed for one line with a trailing
``# repro: ignore[REP008]`` comment (several codes comma-separated);
suppressions should carry a nearby justification.

Run it as ``python -m tools.lint [paths...]`` or ``repro check [paths...]``;
the default target is ``src``.  Exit status is 1 when any finding is
reported, 0 on a clean tree.  See ``docs/static-analysis.md`` for the full
catalogue, rationale, and how to add a rule.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "check_source",
    "lint_file",
    "lint_paths",
    "main",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class Rule:
    """One lint rule: code, summary, directory scope, and checker.

    ``scope`` is a tuple of directory names; the rule applies to a file when
    any of those names appears among the file's path components (an empty
    scope applies everywhere).  ``check`` receives the parsed module (with
    parent links, see :func:`_attach_parents`) and yields findings.
    """

    code: str
    summary: str
    scope: Tuple[str, ...]
    check: Callable[[ast.Module, str], Iterator[Finding]]

    def applies_to(self, path: str) -> bool:
        if not self.scope:
            return True
        parts = os.path.normpath(path).split(os.sep)
        return any(part in self.scope for part in parts[:-1])


# ------------------------------------------------------------------ helpers


def _attach_parents(tree: ast.Module) -> None:
    """Give every node a ``_repro_parent`` link for ancestor walks."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._repro_parent = node  # type: ignore[attr-defined]


def _ancestors(node: ast.AST) -> Iterator[ast.AST]:
    current: Optional[ast.AST] = getattr(node, "_repro_parent", None)
    while current is not None:
        yield current
        current = getattr(current, "_repro_parent", None)


def _dotted_chain(node: ast.expr) -> Tuple[str, ...]:
    """``np.random.uniform`` -> ``("np", "random", "uniform")``; empty when
    the expression is not a plain dotted name."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return tuple(reversed(parts))
    return ()


def _identifier_of(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# ------------------------------------------------------------------- REP001

#: Seeded / construction entry points of ``random`` and ``numpy.random`` that
#: are fine to call; everything else on those modules drives hidden global
#: RNG state and breaks run-to-run determinism.
_SEEDED_RNG_ATTRS = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
     "Philox", "Random", "SystemRandom"}
)


def _check_rep001(tree: ast.Module, path: str) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _dotted_chain(node.func)
        hit: Optional[str] = None
        if len(chain) == 2 and chain[0] == "random":
            if chain[1] not in _SEEDED_RNG_ATTRS:
                hit = ".".join(chain)
        elif len(chain) == 3 and chain[0] in ("np", "numpy") and chain[1] == "random":
            if chain[2] not in _SEEDED_RNG_ATTRS:
                hit = ".".join(chain)
        if hit is not None:
            yield Finding(
                path, node.lineno, node.col_offset, "REP001",
                f"unseeded module-level RNG call {hit}(); route randomness "
                "through an injected numpy.random.default_rng(seed) Generator",
            )


# ------------------------------------------------------------------- REP002

#: Dotted suffixes that read the wall clock.  ``time.perf_counter`` (a
#: monotonic duration clock) is deliberately absent: measuring how long an
#: event handler took is legal, asking "what time is it" is not.
_WALL_CLOCK_SUFFIXES: Tuple[Tuple[str, ...], ...] = (
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "localtime"),
    ("time", "gmtime"),
    ("time", "ctime"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
)


def _check_rep002(tree: ast.Module, path: str) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _dotted_chain(node.func)
        if len(chain) < 2:
            continue
        suffix = chain[-2:]
        if suffix in _WALL_CLOCK_SUFFIXES:
            yield Finding(
                path, node.lineno, node.col_offset, "REP002",
                f"wall-clock read {'.'.join(chain)}() inside a simulation/event "
                "path; the simulator owns virtual time (Simulator.now) — use "
                "time.perf_counter only for duration measurement",
            )


# ------------------------------------------------------------------- REP003

#: Identifiers that denote wavelet coefficients, precisions, or derived
#: tolerances — quantities that accumulate float rounding and must never be
#: compared with ``==`` / ``!=``.
_FLOATY_NAME_RE = re.compile(
    r"(?:^|_)(?:coeffs?|coefficients?|precision|deviation|widths?|"
    r"tolerances?|tol|eps|delta)(?:$|_|\d)",
    re.IGNORECASE,
)


def _is_floaty_operand(node: ast.expr) -> Optional[str]:
    """A reason string when the operand must not be ``==``-compared."""
    if isinstance(node, ast.Constant) and type(node.value) is float:
        # Exact comparison against the 0.0 sentinel is a legitimate IEEE
        # idiom ("was a detail coefficient exactly cancelled"); any other
        # float literal is a tolerance bug waiting to happen.
        if node.value != 0.0:
            return f"float literal {node.value!r}"
        return None
    identifier = _identifier_of(node)
    if identifier is not None and _FLOATY_NAME_RE.search(identifier):
        return f"coefficient/precision value {identifier!r}"
    return None


def _check_rep003(tree: ast.Module, path: str) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            reason = _is_floaty_operand(lhs) or _is_floaty_operand(rhs)
            if reason is not None:
                yield Finding(
                    path, node.lineno, node.col_offset, "REP003",
                    f"float equality against {reason}; compare with an "
                    "explicit tolerance (math.isclose / abs(a - b) <= tol)",
                )


# ------------------------------------------------------------------- REP004

_OBS_FACTORIES = frozenset({"counter", "gauge", "histogram"})
_GUARD_NAME_RE = re.compile(r"enabled|obs_on", re.IGNORECASE)


def _is_enabled_guard(test: ast.expr) -> bool:
    """True when a guard test references the instrumentation switch — the
    ``ENABLED`` module attribute, a local mirror of it (``obs_on``), or an
    ``x is (not) None`` check on a sentinel derived from it."""
    for node in ast.walk(test):
        identifier = _identifier_of(node) if isinstance(node, ast.expr) else None
        if identifier is not None and _GUARD_NAME_RE.search(identifier):
            return True
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            if any(
                isinstance(c, ast.Constant) and c.value is None
                for c in node.comparators
            ):
                return True
    return False


def _check_rep004(tree: ast.Module, path: str) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _dotted_chain(node.func)
        if len(chain) != 2 or chain[0] not in ("obs", "metrics"):
            continue
        if chain[1] not in _OBS_FACTORIES:
            continue
        guarded = any(
            isinstance(ancestor, (ast.If, ast.IfExp))
            and _is_enabled_guard(ancestor.test)
            for ancestor in _ancestors(node)
        )
        if not guarded:
            yield Finding(
                path, node.lineno, node.col_offset, "REP004",
                f"hot-path instrumentation {'.'.join(chain)}() is not behind "
                "an ENABLED fast-path guard; wrap it in `if obs.ENABLED:` so "
                "a metrics-off process pays one attribute check",
            )


# ------------------------------------------------------------------- REP005

_MUTABLE_CTORS = frozenset({"list", "dict", "set"})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CTORS
    return False


def _check_rep005(tree: ast.Module, path: str) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield Finding(
                    path, default.lineno, default.col_offset, "REP005",
                    f"mutable default argument in {node.name}(); default to "
                    "None and create the object inside the function",
                )


# ------------------------------------------------------------------- REP006

#: Receivers that look like SWAT summaries — objects whose ``update`` has a
#: batched ``extend`` twin.  ``self.update(v)`` inside a fallback loop is
#: deliberately NOT matched: that loop is usually the scalar path ``extend``
#: itself dispatches to.
_BATCH_RECEIVER_RE = re.compile(r"swat|tree", re.IGNORECASE)


def _loop_target_names(node: ast.AST) -> frozenset:
    """Names bound by a loop target / comprehension generators."""
    targets: List[ast.expr] = []
    if isinstance(node, (ast.For, ast.AsyncFor)):
        targets.append(node.target)
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        targets.extend(gen.target for gen in node.generators)
    names = set()
    for target in targets:
        names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return frozenset(names)


def _check_rep006(tree: ast.Module, path: str) -> Iterator[Finding]:
    seen: set = set()
    for node in ast.walk(tree):
        loop_names = _loop_target_names(node)
        if not loop_names:
            continue
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call):
                continue
            chain = _dotted_chain(inner.func)
            if len(chain) < 2 or chain[-1] != "update":
                continue
            if not _BATCH_RECEIVER_RE.search(chain[-2]):
                continue
            arg_names = {
                n.id
                for arg in inner.args
                for n in ast.walk(arg)
                if isinstance(n, ast.Name)
            }
            if not (arg_names & loop_names):
                continue
            key = (inner.lineno, inner.col_offset)
            if key in seen:
                continue  # nested loops would re-report the same call
            seen.add(key)
            yield Finding(
                path, inner.lineno, inner.col_offset, "REP006",
                f"per-value Python loop feeding {'.'.join(chain)}(); pass the "
                "whole block to .extend(values) — the batched ingest path is "
                "bit-identical and O(B log N) instead of B interpreter trips",
            )


# ------------------------------------------------------------------- REP011

#: Read-side twins of REP006's ``update``: methods whose per-item loop has a
#: plan-cached batch equivalent on :class:`repro.core.engine.QueryEngine`.
_SERVE_METHODS = frozenset({"answer", "answer_range", "estimates", "cover"})


def _check_rep011(tree: ast.Module, path: str) -> Iterator[Finding]:
    seen: set = set()
    for node in ast.walk(tree):
        loop_names = _loop_target_names(node)
        if not loop_names:
            continue
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call):
                continue
            chain = _dotted_chain(inner.func)
            if not chain:
                continue
            if chain[-1] == "build_cover":
                verb = "build_cover()"
                hint = (
                    "compile the cover once per (shape, phase) with "
                    "repro.core.plan.compile_plan and reuse it"
                )
            elif (
                len(chain) >= 2
                and chain[-1] in _SERVE_METHODS
                and _BATCH_RECEIVER_RE.search(chain[-2])
            ):
                # ``self.<method>`` is deliberately not matched: inside the
                # summary that loop usually *is* the batched implementation.
                verb = f"{'.'.join(chain)}()"
                hint = (
                    "serve the whole batch through QueryEngine.answer_batch "
                    "— plans amortize the cover search and answers are "
                    "bit-identical"
                )
            else:
                continue
            arg_names = {
                n.id
                for arg in list(inner.args) + [kw.value for kw in inner.keywords]
                for n in ast.walk(arg)
                if isinstance(n, ast.Name)
            }
            if not (arg_names & loop_names):
                continue
            key = (inner.lineno, inner.col_offset)
            if key in seen:
                continue  # nested loops would re-report the same call
            seen.add(key)
            yield Finding(
                path, inner.lineno, inner.col_offset, "REP011",
                f"per-query Python loop feeding {verb} in a serving path; "
                + hint,
            )


# ------------------------------------------------------------------- REP007

#: Catch-all exception types: catching one of these without re-raising turns
#: every unexpected bug into silent data loss inside the reliability layer.
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _handler_type_names(handler: ast.ExceptHandler) -> Tuple[str, ...]:
    """Exception class names a handler catches (tuple types flattened)."""
    node = handler.type
    if node is None:
        return ()
    exprs = list(node.elts) if isinstance(node, ast.Tuple) else [node]
    names = []
    for expr in exprs:
        identifier = _identifier_of(expr)
        if identifier is not None:
            names.append(identifier)
    return tuple(names)


def _swallows_silently(handler: ast.ExceptHandler) -> bool:
    """True when the handler body does nothing at all (``pass`` / ``...``)."""
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in handler.body
    )


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(n, ast.Raise) for n in ast.walk(handler))


def _check_rep007(tree: ast.Module, path: str) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield Finding(
                path, node.lineno, node.col_offset, "REP007",
                "bare `except:` in fault-handling code catches everything "
                "(including KeyboardInterrupt); name the exception you "
                "expect — the reliability layer must surface faults it did "
                "not anticipate, not absorb them",
            )
            continue
        if _reraises(node):
            continue  # broad catch-log-reraise is a legitimate pattern
        names = _handler_type_names(node)
        broad = sorted(set(names) & _BROAD_EXCEPTIONS)
        if broad:
            yield Finding(
                path, node.lineno, node.col_offset, "REP007",
                f"broad `except {', '.join(broad)}` without re-raise in "
                "fault-handling code; catch the specific failure (or "
                "re-raise after recording) so injected-fault handling "
                "cannot mask protocol bugs",
            )
            continue
        if _swallows_silently(node):
            caught = ", ".join(names) if names else "exception"
            yield Finding(
                path, node.lineno, node.col_offset, "REP007",
                f"exception handler swallows {caught} silently (body is "
                "only `pass`); handle it, count it, or re-raise — dropped "
                "messages and crashed sites must stay observable",
            )


# ------------------------------------------------------------------- REP012

#: Tuning state that controls a summary's memory/accuracy trade-off.  A write
#: to one of these from arbitrary code bypasses ``Swat.reconfigure`` — no
#: epoch bump (stale compiled query plans), no ledger update (wrong byte
#: accounting), no settling discipline (cadence invariant violations).
_TUNING_ATTRS = frozenset({"k", "min_level", "coeffs", "positions"})
_TUNING_RECEIVER_RE = re.compile(r"swat|tree|node", re.IGNORECASE)
_TUNING_CLASS_RE = re.compile(r"swat|node", re.IGNORECASE)

#: Modules that legitimately own tuning state: the control subsystem (any
#: ``control`` package) and the summary implementation itself.
_TUNING_OWNER_BASENAMES = frozenset({"swat.py", "node.py"})


def _rep012_owner_module(path: str) -> bool:
    parts = os.path.normpath(path).split(os.sep)
    if "control" in parts[:-1]:
        return True
    return parts[-1] in _TUNING_OWNER_BASENAMES and "core" in parts[:-1]


def _in_init(node: ast.AST) -> bool:
    for ancestor in _ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor.name == "__init__"
    return False


def _enclosing_class(node: ast.AST) -> Optional[ast.ClassDef]:
    for ancestor in _ancestors(node):
        if isinstance(ancestor, ast.ClassDef):
            return ancestor
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # keep walking: methods live inside their class
            continue
    return None


def _check_rep012(tree: ast.Module, path: str) -> Iterator[Finding]:
    if _rep012_owner_module(path):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        flat: List[ast.expr] = []
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                flat.extend(target.elts)
            else:
                flat.append(target)
        for target in flat:
            if not isinstance(target, ast.Attribute):
                continue
            if target.attr not in _TUNING_ATTRS:
                continue
            receiver = target.value
            dotted = f"{_identifier_of(receiver) or '<expr>'}.{target.attr}"
            if isinstance(receiver, ast.Name) and receiver.id == "self":
                enclosing = _enclosing_class(target)
                if enclosing is None or not _TUNING_CLASS_RE.search(enclosing.name):
                    continue
                if _in_init(target):
                    continue  # constructors initialize; mutation is the sin
            else:
                identifier = _identifier_of(receiver)
                if identifier is None or not _TUNING_RECEIVER_RE.search(identifier):
                    continue
            yield Finding(
                path, target.lineno, target.col_offset, "REP012",
                f"direct mutation of summary tuning state {dotted}; go "
                "through Swat.reconfigure() (or the repro.control governor) "
                "so query-plan epochs bump, settling is honored, and byte "
                "accounting stays exact",
            )


# -------------------------------------------------------- REP008 - REP010

# The determinism-sanitizer rules are built on the effect-summary analysis
# in repro.devtools.effects (which lazily imports Finding back from here).
from .effects import check_rep008, check_rep009, check_rep010  # noqa: E402


# ------------------------------------------------------------------ registry

RULES: Tuple[Rule, ...] = (
    Rule(
        "REP001",
        "no unseeded random/np.random module-level RNG calls",
        ("simulate", "replication", "data"),
        _check_rep001,
    ),
    Rule(
        "REP002",
        "no wall-clock reads in simulation/event paths",
        ("simulate", "core", "network", "replication"),
        _check_rep002,
    ),
    Rule(
        "REP003",
        "no float ==/!= on coefficient or precision values",
        (),
        _check_rep003,
    ),
    Rule(
        "REP004",
        "hot-path obs instrumentation must be ENABLED-guarded",
        ("core", "network", "replication", "simulate"),
        _check_rep004,
    ),
    Rule(
        "REP005",
        "no mutable default arguments",
        (),
        _check_rep005,
    ),
    Rule(
        "REP006",
        "no per-value update loops where a batched extend would do",
        ("core", "replication", "histogram", "sketches", "network"),
        _check_rep006,
    ),
    Rule(
        "REP007",
        "no bare except or swallowed exceptions in fault-handling layers",
        ("network", "replication", "persist"),
        _check_rep007,
    ),
    Rule(
        "REP008",
        "no same-timestamp write/read conflicts on shared handler state",
        ("simulate", "network", "replication"),
        check_rep008,
    ),
    Rule(
        "REP009",
        "no order-sensitive dict/set iteration in handler-reachable code",
        ("simulate", "network", "replication"),
        check_rep009,
    ),
    Rule(
        "REP010",
        "no ambient-state calls reachable from event handlers",
        ("simulate", "network", "replication"),
        check_rep010,
    ),
    Rule(
        "REP011",
        "no per-query answer/cover loops where a plan-cached batch would do",
        ("core", "replication", "histogram", "sketches", "network"),
        _check_rep011,
    ),
    Rule(
        "REP012",
        "summary tuning state (k/min_level/coeffs) only mutable via "
        "reconfigure or the control subsystem",
        (),
        _check_rep012,
    ),
)

_RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in RULES}


# -------------------------------------------------------------------- driver

#: Inline suppression: ``# repro: ignore[REP008]`` (codes comma-separated)
#: on the finding's line silences those codes for that line only.
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Z0-9,\s]+)\]")


def _suppressions(source: str) -> Dict[int, frozenset]:
    """Map of 1-based line number -> rule codes suppressed on that line."""
    out: Dict[int, frozenset] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is not None:
            codes = frozenset(
                c.strip() for c in match.group(1).split(",") if c.strip()
            )
            out[lineno] = codes
    return out


def check_source(
    source: str, path: str, select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint one module's source text; ``path`` scopes directory-bound rules."""
    tree = ast.parse(source, filename=path)
    _attach_parents(tree)
    suppressed = _suppressions(source)
    findings: List[Finding] = []
    for rule in RULES:
        if select is not None and rule.code not in select:
            continue
        if not rule.applies_to(path):
            continue
        findings.extend(
            f for f in rule.check(tree, path)
            if f.code not in suppressed.get(f.line, frozenset())
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def lint_file(path: str, select: Optional[Sequence[str]] = None) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as fh:
        return check_source(fh.read(), path, select)


def _iter_python_files(target: str) -> Iterator[str]:
    if os.path.isfile(target):
        yield target
        return
    for dirpath, dirnames, filenames in os.walk(target):
        dirnames[:] = sorted(
            d for d in dirnames if not d.startswith(".") and d != "__pycache__"
        )
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def lint_paths(
    paths: Sequence[str], select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint files and directory trees; returns all findings, sorted."""
    findings: List[Finding] = []
    for target in paths:
        if not os.path.exists(target):
            raise FileNotFoundError(f"no such file or directory: {target!r}")
        for path in _iter_python_files(target):
            findings.extend(lint_file(path, select))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools.lint",
        description="Repo-specific AST linter (rules REP001-REP012).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            where = ", ".join(rule.scope) if rule.scope else "everywhere"
            print(f"{rule.code}  {rule.summary}  [{where}]")
        return 0

    select: Optional[List[str]] = None
    if args.select is not None:
        select = [code.strip().upper() for code in args.select.split(",") if code.strip()]
        unknown = [code for code in select if code not in _RULES_BY_CODE]
        if unknown:
            print(f"unknown rule codes: {', '.join(unknown)}", file=sys.stderr)
            return 2

    try:
        findings = lint_paths(args.paths, select)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tools.lint
    sys.exit(main())

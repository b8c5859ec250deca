#!/usr/bin/env python
"""Repo-specific AST lint for bug classes this codebase has actually hit.

Rules (all reported as ``file:line: RULE message``, exit 1 on findings):

* ``REPRO001`` falsy-or default on a container-like optional parameter:
  ``param or DEFAULT`` silently replaces an *empty* container with the
  default (the falsy-cache bug class — an injected empty cache must not
  fall through to the global one).  Write ``param if param is not None
  else DEFAULT``.
* ``REPRO002`` field assignment on ``self`` inside a
  ``@dataclass(frozen=True)`` — raises ``FrozenInstanceError`` at
  runtime; initialize via ``object.__setattr__`` in ``__post_init__``
  or compute in a property.
* ``REPRO003`` bare ``except:`` — swallows ``KeyboardInterrupt`` and
  ``SystemExit``; catch ``Exception`` (or narrower).
* ``REPRO004`` nondeterminism in journal/codec modules:
  ``time.time``/``datetime.now``/``uuid.uuid4``/``random.*`` in a
  module whose path contains ``journal`` or ``codec``.  Replay parity
  requires those files to be deterministic functions of their inputs.
* ``REPRO005`` ``assert`` used to validate a function parameter in
  non-test source: asserts vanish under ``python -O``, so input
  validation must raise a typed ``repro.errors`` exception instead.
  Fires when the assert's test reads a bare name that is a parameter of
  the enclosing function (``self``/``cls`` excluded); asserts on locals
  (internal invariants) stay allowed.  Test files are exempt.
* ``REPRO006`` direct wall-clock reads (``time.time``,
  ``time.monotonic``, ``time.perf_counter``, ``datetime.now``, …) in
  ``src/repro`` outside ``repro.telemetry``: all timing routes through
  :mod:`repro.telemetry.clock` so instrumentation stays consistent and
  the disabled mode has one switch.  A deliberate exception (e.g. the
  resource profiler's process-CPU reads, which are what it measures)
  is waived with a ``# lint: allow-wallclock`` comment on the
  offending line.
* ``REPRO007`` a ``scripts/bench_*.py`` benchmark that bypasses the
  bench registry: either it never imports :mod:`repro.obs` (every
  bench must declare a ``BenchSuite`` and run through
  ``repro.obs.bench``, which owns the artifact, the history ledger and
  the regression sentinel), or it calls ``json.dump``/``json.dumps``
  directly — free-floating metric files drift out of the ledger and
  are invisible to the sentinel.

Usage::

    python scripts/lint_repro.py [PATH ...]      # default: src/ scripts/
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

# Parameter names / annotation fragments that suggest a container (for
# which falsy and None are different states).
CONTAINERISH_NAMES = re.compile(
    r"(cache|entries|queue|jobs|records|items|pool|journal|buffer|batch|"
    r"registry|results|issues|reasons)$",
    re.IGNORECASE,
)
CONTAINERISH_ANNOTATIONS = re.compile(
    r"\b(dict|list|set|tuple|Dict|List|Set|Tuple|Sequence|Mapping|"
    r"Iterable|Collection|OrderedDict|deque)\b|Cache\b"
)
NONDETERMINISTIC_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
}
DETERMINISM_CRITICAL = re.compile(r"(journal|codec)")
WALLCLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
}
WALLCLOCK_WAIVER = "lint: allow-wallclock"


def _is_test_file(path: Path) -> bool:
    """REPRO005 exemption: pytest asserts are the assertion idiom."""
    if any(part in ("tests", "test") for part in path.parts):
        return True
    return path.name.startswith("test_") or path.name == "conftest.py"


def _parameter_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """All parameter names of *func*, minus the receiver."""
    args = func.args
    names = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            names.add(extra.arg)
    names.discard("self")
    names.discard("cls")
    return names


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str) -> None:
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _annotation_text(node: ast.AST | None) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return ""


def _optional_container_params(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameter names whose default is ``None`` and whose name or
    annotation suggests a container — the REPRO001 suspects."""
    suspects: set[str] = set()
    args = func.args
    positional = args.posonlyargs + args.args
    defaults: list[tuple[ast.arg, ast.expr | None]] = []
    pad = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        default = args.defaults[index - pad] if index >= pad else None
        defaults.append((arg, default))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        defaults.append((arg, default))
    for arg, default in defaults:
        if not (isinstance(default, ast.Constant) and default.value is None):
            continue
        annotation = _annotation_text(arg.annotation)
        if CONTAINERISH_NAMES.search(arg.arg) or CONTAINERISH_ANNOTATIONS.search(
            annotation
        ):
            suspects.add(arg.arg)
    return suspects


def _empty_fallback(node: ast.expr) -> bool:
    """True for fallbacks where empty-in means empty-out anyway:
    ``x or {}``, ``x or []``, ``x or ()``, ``x or dict()``, ``x or None``.
    Those are content-equivalent for an empty container, so REPRO001
    only fires on fallbacks that would *replace* the empty container
    (the ``cache or GLOBAL_CACHE`` bug)."""
    if isinstance(node, (ast.Dict, ast.List, ast.Tuple, ast.Set)):
        return not getattr(node, "elts", None) and not getattr(node, "keys", None)
    if isinstance(node, ast.Constant) and node.value is None:
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"dict", "list", "set", "tuple", "frozenset"}
        and not node.args
        and not node.keywords
    ):
        return True
    return False


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        name = _annotation_text(decorator.func)
        if not name.endswith("dataclass"):
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


def _is_bench_script(path: Path) -> bool:
    """REPRO007 scope: the benchmark entry points under ``scripts/``."""
    return path.name.startswith("bench_") and "scripts" in path.parts


def _is_clock_scoped(path: Path) -> bool:
    """True for files REPRO006 covers: under ``repro`` (the package) but
    outside the telemetry package itself, which owns the clock."""
    parts = path.parts
    return "repro" in parts and "telemetry" not in parts


class _Linter(ast.NodeVisitor):
    def __init__(self, path: Path, lines: tuple[str, ...] = ()) -> None:
        self.path = path
        self.lines = lines
        self.findings: list[Finding] = []
        self._suspect_stack: list[set[str]] = []
        self._param_stack: list[set[str]] = []
        self._frozen_depth = 0
        self._testish = _is_test_file(path)
        self._determinism_critical = bool(
            DETERMINISM_CRITICAL.search(self.path.name)
        )
        self._clock_scoped = _is_clock_scoped(path)
        self._bench_script = _is_bench_script(path)
        self._imports_obs = False

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(self.path, getattr(node, "lineno", 0), rule, message)
        )

    # -- REPRO001: falsy-or on optional container params -----------------

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._suspect_stack.append(_optional_container_params(node))
        self._param_stack.append(_parameter_names(node))
        self.generic_visit(node)
        self._param_stack.pop()
        self._suspect_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        if (
            isinstance(node.op, ast.Or)
            and self._suspect_stack
            and not _empty_fallback(node.values[-1])
        ):
            suspects = self._suspect_stack[-1]
            for value in node.values[:-1]:
                if isinstance(value, ast.Name) and value.id in suspects:
                    self._report(
                        node,
                        "REPRO001",
                        f"'{value.id} or ...' treats an empty container like "
                        f"None; use '{value.id} if {value.id} is not None "
                        "else ...'",
                    )
        self.generic_visit(node)

    # -- REPRO002: mutation inside frozen dataclasses --------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        frozen = _is_frozen_dataclass(node)
        if frozen:
            self._frozen_depth += 1
        self.generic_visit(node)
        if frozen:
            self._frozen_depth -= 1

    def _check_self_assign(self, target: ast.expr, node: ast.AST) -> None:
        if (
            self._frozen_depth
            and isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self._report(
                node,
                "REPRO002",
                f"assignment to 'self.{target.attr}' inside a frozen "
                "dataclass raises FrozenInstanceError; use "
                "object.__setattr__ in __post_init__",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_self_assign(target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_self_assign(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_self_assign(node.target, node)
        self.generic_visit(node)

    # -- REPRO003: bare except -------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                node,
                "REPRO003",
                "bare 'except:' swallows KeyboardInterrupt/SystemExit; "
                "catch Exception or narrower",
            )
        self.generic_visit(node)

    # -- REPRO007: bench scripts must speak the bench registry -----------

    def visit_Import(self, node: ast.Import) -> None:
        if any(alias.name.startswith("repro.obs") for alias in node.names):
            self._imports_obs = True
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if (node.module or "").startswith("repro.obs"):
            self._imports_obs = True
        self.generic_visit(node)

    # -- REPRO004: nondeterminism in journal/codec modules ---------------

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            base = node.func.value
            base_name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else ""
            )
            if self._determinism_critical and (
                (base_name, attr) in NONDETERMINISTIC_CALLS
                or base_name == "random"
            ):
                self._report(
                    node,
                    "REPRO004",
                    f"'{base_name}.{attr}()' in a {self._module_kind()} module "
                    "breaks replay determinism; derive values from the "
                    "journaled inputs instead",
                )
            # REPRO007: metric files written around the bench registry.
            if (
                self._bench_script
                and base_name == "json"
                and attr in ("dump", "dumps")
            ):
                self._report(
                    node,
                    "REPRO007",
                    f"'json.{attr}()' in a bench script bypasses the bench "
                    "registry; return the numbers in a BenchReport and let "
                    "repro.obs.bench own the artifact and the ledger",
                )
            # REPRO006: wall-clock reads outside repro.telemetry.
            if (
                self._clock_scoped
                and (base_name, attr) in WALLCLOCK_CALLS
                and not self._waived(node)
            ):
                self._report(
                    node,
                    "REPRO006",
                    f"direct '{base_name}.{attr}()' outside repro.telemetry; "
                    "route timing through repro.telemetry.clock (or waive a "
                    f"deliberate exception with '# {WALLCLOCK_WAIVER}')",
                )
        self.generic_visit(node)

    def _waived(self, node: ast.AST) -> bool:
        line = getattr(node, "lineno", 0)
        if 0 < line <= len(self.lines):
            return WALLCLOCK_WAIVER in self.lines[line - 1]
        return False

    def _module_kind(self) -> str:
        match = DETERMINISM_CRITICAL.search(self.path.name)
        return match.group(1) if match else "determinism-critical"

    # -- REPRO005: assert-based input validation -------------------------

    def visit_Assert(self, node: ast.Assert) -> None:
        if not self._testish and self._param_stack:
            params = self._param_stack[-1]
            asserted = sorted(
                {
                    name.id
                    for name in ast.walk(node.test)
                    if isinstance(name, ast.Name) and name.id in params
                }
            )
            if asserted:
                names = ", ".join(f"'{name}'" for name in asserted)
                self._report(
                    node,
                    "REPRO005",
                    f"assert validates parameter {names} but vanishes under "
                    "'python -O'; raise a typed repro.errors exception instead",
                )
        self.generic_visit(node)


def lint_file(path: Path) -> list[Finding]:
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError) as exc:
        return [Finding(path, getattr(exc, "lineno", 0) or 0, "REPRO000",
                        f"cannot lint: {exc}")]
    linter = _Linter(path, tuple(source.splitlines()))
    linter.visit(tree)
    if linter._bench_script and not linter._imports_obs:
        linter.findings.append(Finding(
            path, 1, "REPRO007",
            "bench script never imports repro.obs; register a BenchSuite "
            "through repro.obs.bench so its numbers reach the history "
            "ledger and the regression sentinel",
        ))
    return linter.findings


def lint_paths(paths: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    for raw in paths:
        path = Path(raw)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            findings.extend(lint_file(file))
    return findings


def main(argv: list[str]) -> int:
    paths = argv or ["src", "scripts"]
    findings = lint_paths(paths)
    for finding in sorted(findings, key=lambda f: (str(f.path), f.line)):
        print(finding)
    checked = paths if len(paths) > 1 else paths[0]
    if findings:
        print(f"lint_repro: {len(findings)} finding(s) in {checked}",
              file=sys.stderr)
        return 1
    print(f"lint_repro: clean ({checked})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

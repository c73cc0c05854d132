"""AST-based determinism lint pass.

``python -m repro.audit lint src/`` walks every Python file (test
fixtures excluded), applies the project rules of
:mod:`repro.audit.rules` and reports ``file:line:col`` findings with
the documented fix-it.  Findings on a line carrying an inline
``# audit: ignore[RULE]`` comment are counted as suppressed and do not
fail the run; any unsuppressed finding makes the exit status nonzero.

The checks are deliberately project-shaped, not a general linter: they
encode the specific discipline the bit-identity guarantees of this
repo rest on (seeded RNG streams, stable cache keys, fault errors
that propagate).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Union

from repro.audit.rules import RULES

#: numpy module-level draw functions backed by the hidden global RNG.
_NP_GLOBAL_FNS = frozenset(
    {
        "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
        "exponential", "gamma", "geometric", "gumbel", "hypergeometric",
        "laplace", "logistic", "lognormal", "logseries", "multinomial",
        "multivariate_normal", "negative_binomial", "noncentral_chisquare",
        "noncentral_f", "normal", "pareto", "permutation", "poisson",
        "power", "rand", "randint", "randn", "random", "random_integers",
        "random_sample", "ranf", "rayleigh", "sample", "seed", "shuffle",
        "standard_cauchy", "standard_exponential", "standard_gamma",
        "standard_normal", "standard_t", "triangular", "uniform",
        "vonmises", "wald", "weibull", "zipf",
    }
)

#: Dotted wall-clock reads R2 flags (module-qualified access only;
#: ``time.monotonic`` / ``time.perf_counter`` are fine -- they measure
#: durations, not wall time).
_WALL_CLOCK_READS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Files whose module path puts them inside the observability layer,
#: the one place wall-clock reads are legitimate.
_WALL_CLOCK_EXEMPT = ("repro/obs/",)

_SUPPRESS_RE = re.compile(
    r"#\s*audit:\s*ignore(?:\[(?P<rules>[A-Z0-9,\s]+)\])?"
)


@dataclass(frozen=True)
class Finding:
    """One lint hit: location, rule, message and suppression state."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    suppressed: bool = False

    @property
    def fixit(self) -> str:
        return RULES[self.rule].fixit

    def render(self, show_fixit: bool = True) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule}[{RULES[self.rule].name}] {self.message}{mark}"
        )
        if show_fixit:
            text += f"\n    fix-it: {self.fixit}"
        return text


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _reraises(body: Sequence[ast.stmt]) -> bool:
    """Whether a handler body contains a bare ``raise``."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise) and node.exc is None:
                return True
    return False


class _RuleVisitor(ast.NodeVisitor):
    """Applies every rule to one module's AST."""

    def __init__(self, path: str, wall_clock_exempt: bool):
        self.path = path
        self.wall_clock_exempt = wall_clock_exempt
        self.raw: List[Finding] = []

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.raw.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    # -- R1 / R3 -------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            if (
                len(parts) >= 3
                and parts[-3] in ("np", "numpy")
                and parts[-2] == "random"
                and parts[-1] in _NP_GLOBAL_FNS
            ):
                self._flag(
                    node,
                    "R1",
                    f"{dotted}() draws from numpy's hidden global RNG",
                )
            if parts[-1] == "default_rng" and not node.args and not any(
                kw.arg == "seed" for kw in node.keywords
            ):
                self._flag(
                    node,
                    "R1",
                    f"{dotted}() without a seed is entropy-seeded",
                )
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1
            and not node.keywords
        ):
            self._flag(
                node,
                "R3",
                "id(...) is GC-reusable and must not feed cache keys",
            )
        self.generic_visit(node)

    # -- R2 ------------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self.wall_clock_exempt:
            dotted = _dotted(node)
            if dotted in _WALL_CLOCK_READS:
                self._flag(
                    node,
                    "R2",
                    f"wall-clock read {dotted} outside repro.obs",
                )
        self.generic_visit(node)

    # -- R4 ------------------------------------------------------------
    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            ):
                mutable = True
            if mutable:
                self._flag(
                    default,
                    "R4",
                    f"mutable default argument in {node.name}()",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- R6 ------------------------------------------------------------
    def visit_Try(self, node: ast.Try) -> None:
        for handler in node.handlers:
            self._check_handler(handler)
        self.generic_visit(node)

    def _check_handler(self, handler: ast.ExceptHandler) -> None:
        if handler.type is None:
            self._flag(
                handler,
                "R6",
                "bare except swallows KeyboardInterrupt/SystemExit",
            )
            return
        types = (
            list(handler.type.elts)
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        names = {_dotted(t) for t in types}
        if "BaseException" in names:
            self._flag(
                handler,
                "R6",
                "except BaseException swallows "
                "KeyboardInterrupt/SystemExit",
            )
        elif "Exception" in names and not _reraises(handler.body):
            self._flag(
                handler,
                "R6",
                "except Exception without re-raise swallows injected "
                "FaultErrors and AuditViolations",
            )


def _suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """line number -> suppressed rule ids (None = every rule)."""
    table: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = None
        else:
            table[lineno] = {
                r.strip() for r in rules.split(",") if r.strip()
            }
    return table


def _is_wall_clock_exempt(path: Path) -> bool:
    posix = path.as_posix()
    return any(marker in posix for marker in _WALL_CLOCK_EXEMPT)


def lint_source(
    source: str,
    path: Union[str, Path] = "<string>",
) -> List[Finding]:
    """Lint one module's source text; returns findings incl. suppressed."""
    path = Path(path)
    tree = ast.parse(source, filename=str(path))
    visitor = _RuleVisitor(str(path), _is_wall_clock_exempt(path))
    visitor.visit(tree)
    suppressed_lines = _suppressions(source)
    findings: List[Finding] = []
    for finding in visitor.raw:
        rules = suppressed_lines.get(finding.line, ...)
        is_suppressed = rules is None or (
            rules is not ... and finding.rule in rules
        )
        if is_suppressed:
            finding = Finding(
                path=finding.path,
                line=finding.line,
                col=finding.col,
                rule=finding.rule,
                message=finding.message,
                suppressed=True,
            )
        findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(path: Union[str, Path]) -> List[Finding]:
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), path)


def iter_python_files(
    paths: Iterable[Union[str, Path]]
) -> Iterator[Path]:
    """Every lintable .py file under ``paths``, test fixtures excluded."""
    for entry in paths:
        entry = Path(entry)
        candidates = (
            sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
        )
        for candidate in candidates:
            parts = candidate.parts
            if "tests" in parts or ".egg-info" in "".join(parts):
                continue
            if candidate.name == "conftest.py":
                continue
            yield candidate


def lint_paths(paths: Iterable[Union[str, Path]]) -> List[Finding]:
    """Lint every Python file under ``paths`` (dirs walked recursively)."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path))
    return findings

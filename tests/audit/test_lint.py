"""Static lint layer: every rule fires, suppresses and fixes cleanly.

Each rule gets the same trio: a positive snippet that must be flagged,
the same snippet with an inline suppression (counted but not failing),
and the documented fix-it applied (no finding at all).
"""

from pathlib import Path

import pytest

from repro.audit.__main__ import main as audit_main
from repro.audit.lint import Finding, lint_paths, lint_source
from repro.audit.rules import RULE_IDS, RULES, render_rule_table

SRC = Path(__file__).resolve().parents[2] / "src"


def rules_of(findings, suppressed=None):
    return [
        f.rule
        for f in findings
        if suppressed is None or f.suppressed is suppressed
    ]


# ---------------------------------------------------------------------------
# R1: unseeded RNG
# ---------------------------------------------------------------------------
class TestR1UnseededRng:
    def test_module_level_draw_flagged(self):
        findings = lint_source("import numpy as np\nx = np.random.normal(0, 1)\n")
        assert rules_of(findings) == ["R1"]
        assert findings[0].line == 2

    def test_unseeded_default_rng_flagged(self):
        findings = lint_source("rng = np.random.default_rng()\n")
        assert rules_of(findings) == ["R1"]

    def test_fixit_seeded_generator_clean(self):
        assert lint_source("rng = np.random.default_rng(1234)\n") == []
        assert lint_source("rng = np.random.default_rng(seed=7)\n") == []
        assert lint_source("x = rng.normal(0, 1)\n") == []

    def test_suppressed(self):
        findings = lint_source(
            "x = np.random.normal(0, 1)  # audit: ignore[R1]\n"
        )
        assert rules_of(findings, suppressed=True) == ["R1"]
        assert rules_of(findings, suppressed=False) == []


# ---------------------------------------------------------------------------
# R2: wall-clock reads
# ---------------------------------------------------------------------------
class TestR2WallClock:
    def test_time_time_flagged(self):
        findings = lint_source("import time\nt = time.time()\n")
        assert rules_of(findings) == ["R2"]

    def test_datetime_now_flagged(self):
        findings = lint_source("now = datetime.now()\n")
        assert rules_of(findings) == ["R2"]

    def test_obs_layer_exempt(self):
        findings = lint_source(
            "t = time.time()\n", path="src/repro/obs/events.py"
        )
        assert findings == []

    def test_fixit_monotonic_clean(self):
        assert lint_source("t = time.monotonic()\n") == []
        assert lint_source("t = time.perf_counter()\n") == []

    def test_suppressed(self):
        findings = lint_source("t = time.time()  # audit: ignore[R2]\n")
        assert rules_of(findings, suppressed=True) == ["R2"]


# ---------------------------------------------------------------------------
# R3: id() cache keys
# ---------------------------------------------------------------------------
class TestR3IdCacheKey:
    def test_id_call_flagged(self):
        findings = lint_source("key = (id(cluster), genome)\n")
        assert rules_of(findings) == ["R3"]

    def test_fixit_uid_clean(self):
        assert lint_source("key = (cluster.uid, genome)\n") == []

    def test_suppressed(self):
        findings = lint_source("key = id(obj)  # audit: ignore[R3]\n")
        assert rules_of(findings, suppressed=True) == ["R3"]


# ---------------------------------------------------------------------------
# R4: mutable default arguments
# ---------------------------------------------------------------------------
class TestR4MutableDefault:
    def test_list_literal_flagged(self):
        findings = lint_source("def f(items=[]):\n    return items\n")
        assert rules_of(findings) == ["R4"]

    def test_constructor_call_flagged(self):
        findings = lint_source("def f(seen=set()):\n    return seen\n")
        assert rules_of(findings) == ["R4"]

    def test_kwonly_default_flagged(self):
        findings = lint_source("def f(*, cache={}):\n    return cache\n")
        assert rules_of(findings) == ["R4"]

    def test_fixit_none_default_clean(self):
        source = (
            "def f(items=None):\n"
            "    items = [] if items is None else items\n"
            "    return items\n"
        )
        assert lint_source(source) == []

    def test_suppressed(self):
        findings = lint_source(
            "def f(items=[]):  # audit: ignore[R4]\n    return items\n"
        )
        assert rules_of(findings, suppressed=True) == ["R4"]


# ---------------------------------------------------------------------------
# R6: over-broad except
# ---------------------------------------------------------------------------
class TestR6OverbroadExcept:
    def test_bare_except_flagged(self):
        findings = lint_source(
            "try:\n    risky()\nexcept:\n    pass\n"
        )
        assert rules_of(findings) == ["R6"]

    def test_base_exception_flagged(self):
        findings = lint_source(
            "try:\n    risky()\nexcept BaseException:\n    pass\n"
        )
        assert rules_of(findings) == ["R6"]

    def test_swallowing_exception_flagged(self):
        findings = lint_source(
            "try:\n    risky()\nexcept Exception:\n    fallback = None\n"
        )
        assert rules_of(findings) == ["R6"]

    def test_exception_with_reraise_clean(self):
        source = (
            "try:\n"
            "    risky()\n"
            "except Exception:\n"
            "    cleanup()\n"
            "    raise\n"
        )
        assert lint_source(source) == []

    def test_fixit_narrow_types_clean(self):
        source = (
            "try:\n"
            "    risky()\n"
            "except (pickle.PicklingError, TypeError):\n"
            "    fallback = None\n"
        )
        assert lint_source(source) == []

    def test_suppressed(self):
        findings = lint_source(
            "try:\n    risky()\nexcept Exception:  # audit: ignore[R6]\n"
            "    pass\n"
        )
        assert rules_of(findings, suppressed=True) == ["R6"]


# ---------------------------------------------------------------------------
# suppression semantics
# ---------------------------------------------------------------------------
class TestSuppressions:
    def test_bare_ignore_suppresses_every_rule(self):
        findings = lint_source(
            "key = id(np.random.normal(0, 1))  # audit: ignore\n"
        )
        assert findings and all(f.suppressed for f in findings)

    def test_bracketed_ignore_is_rule_specific(self):
        findings = lint_source(
            "key = id(np.random.normal(0, 1))  # audit: ignore[R3]\n"
        )
        by_rule = {f.rule: f.suppressed for f in findings}
        assert by_rule == {"R1": False, "R3": True}


# ---------------------------------------------------------------------------
# CLI + file walking
# ---------------------------------------------------------------------------
class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n", encoding="utf-8")
        assert audit_main(["lint", str(target)]) == 0
        captured = capsys.readouterr()
        assert "0 finding(s)" in captured.err

    def test_dirty_file_exits_nonzero_with_fixit(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("key = id(obj)\n", encoding="utf-8")
        assert audit_main(["lint", str(target)]) == 1
        captured = capsys.readouterr()
        assert "R3" in captured.out
        assert "fix-it:" in captured.out

    def test_suppressed_only_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "hushed.py"
        target.write_text(
            "key = id(obj)  # audit: ignore[R3]\n", encoding="utf-8"
        )
        assert audit_main(["lint", str(target)]) == 0
        captured = capsys.readouterr()
        assert "1 suppressed" in captured.err
        assert "R3" not in captured.out
        audit_main(["lint", "--show-suppressed", str(target)])
        captured = capsys.readouterr()
        assert "(suppressed)" in captured.out

    def test_rules_subcommand_renders_table(self, capsys):
        assert audit_main(["rules"]) == 0
        captured = capsys.readouterr()
        for rule_id in RULE_IDS:
            assert rule_id in captured.out
        assert render_rule_table() in captured.out

    def test_test_directories_are_skipped(self, tmp_path):
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_x.py").write_text(
            "key = id(obj)\n", encoding="utf-8"
        )
        (tmp_path / "conftest.py").write_text(
            "t = time.time()\n", encoding="utf-8"
        )
        assert lint_paths([tmp_path]) == []


def test_source_tree_is_lint_clean():
    """Acceptance pin: the shipped src/ tree has zero findings."""
    findings = [f for f in lint_paths([SRC]) if not f.suppressed]
    rendered = "\n".join(f.render(show_fixit=False) for f in findings)
    assert not findings, f"unsuppressed audit findings:\n{rendered}"


def test_every_rule_documents_a_fixit():
    for rule in RULES.values():
        assert rule.fixit
        assert rule.summary

"""Kernel timing collection."""

import time

from repro.obs.timing import (
    KernelTimings,
    collect_kernel_timings,
    kernel_section,
    timed_kernel,
)


class TestKernelTimings:
    def test_accumulates_calls_and_seconds(self):
        t = KernelTimings()
        t.add("k", 0.5)
        t.add("k", 0.25)
        t.add("other", 1.0)
        snap = t.snapshot()
        assert snap["k"]["calls"] == 2
        assert abs(snap["k"]["total_s"] - 0.75) < 1e-9
        assert snap["other"]["calls"] == 1

    def test_merge_folds_a_snapshot(self):
        t = KernelTimings()
        t.add("k", 0.5)
        other = KernelTimings()
        other.add("k", 0.25)
        other.add("k", 0.25)
        other.add("w", 1.0)
        t.merge(other.snapshot())
        snap = t.snapshot()
        assert snap["k"]["calls"] == 3
        assert abs(snap["k"]["total_s"] - 1.0) < 1e-9
        assert snap["w"] == {"calls": 1, "total_s": 1.0}

    def test_snapshot_sorted_and_clear(self):
        t = KernelTimings()
        t.add("b", 1.0)
        t.add("a", 1.0)
        assert list(t.snapshot()) == ["a", "b"]
        assert bool(t)
        t.clear()
        assert not t
        assert t.snapshot() == {}


class TestCollection:
    def test_sections_ignored_without_collector(self):
        with kernel_section("free"):
            pass  # must not raise, must not record anywhere

    def test_section_records_into_active_collector(self):
        with collect_kernel_timings() as timings:
            with kernel_section("work"):
                time.sleep(0.001)
        assert timings.calls["work"] == 1
        assert timings.total_s["work"] > 0.0

    def test_decorator_records_per_call(self):
        @timed_kernel("fn")
        def compute(x):
            return x * 2

        assert compute(2) == 4  # inactive: plain passthrough
        with collect_kernel_timings() as timings:
            assert compute(3) == 6
            assert compute(4) == 8
        assert timings.calls["fn"] == 2

    def test_nested_collectors_restore_previous(self):
        with collect_kernel_timings() as outer:
            with kernel_section("a"):
                pass
            with collect_kernel_timings() as inner:
                with kernel_section("b"):
                    pass
            with kernel_section("c"):
                pass
        assert set(outer.calls) == {"a", "c"}
        assert set(inner.calls) == {"b"}

    def test_explicit_collector_reused(self):
        shared = KernelTimings()
        with collect_kernel_timings(shared):
            with kernel_section("x"):
                pass
        with collect_kernel_timings(shared):
            with kernel_section("x"):
                pass
        assert shared.calls["x"] == 2

    def test_instrumented_kernels_report(self):
        from repro import make_juno_board
        from repro.workloads.loops import high_low_program

        # A fresh board: the fixture cluster's session may already hold
        # this program's execution, and a cache hit schedules nothing.
        a53 = make_juno_board().a53
        program = high_low_program(a53.spec.isa)
        with collect_kernel_timings() as timings:
            a53.run(program)
        names = set(timings.snapshot())
        assert "cpu.pipeline.execute" in names
        assert "cpu.current.trace" in names
        assert "pdn.steady_state.solve" in names

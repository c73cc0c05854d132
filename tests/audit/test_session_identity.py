"""Cache-identity and bounding regressions the audit rules flagged.

The session used to key per-object caches by ``id(...)``; CPython
reuses addresses after garbage collection, so a session outliving a
cluster could serve the dead cluster's entries to a newly allocated
one.  Keys now come from ``Cluster.uid`` (process-monotonic).  Both
caches are also FIFO-bounded.
"""

import gc

import numpy as np

from repro.chain import session as session_module
from repro.chain.session import SimulationSession
from repro.platforms.registry import make_cluster
from repro.workloads.loops import high_low_program


class TestClusterUid:
    def test_uids_are_unique_and_monotonic(self):
        a = make_cluster("a53")
        b = make_cluster("a72")
        assert a.uid != b.uid
        assert b.uid > a.uid

    def test_uid_never_reused_after_gc(self):
        seen = set()
        for _ in range(5):
            cluster = make_cluster("a53")
            assert cluster.uid not in seen
            seen.add(cluster.uid)
            del cluster
            gc.collect()


def solve_args(cluster, samples=64):
    """``pdn_solve`` arguments whose grid key differs only by cluster:
    one powered core and a fixed sample rate on every platform."""
    return dict(
        powered_cores=1,
        voltage=cluster.voltage,
        load_current=np.linspace(1.0, 2.0, samples),
        sample_rate_hz=1.0e9,
    )


class TestAliasingRegression:
    def test_session_outliving_clusters_never_aliases(self):
        """Allocate/drop clusters in a loop against one long-lived
        session: each fresh cluster must get its own transfer-function
        grid, never a dead predecessor's.  The historical ``id()`` key
        bug needed only an address reuse, which this loop provokes; the
        grid keys differ only by cluster, and a53, a72 and amd grids
        differ."""
        session = SimulationSession()
        for name in ["a53", "a72", "amd"] * 3:
            cluster = make_cluster(name)
            args = solve_args(cluster)
            response = session.pdn_solve(cluster, **args)
            fresh = SimulationSession().pdn_solve(cluster, **args)
            np.testing.assert_array_equal(
                response.die_voltage, fresh.die_voltage
            )
            del cluster, response, fresh
            gc.collect()


class TestFifoEviction:
    def exec_args(self, cluster):
        return dict(
            program=high_low_program(cluster.spec.isa),
            active_cores=1,
            clock_hz=cluster.clock_hz,
        )

    def test_executions_evict_in_insertion_order(self, monkeypatch):
        monkeypatch.setattr(session_module, "MAX_EXECUTIONS", 2)
        cluster = make_cluster("a53")
        session = SimulationSession()
        args = self.exec_args(cluster)
        for iterations in (16, 17, 18):
            session.execution(cluster, iterations=iterations, **args)
        assert len(session._executions) == 2
        kept_iterations = [key[3] for key in session._executions]
        assert kept_iterations == [17, 18]  # 16 was first in, first out

    def test_post_eviction_recompute_is_identical(self, monkeypatch):
        monkeypatch.setattr(session_module, "MAX_EXECUTIONS", 2)
        cluster = make_cluster("a53")
        session = SimulationSession()
        args = self.exec_args(cluster)
        first = session.execution(cluster, iterations=16, **args)
        before = session.stats.execute_misses
        session.execution(cluster, iterations=17, **args)
        session.execution(cluster, iterations=18, **args)
        again = session.execution(cluster, iterations=16, **args)
        assert session.stats.execute_misses == before + 3  # recomputed
        np.testing.assert_array_equal(
            first.load_current, again.load_current
        )
        assert first.clock_hz == again.clock_hz

    def test_grid_caches_are_bounded(self, monkeypatch):
        monkeypatch.setattr(session_module, "MAX_GRIDS", 1)
        cluster = make_cluster("a53")
        session = SimulationSession()
        session.pdn_solve(cluster, **solve_args(cluster, samples=64))
        session.pdn_solve(cluster, **solve_args(cluster, samples=96))
        assert len(session._tf_grids) == 1
        (key,) = session._tf_grids
        assert key[2] == 96  # FIFO kept the newest

    def test_bounded_grid_still_correct_after_eviction(self, monkeypatch):
        monkeypatch.setattr(session_module, "MAX_GRIDS", 1)
        cluster = make_cluster("a53")
        session = SimulationSession()
        args = solve_args(cluster, samples=64)
        reference = session.pdn_solve(cluster, **args)
        session.pdn_solve(cluster, **solve_args(cluster, samples=96))
        again = session.pdn_solve(cluster, **args)
        assert session.stats.tf_misses == 3  # evicted, then recomputed
        np.testing.assert_array_equal(
            again.die_voltage, reference.die_voltage
        )

"""Coalescer batching rules: contiguous prefix runs only."""

from repro.service.coalescer import Coalescer, CompatKey
from repro.service.jobs import Job, MeasureSpec


def _key(samples=10):
    return CompatKey(
        platform="a53",
        analyzer_key=("sa", 1.0),
        band=(50e6, 200e6),
        samples=samples,
    )


def _job(n):
    return Job(
        id=f"job-{n}",
        tenant="t",
        spec=MeasureSpec(platform="a53"),
        seq=n,
    )


def test_compatible_run_batches_together():
    c = Coalescer(max_pending_jobs=10, max_batch_items=10)
    for n in range(3):
        c.push(_job(n), _key(), 1)
    batch = c.take_batch()
    assert [j.id for j in batch] == ["job-0", "job-1", "job-2"]
    assert len(c) == 0


def test_incompatible_head_blocks_coalescing_across_it():
    # 0 and 2 share a key but 1 sits between them: batching them
    # together would reorder the analyzer RNG stream, so the run
    # stops at the incompatible job.
    c = Coalescer(max_pending_jobs=10, max_batch_items=10)
    c.push(_job(0), _key(), 1)
    c.push(_job(1), _key(samples=99), 1)
    c.push(_job(2), _key(), 1)
    assert [j.id for j in c.take_batch()] == ["job-0"]
    assert [j.id for j in c.take_batch()] == ["job-1"]
    assert [j.id for j in c.take_batch()] == ["job-2"]


def test_exclusive_jobs_come_out_alone():
    c = Coalescer(max_pending_jobs=10, max_batch_items=10)
    c.push(_job(0), None, 1)
    c.push(_job(1), None, 1)
    assert [j.id for j in c.take_batch()] == ["job-0"]
    assert [j.id for j in c.take_batch()] == ["job-1"]


def test_item_budget_caps_batch_size():
    c = Coalescer(max_pending_jobs=10, max_batch_items=5)
    for n in range(3):
        c.push(_job(n), _key(), 2)
    assert [j.id for j in c.take_batch()] == ["job-0", "job-1"]
    assert [j.id for j in c.take_batch()] == ["job-2"]


def test_remove_drops_queued_job():
    c = Coalescer(max_pending_jobs=10, max_batch_items=10)
    c.push(_job(0), _key(), 1)
    c.push(_job(1), _key(), 1)
    assert c.remove("job-0").id == "job-0"
    assert c.remove("job-0") is None
    assert [j.id for j in c.take_batch()] == ["job-1"]


def test_full_property():
    c = Coalescer(max_pending_jobs=2, max_batch_items=10)
    assert not c.full
    c.push(_job(0), _key(), 1)
    c.push(_job(1), _key(), 1)
    assert c.full


def test_empty_take_returns_empty_list():
    c = Coalescer(max_pending_jobs=2, max_batch_items=10)
    assert c.take_batch() == []

"""Service smoke: concurrent HTTP clients vs a sequential twin.

The CI ``service-smoke`` lane's driver.  Phase one boots the real
measurement service behind its HTTP front end, occupies the worker
with a long warmup sweep, then lets N clients submit measure + sweep
jobs in a pinned global order (submissions are awaited in sequence --
the service's determinism contract is defined over submission order)
and long-poll their results concurrently.  Because the worker is busy
when the client jobs arrive, they pile up in the pending queue and
**must** coalesce into shared batches.  Phase two replays the exact
submission sequence against a twin service with the same seed, one job
at a time, waiting for each result before the next submission -- the
no-coalescing-possible baseline.

Before the pinned plan, phase one also posts one malformed job and
asserts the front end answers it with a 400 (:class:`BadRequest`)
rather than dropping the connection; a rejected job takes no queue
slot and no analyzer draw, so the results below do not change.

Both phases write their results as canonical JSON; the CI lane ends
with ``cmp coalesced.json sequential.json``, pinning the service's
bit-identity contract on a real TCP path.  The script also asserts a
clean shutdown: no asyncio task and no worker thread survives
``close()``.
"""

import argparse
import asyncio
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.platforms import registry  # noqa: E402
from repro.service import (  # noqa: E402
    BadRequest,
    HttpClient,
    MeasurementService,
    ServiceServer,
)

SEED = 2018
SAMPLES = 3
SWEEP_CLOCKS = [
    float(c)
    for c in registry.make_cluster("a53").spec.allowed_clocks_hz()[:2]
]
#: A job the service must refuse at submission with a 400.
MALFORMED_JOB = ("measure", {"platform": "a53", "program_length": "x"})


def job_plan(clients: int):
    """The pinned global submission order: warmup, then per-client
    measure + sweep."""
    plan = [("warmup", "sweep", {"platform": "a53"})]
    for i in range(clients):
        plan.append(
            (
                f"client{i}-measure",
                "measure",
                {"platform": "a53", "program_seed": 100 + i},
            )
        )
        plan.append(
            (
                f"client{i}-sweep",
                "sweep",
                {"platform": "a53", "clocks_hz": SWEEP_CLOCKS},
            )
        )
    return plan


async def coalesced_phase(clients: int):
    """N concurrent HTTP clients against one live service."""
    service = await MeasurementService(
        seed=SEED, samples=SAMPLES
    ).start()
    server = await ServiceServer(service, port=0).start()
    plan = job_plan(clients)
    results = {}
    try:
        submitter = HttpClient(server.host, server.port)
        assert (await submitter.healthz())["ok"]
        try:
            await submitter.submit(*MALFORMED_JOB, tenant="malformed")
        except BadRequest as exc:
            print(f"# malformed job refused with HTTP 400: {exc}")
        else:
            raise AssertionError(f"malformed job accepted: {MALFORMED_JOB}")
        # Pinned submission order (determinism is defined over it);
        # the warmup sweep keeps the worker busy so the client jobs
        # queue up and coalesce.
        job_ids = {}
        for name, kind, params in plan:
            accepted = await submitter.submit(kind, params, tenant=name)
            job_ids[name] = accepted["job_id"]

        async def poll(name):
            client = HttpClient(server.host, server.port)  # own conn
            view = await client.wait(job_ids[name], timeout_s=5.0)
            assert view["status"] == "done", (name, view)
            results[name] = view["result"]

        await asyncio.gather(*(poll(name) for name, _, _ in plan))
        stats = await submitter.stats()
        counters = stats["counters"]
        assert counters["done"] == len(plan), counters
        assert counters["coalesced_jobs"] > 0, (
            f"no coalescing happened: {counters}"
        )
        assert counters["batches"] < len(plan), counters
        print(
            f"# coalesced phase: {counters['done']} jobs in "
            f"{counters['batches']} batches "
            f"({counters['coalesced_jobs']} coalesced)"
        )
    finally:
        await server.close()
        await service.close()
    return results


async def sequential_phase(clients: int):
    """Twin service, same seed, strictly one job at a time."""
    results = {}
    async with MeasurementService(seed=SEED, samples=SAMPLES) as svc:
        for name, kind, params in job_plan(clients):
            job = svc.submit(kind, params, tenant=name)
            results[name] = await job.wait()
        assert svc.counters["batches"] == len(results)
    return results


async def run_phase(phase, clients: int):
    thread_baseline = threading.active_count()
    results = await phase(clients)
    # Clean shutdown: nothing but this coroutine's task survives, and
    # the worker executor thread is gone.
    leaked = [
        t
        for t in asyncio.all_tasks()
        if t is not asyncio.current_task()
    ]
    assert not leaked, f"leaked tasks: {leaked}"
    assert threading.active_count() <= thread_baseline, (
        f"leaked threads: {threading.enumerate()}"
    )
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--out", default="service-smoke")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    coalesced = asyncio.run(run_phase(coalesced_phase, args.clients))
    sequential = asyncio.run(run_phase(sequential_phase, args.clients))
    for name, payload in (
        ("coalesced", coalesced),
        ("sequential", sequential),
    ):
        (out / f"{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    match = json.dumps(coalesced, sort_keys=True) == json.dumps(
        sequential, sort_keys=True
    )
    print(
        f"# {len(coalesced)} jobs x 2 phases -> {out}/ "
        f"(bit-identical: {match})"
    )
    return 0 if match else 1


if __name__ == "__main__":
    raise SystemExit(main())

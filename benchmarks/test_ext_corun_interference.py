"""Extension: does co-scheduled work mask or worsen the virus?

The paper's V_MIN protocol runs one virus instance per core -- the
worst case.  Production cores rarely all run the stressor, so how bad
is a *partial* occupancy?  Using mixed chain items (one program per
active core), the A72 virus runs on one core while the sibling runs
idle-ish code, a SPEC benchmark, or a second virus copy.

Result shape: noise grows monotonically with how virus-like the
sibling's activity is -- a co-running benchmark neither cancels the
virus (its current is incoherent with the resonance) nor matches the
aligned two-copy worst case.  This is why margining uses the
all-cores-virus configuration.
"""

from repro.chain import (
    ChainItem,
    ChainRequest,
    CurrentStage,
    ExecuteStage,
    PDNStage,
    SignalPath,
)
from repro.cpu.program import program_from_mnemonics
from repro.workloads.spec import spec_workload

from benchmarks.conftest import print_header


def test_ext_corun_interference(benchmark, juno_board, a72_em_virus):
    a72 = juno_board.a72
    a72.reset()
    virus = a72_em_virus.virus
    quiet = program_from_mnemonics(
        a72.spec.isa, ["mov"] * 10, name="quiet"
    )
    gcc = spec_workload(a72.spec.isa, "gcc").program
    path = SignalPath([ExecuteStage(), CurrentStage(), PDNStage()])

    def run_mixed(*programs):
        request = ChainRequest(
            cluster=a72,
            items=[ChainItem(programs=programs)],
            want_amplitude=False,
            want_trace=False,
        )
        return path.run(request).items[0]

    def run_cases():
        cases = {
            "virus alone (1 core)": run_mixed(virus),
            "virus + quiet loop": run_mixed(virus, quiet),
            "virus + gcc": run_mixed(virus, gcc),
            "virus + virus": run_mixed(virus, virus),
        }
        return {
            name: (run.peak_to_peak, run.max_droop)
            for name, run in cases.items()
        }

    results = benchmark.pedantic(run_cases, rounds=1, iterations=1)
    print_header(
        "Extension: the A72 virus under different sibling-core loads"
    )
    print(f"{'configuration':<24} {'p2p':>10} {'droop':>10}")
    for name, (p2p, droop) in results.items():
        print(
            f"{name:<24} {p2p * 1e3:>7.1f} mV {droop * 1e3:>7.1f} mV"
        )

    p2p = {k: v[0] for k, v in results.items()}
    droop = {k: v[1] for k, v in results.items()}
    # two aligned copies are the worst case by a clear margin
    assert p2p["virus + virus"] > 1.5 * p2p["virus + gcc"]
    # a co-running benchmark does not cancel the virus
    assert p2p["virus + gcc"] > 0.5 * p2p["virus alone (1 core)"]
    # droop grows with sibling power (IR adds even when incoherent)
    assert droop["virus + gcc"] > droop["virus + quiet loop"]
    assert droop["virus + virus"] >= droop["virus + gcc"]

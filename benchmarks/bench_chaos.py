"""Chaos sweep — fault injection and recovery across every primitive.

Runs each algorithm clean and under a seeded fault plan, asserts the results
stay bit-identical (recovery is result-transparent by construction), and
records the price of survival: energy/depth inflation plus the recovery
accounting (retries, detours, spared placements).
"""

import numpy as np

from repro.analysis import render_table
from repro.runner import point_from_machine, register_suite
from repro.runner.chaos import CHAOS_PROFILES, run_chaos_pair
from repro.workloads import WORKLOADS

# a representative cross-section for pytest-benchmark reporting; the runner
# suite below sweeps the full algorithm list
SMOKE_ALGOS = ("scan", "select", "mergesort", "spmv")


def test_chaos_smoke(benchmark, report):
    def _sweep():
        rows = []
        for algo in SMOKE_ALGOS:
            for profile in CHAOS_PROFILES:
                r, _, _ = run_chaos_pair(algo, profile, side=4, seed=0)
                assert r["exact_match"], f"{algo}/{profile} diverged under faults"
                rows.append([algo, profile, f"{r['energy_inflation']:.3f}",
                             r["recovery"]["retries"], r["recovery"]["spared"]])
        return rows

    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    report(render_table(["algo", "profile", "E infl", "retries", "spared"], rows,
                        title="chaos smoke: bit-identical results under faults"))


# -- repro.runner suite ----------------------------------------------------
@register_suite(
    "chaos",
    artifact="Fault-injection sweep: bit-identical recovery with bounded cost inflation",
    grid={"algo": list(WORKLOADS), "profile": list(CHAOS_PROFILES), "side": [8]},
    quick={"algo": ["scan", "select", "mergesort", "spmv"], "profile": ["mixed"], "side": [4]},
)
def _suite_point(params, rng):
    algo, profile, side = params["algo"], params["profile"], params["side"]
    seed = int(rng.integers(2**31))
    r, clean_m, faulty_m = run_chaos_pair(algo, profile, side=side, seed=seed)
    assert r["exact_match"], f"{algo}/{profile} diverged under faults"
    # recovery must stay a constant-factor tax, never change the asymptotics
    assert r["energy_inflation"] < 3.0
    assert np.isfinite(r["energy_inflation"])
    return point_from_machine(
        faulty_m,
        exact_match=r["exact_match"],
        clean_energy=r["clean_energy"],
        energy_inflation=r["energy_inflation"],
        depth_inflation=r["depth_inflation"],
        recovery_energy=r["recovery_phase_energy"],
        retries=r["recovery"]["retries"],
        detoured=r["recovery"]["detoured"],
        spared=r["recovery"]["spared"],
    )

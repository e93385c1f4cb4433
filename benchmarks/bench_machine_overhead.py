"""Machine overhead — the fast path's wall-clock win over the reference oracle.

The fast machine replaces loops of ``send`` calls with vectorized kernels
and closed-form charging; the :class:`ReferenceMachine` keeps those loops
and the depth-first bodies, on the same ``send``, as the executable
specification.  This
bench times both on the Figure-2 sorting workload (Bitonic Sort + 2D
Mergesort per grid) **in-process** — the sweep runner forks a worker per
point, and ~25 ms of interpreter start-up would drown the small sides and
flatter the large ones, so the ref/fast pair is timed inside one process
with best-of-``REPEATS`` wall clocks.

Two guarantees ride along:

* **exactness** — before timing, one run per machine class must agree on
  payload bytes, :class:`MachineStats`, and the per-phase cost tree (the
  fast path is an optimization, never an approximation);
* **speed** — at the largest side the fast machine must win by at least
  :data:`MIN_SPEEDUP_LARGEST`x (measured ~87x at side 32, the median of
  three runs on a 2-core x86 host, with the merge tree run level by level
  from one merged order per merge and per-shape merge plans; the gate
  leaves a wide noise margin below the measurement but still fails any
  real regression).

A second test gates rank selection the same way at ``n =``
:data:`SELECT_N`: each iteration runs a gather scan, a bitonic sample sort
and two all-reduces, so a selection that silently fell back to the
depth-first bodies would lose the win (about 1.5x over the reference when
only ``send`` was vectorized; the per-shape closed forms measured ~4.8x;
with its broadcast gates read off the broadcast closed form instead of
gathered copies, ~5.3x; with its rounds read off per-side tables instead
of sweeping every element's metadata, ~10.9x; with the sample sorts dated
one pass per stride and the placed keys' sweeps read from the scan's
uniform tables, ~13.6x, the median of three runs on the same host).
"""

import time

import numpy as np

from repro.analysis import render_table
from repro.core.sorting.bitonic import bitonic_sort
from repro.core.sorting.mergesort2d import sort_values
from repro.core.sorting.sortutil import as_sort_payload
from repro.machine import Region, ReferenceMachine, SpatialMachine
from repro.workloads import WORKLOADS

SIDES = [8, 16, 32]
REPEATS = 3
MIN_SPEEDUP_LARGEST = 10.0
SELECT_N = 4096
MIN_SPEEDUP_SELECT = 2.0


def _workload(mclass, side: int, seed: int):
    """One fig2-style point: bitonic + mergesort on a side x side grid."""
    rng = np.random.default_rng(seed)
    x = rng.random(side * side)
    region = Region(0, 0, side, side)
    mb = mclass()
    out_b = bitonic_sort(mb, mb.place_rowmajor(as_sort_payload(x), region), region)
    mm = mclass()
    out_m = sort_values(mm, x, region)
    return mb, out_b, mm, out_m


def _counters_equal(side: int, seed: int) -> bool:
    rb, ob, rm, om = _workload(ReferenceMachine, side, seed)
    fb, pb, fm, pm = _workload(lambda: SpatialMachine(fast=True, strict=False), side, seed)
    return (
        rb.stats == fb.stats
        and rm.stats == fm.stats
        and rb.cost_tree.as_dict() == fb.cost_tree.as_dict()
        and rm.cost_tree.as_dict() == fm.cost_tree.as_dict()
        and ob.payload.tobytes() == pb.payload.tobytes()
        and om.payload.tobytes() == pm.payload.tobytes()
    )


def _time(mclass, side: int, seed: int) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _workload(mclass, side, seed)
        best = min(best, time.perf_counter() - t0)
    return best


def _measure(side: int, seed: int = 0) -> dict:
    equal = _counters_equal(side, seed)  # also serves as the warm-up
    ref = _time(ReferenceMachine, side, seed)
    fast = _time(lambda: SpatialMachine(fast=True, strict=False), side, seed)
    return {
        "side": side,
        "ref_wall_s": ref,
        "fast_wall_s": fast,
        "speedup": ref / fast,
        "counters_equal": equal,
    }


def test_machine_overhead(benchmark, report):
    rows = benchmark.pedantic(
        lambda: [_measure(side) for side in SIDES], rounds=1, iterations=1
    )
    report(
        render_table(
            ["side", "ref ms", "fast ms", "speedup", "counters"],
            [
                [
                    r["side"],
                    f"{r['ref_wall_s'] * 1e3:.1f}",
                    f"{r['fast_wall_s'] * 1e3:.1f}",
                    f"{r['speedup']:.2f}x",
                    "=" if r["counters_equal"] else "DIFF",
                ]
                for r in rows
            ],
            title="fast machine vs reference oracle (fig2 workload, in-process)",
        )
    )
    assert all(r["counters_equal"] for r in rows), "fast path drifted from oracle"
    largest = rows[-1]
    assert largest["speedup"] >= MIN_SPEEDUP_LARGEST, (
        f"fast path win at side={largest['side']} fell to "
        f"{largest['speedup']:.2f}x (gate: {MIN_SPEEDUP_LARGEST}x)"
    )
    # the win must grow with n (vectorization amortizes per-call overhead)
    assert rows[-1]["speedup"] > rows[0]["speedup"]


def _select(mclass, seed: int = 0):
    """Rank selection of the median of ``SELECT_N`` normal keys, oracle-checked."""
    wl = WORKLOADS["select"]
    m = mclass()
    out = wl.execute(m, wl.make_input(SELECT_N, np.random.default_rng(seed)))
    return m, out


def _best_select(mclass) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _select(mclass)
        best = min(best, time.perf_counter() - t0)
    return best


def _clean() -> SpatialMachine:
    return SpatialMachine(fast=True, strict=False)


def test_selection_overhead(report):
    (mr, out_r), (mf, out_f) = _select(ReferenceMachine), _select(_clean)
    assert out_r.values.tobytes() == out_f.values.tobytes()
    assert mr.stats == mf.stats
    assert mr.cost_tree.as_dict() == mf.cost_tree.as_dict()
    ref, fast = _best_select(ReferenceMachine), _best_select(_clean)
    report(
        render_table(
            ["n", "ref ms", "fast ms", "speedup"],
            [[SELECT_N, f"{ref * 1e3:.1f}", f"{fast * 1e3:.1f}", f"{ref / fast:.2f}x"]],
            title="fast machine vs reference oracle (rank selection, in-process)",
        )
    )
    assert ref / fast >= MIN_SPEEDUP_SELECT, (
        f"selection's fast-path win at n={SELECT_N} fell to {ref / fast:.2f}x "
        f"(gate: {MIN_SPEEDUP_SELECT}x)"
    )


# -- repro.runner suite ----------------------------------------------------
from repro.runner import point_from_machine, register_suite


@register_suite(
    "machine_overhead",
    artifact="Fast-path machine vs per-call reference oracle: exactness + wall-clock",
    grid={"side": SIDES},
    quick={"side": [8, 32]},
)
def _suite_point(params, rng):
    side = params["side"]
    seed = int(rng.integers(0, 2**31))
    r = _measure(side, seed)
    # counters are the artifact: record the (identical) fast-machine stats so
    # the energy/depth baseline also pins the model, not just the wall clock
    mb, _, _, _ = _workload(lambda: SpatialMachine(fast=True, strict=False), side, seed)
    return point_from_machine(
        mb,
        ref_wall_s=r["ref_wall_s"],
        fast_wall_s=r["fast_wall_s"],
        speedup=r["speedup"],
        counters_equal=r["counters_equal"],
    )

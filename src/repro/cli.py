"""Command-line interface: quick cost measurements without writing code.

    python -m repro scan --n 4096
    python -m repro sort --n 1024 --workload reversed
    python -m repro select --n 4096 --k 100 --seed 3
    python -m repro spmv --n 64 --density 4
    python -m repro table1 --quick
    python -m repro report --algo sort --per-phase
    python -m repro report --algo sort --format json
    python -m repro trace --algo scan --out scan.jsonl
    python -m repro profile scan -n 4096 --heatmap out.svg --trace out.json
    python -m repro chaos --profiles mixed --side 8
    python -m repro conformance --side 8 --seeds 3
    python -m repro bench list
    python -m repro bench run --suite table1_sort --jobs 4
    python -m repro bench compare --baseline benchmarks/baselines/quick
    python -m repro serve --port 8642 --workers 2
    python -m repro trace-collect --dir trace_out --out trace.json

Each subcommand runs the primitive on the Spatial Computer simulator and
prints the measured energy / depth / distance next to the paper's bound.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import workloads
from .analysis import make_workload, render_table
from .machine import SpatialMachine
from .machine.profiler import CELL_METRICS
from .workloads import Keys, OracleError

__all__ = ["main"]

#: ``repro sort --algorithm`` value -> registry entry
_SORTERS = {
    "merge": "mergesort",
    "quick": "quicksort",
    "bitonic": "bitonic",
    "oddeven": "oddeven",
    "shear": "shearsort",
}


def _measure(name: str, args, **machine_kw):
    """Run registry entry ``name`` at ``--n``/``--seed`` on a fresh machine;
    return (machine, output, label).  ``--workload`` swaps in other keys for
    the entries whose input is one key per cell of a square, ``--k`` sets
    the selection rank."""
    entry = workloads.lookup(name)
    if not entry.sizes.shaped(args.n):
        raise SystemExit(f"--n must be a power of 4, got {args.n}")
    inp = entry.make_input(args.n, np.random.default_rng(args.seed))
    if isinstance(inp, Keys) and inp.region.is_square:
        if getattr(args, "workload", None):
            rng = np.random.default_rng(args.seed)
            inp = Keys.on_square(make_workload(args.workload, args.n, rng), rng)
        inp.k = getattr(args, "k", 0)
    m = SpatialMachine(**machine_kw)
    return m, entry.execute(m, inp), f"{entry.title} (n={args.n})"


def _verb(name: str, args, label: str = ""):
    """A key-workload verb: run entry ``name`` and print its costs."""
    m, out, _ = _measure(name, args)
    entry = workloads.lookup(name)
    _print_costs(label or entry.title, entry.bound, m,
                 out.extra.get("out_depth", m.stats.max_depth),
                 out.extra.get("out_distance", m.stats.max_distance))
    return out


def _cmd_scan(args) -> int:
    _verb("scan", args)
    return 0


def _cmd_sort(args) -> int:
    _verb(_SORTERS[args.algorithm], args)
    return 0


def _cmd_select(args) -> int:
    out = _verb("select", args, f"rank select (k={args.k or args.n // 2})")
    print(f"  iterations={out.extra['iterations']} fallback={bool(out.extra['fell_back'])} "
          f"value={out.values[0]:.6g}")
    return 0


def _cmd_spmv(args) -> int:
    entry = workloads.lookup("spmv")
    rng = np.random.default_rng(args.seed)
    ops = workloads.spmv_operands(args.n, rng, density=args.density)
    m = SpatialMachine()
    entry.execute(m, ops)
    _print_costs(f"SpMV (n={args.n}, m={ops.matrix.nnz})", entry.bound, m,
                 m.stats.max_depth, m.stats.max_distance)
    return 0


def _cmd_table1(args) -> int:
    sizes = (64, 256, 1024) if args.quick else (64, 256, 1024, 4096)
    rows = []
    for n in sizes:
        row = [n]
        # SpMV runs with m = n nonzeros: a dimension-n/4 matrix
        for name, size in (("scan", n), ("mergesort", n), ("select", n), ("spmv", n // 4)):
            entry = workloads.WORKLOADS[name]
            m = SpatialMachine()
            out = entry.execute(m, entry.make_input(size, np.random.default_rng(args.seed)))
            row += [m.stats.energy, out.extra.get("out_depth", m.stats.max_depth)]
        rows.append(row)
    print(
        render_table(
            ["n", "scan E", "scan D", "sort E", "sort D", "sel E", "sel D",
             "spmv E", "spmv D"],
            rows,
            title="Table I measured (E = energy, D = depth; SpMV with m = n nonzeros)",
        )
    )
    return 0


def _print_costs(name: str, bound: str, m: SpatialMachine, depth: int, dist: int) -> None:
    print(f"{name}: energy={m.stats.energy} messages={m.stats.messages} "
          f"depth={depth} distance={dist}")
    print(f"  paper bound: {bound}")


#: ``repro graph`` algorithm -> registry entry (``degrees`` has none)
_GRAPH_ENTRIES = {"cc": "graph", "bfs": "bfs", "pagerank": "pagerank"}


def _cmd_graph(args) -> int:
    from .graphs import degree_table, generate_graph, iteration_costs

    rng = np.random.default_rng(args.seed)
    try:
        A = generate_graph(args.generator, args.n, rng)
    except ValueError as e:
        raise SystemExit(str(e))
    want_profiler = bool(args.heatmap or args.trace or args.ascii)
    m = SpatialMachine(profile=want_profiler)
    phase = args.algo
    if args.algo in _GRAPH_ENTRIES:
        entry = workloads.WORKLOADS[_GRAPH_ENTRIES[args.algo]]
        cap = (args.max_rounds or 50) if args.algo == "pagerank" else args.max_rounds
        g = workloads.Graph(A, source=args.source, rounds=cap, damping=args.damping,
                            tol=args.tol)
        out = entry.execute(m, g)
        label = f"{entry.title} ({args.generator}, n={args.n}, m={A.nnz})"
        bound = entry.bound
    else:  # degrees
        deg = degree_table(m, A)
        ref_deg = np.zeros(A.n)
        np.add.at(ref_deg, np.asarray(A.rows), np.asarray(A.vals))
        if not np.array_equal(deg, np.rint(ref_deg).astype(np.int64)):
            raise OracleError(f"degree table differs from the host degrees: {deg}")
        label = f"degree table ({args.generator}, n={args.n}, m={A.nnz})"
        bound = workloads.WORKLOADS["graph"].bound
        phase = "degrees"
    _print_costs(label, bound, m, m.stats.max_depth, m.stats.max_distance)
    rounds = iteration_costs(m.cost_tree, phase)
    if args.algo == "cc":
        print(f"  components={out.extra['components']}")
    elif args.algo == "bfs":
        print(f"  source={args.source} reached={out.extra['reached']}/{args.n}")
    elif args.algo == "pagerank":
        residual = out.extra["residual"]
        print(f"  rounds={len(rounds)} converged={residual <= args.tol} "
              f"residual={residual:.3g}")
    else:
        print(f"  max_degree={int(deg.max())}")
    total = m.cost_tree.total()
    if (total.energy, total.messages) != (m.stats.energy, m.stats.messages):
        raise OracleError(f"cost tree total {total} does not match the flat counters")

    if args.per_round and rounds:
        print()
        print(
            render_table(
                ["round", "energy", "messages", "depth", "distance"],
                [[r["round"], r["energy"], r["messages"], r["max_depth"],
                  r["max_distance"]] for r in rounds],
                title=f"{label} — per-iteration attribution",
            )
        )
    elif rounds:
        energies = [r["energy"] for r in rounds]
        print(f"  rounds={len(rounds)} round energy min={min(energies)} "
              f"max={max(energies)} total={sum(energies)}")

    if want_profiler:
        from .machine.chrometrace import write_chrome_trace
        from .machine.heatmap import render_ascii, write_heatmap

        cells = m.profiler.cell_energy()
        if args.ascii:
            print()
            print(render_ascii(cells, title=f"{label} — energy per cell"))
        if args.heatmap:
            try:
                fmt = write_heatmap(cells, args.heatmap,
                                    title=f"{label} — energy per cell")
            except OSError as e:
                raise SystemExit(f"cannot write heatmap to {args.heatmap}: {e}")
            print(f"wrote {fmt} heatmap to {args.heatmap}")
        if args.trace:
            try:
                count = write_chrome_trace(m.profiler, args.trace, label=label)
            except OSError as e:
                raise SystemExit(f"cannot write trace to {args.trace}: {e}")
            print(f"wrote {count} trace event(s) to {args.trace} "
                  "(load in ui.perfetto.dev or chrome://tracing)")
    return 0


def _sweep(args, run, *, name, title, headers, row, ok, describe, failure) -> int:
    """The body of ``repro chaos`` and ``repro conformance``: ``run`` the grid
    over ``--algos``, print one table ``row`` per report, dump the reports to
    ``--out``, then ``describe`` each report whose ``ok`` field is false on
    stderr and close with ``failure`` (formatted with their count); the exit
    code is 1 if any point failed."""
    import json

    algos = list(workloads.WORKLOADS) if args.algos == "all" else args.algos.split(",")
    try:
        reports = run(algos)
    except ValueError as e:
        # unknown algo/profile names: exit with a usage error, not a traceback
        raise SystemExit(str(e))
    print(
        render_table(
            headers,
            [row(r) for r in reports],
            title=f"{title} (side={args.side}, {len(reports)} points)",
        )
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(reports, fh, indent=2)
        print(f"wrote {len(reports)} {name} reports to {args.out}")
    bad = [r for r in reports if not r[ok]]
    if bad:
        for r in bad:
            print(f"  {describe(r)}", file=sys.stderr)
        print(failure.format(len(bad)), file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args) -> int:
    from .runner.chaos import CHAOS_PROFILES, run_chaos_grid

    profiles = list(CHAOS_PROFILES) if args.profiles == "all" else args.profiles.split(",")
    seeds = tuple(range(args.seed, args.seed + args.plans))
    return _sweep(
        args,
        lambda algos: run_chaos_grid(algos, profiles, side=args.side, seeds=seeds),
        name="chaos",
        title="chaos sweep",
        headers=["algo", "profile", "seed", "result", "E infl", "D infl",
                 "retries", "detours", "spared", "recovery E"],
        row=lambda r: [
            r["algo"],
            r["profile"],
            r["seed"],
            "ok" if r["exact_match"] else "MISMATCH",
            f"{r['energy_inflation']:.3f}",
            f"{r['depth_inflation']:.3f}",
            r["recovery"]["retries"],
            r["recovery"]["detoured"],
            r["recovery"]["spared"],
            r["recovery_phase_energy"],
        ],
        ok="exact_match",
        describe=lambda r: f"{r['algo']}/{r['profile']}/seed={r['seed']}: "
                           "output differs from the fault-free run",
        failure="FAULT-RECOVERY FAILURE: {} point(s) diverged from the fault-free run",
    )


def _cmd_conformance(args) -> int:
    from .runner.conformance import diff_point, run_conformance_grid

    seeds = tuple(range(args.seed, args.seed + args.seeds))
    return _sweep(
        args,
        lambda algos: run_conformance_grid(algos, side=args.side, seeds=seeds),
        name="conformance",
        title="fast-vs-reference conformance",
        headers=["algo", "seed", "result", "payload", "stats", "cost tree", "energy"],
        row=lambda r: [
            r["algo"],
            r["seed"],
            "ok" if r["conformant"] else "MISMATCH",
            "=" if r["payload_equal"] else "DIFF",
            "=" if r["stats_equal"] else "DIFF",
            "=" if r["cost_tree_equal"] else "DIFF",
            r["fast_stats"]["energy"],
        ],
        ok="conformant",
        describe=lambda r: f"{r['algo']}/seed={r['seed']}: {diff_point(r)}",
        failure="CONFORMANCE FAILURE: {} point(s) diverged from the reference oracle",
    )


def _cmd_report(args) -> int:
    import json

    m, _, label = _measure(args.algo, args)
    s = m.stats
    if args.format == "json":
        doc = {
            "label": label,
            "algo": args.algo,
            "n": args.n,
            "seed": args.seed,
            "workload": args.workload,
            "metrics": {
                "energy": s.energy,
                "messages": s.messages,
                "rounds": s.rounds,
                "max_depth": s.max_depth,
                "max_distance": s.max_distance,
            },
            "cost_tree": m.cost_tree.as_dict(),
        }
        print(json.dumps(doc, indent=2, sort_keys=False))
        return 0
    print(f"{label}: energy={s.energy} messages={s.messages} rounds={s.rounds} "
          f"depth={s.max_depth} distance={s.max_distance}")
    if args.per_phase:
        print()
        print(m.cost_tree.render(min_energy=args.min_energy))
    return 0


def _cmd_profile(args) -> int:
    from .machine.chrometrace import write_chrome_trace
    from .machine.heatmap import render_ascii, write_heatmap

    m, _, label = _measure(args.algo, args, profile=True)
    prof = m.profiler
    s = m.stats
    print(f"{label}: energy={s.energy} messages={s.messages} rounds={s.rounds} "
          f"depth={s.max_depth} distance={s.max_distance}")

    stats = prof.hotspot_stats(args.metric)
    bbox = stats["bbox"]
    where = (f"rows {bbox[0]}..{bbox[2]}, cols {bbox[1]}..{bbox[3]}"
             if bbox else "(empty)")
    print(f"{args.metric} grid: {stats['active_cells']} active cell(s) over "
          f"{where}; max={stats['max']} mean={stats['mean']} "
          f"gini={stats['gini']} max/mean={stats['max_mean_skew']}")
    print(f"top {args.top} hotspot(s) by {args.metric}:")
    for cell, v in prof.top_cells(args.top, by=args.metric):
        print(f"  {cell}: {v}")

    disagrees = False
    for metric, want in (("depth", s.max_depth), ("distance", s.max_distance)):
        if args.witness not in (metric, "both"):
            continue
        w = prof.depth_witness() if metric == "depth" else prof.distance_witness()
        print()
        if w is None:
            print(f"{metric} witness: not recorded (the run sent more than "
                  f"{prof.max_witness_messages:,} messages, the witness record's limit)")
            continue
        print(w.render())
        if w.complete and w.replayed() != want:
            field = "max_depth" if metric == "depth" else "max_distance"
            print(f"  WARNING: witness replay disagrees with MachineStats.{field}",
                  file=sys.stderr)
            disagrees = True

    cells = prof.cell_grid(args.metric)
    if args.ascii:
        print()
        print(render_ascii(cells, title=f"{label} — {args.metric} per cell"))
    if args.heatmap:
        try:
            fmt = write_heatmap(cells, args.heatmap,
                                title=f"{label} — {args.metric} per cell")
        except OSError as e:
            raise SystemExit(f"cannot write heatmap to {args.heatmap}: {e}")
        print(f"wrote {fmt} heatmap to {args.heatmap}")
    if args.trace:
        try:
            count = write_chrome_trace(prof, args.trace, label=label)
        except OSError as e:
            raise SystemExit(f"cannot write trace to {args.trace}: {e}")
        print(f"wrote {count} trace event(s) to {args.trace} "
              "(load in ui.perfetto.dev or chrome://tracing)")
    return 1 if disagrees else 0


def _cmd_serve(args) -> int:
    # lazy import: the service layer pulls in asyncio/pool machinery that the
    # one-shot CLI verbs never need
    from .service.server import serve_main

    return serve_main(args)


def _cmd_fleet(args) -> int:
    from .service.fleet import fleet_main

    return fleet_main(args)


def _cmd_fleet_chaos(args) -> int:
    from .service.fleetchaos import fleet_chaos_main

    return fleet_chaos_main(args)


def _cmd_trace_collect(args) -> int:
    from .obs.collect import trace_collect_main

    return trace_collect_main(args)


def _cmd_trace(args) -> int:
    m, _, label = _measure(args.algo, args, trace=True)
    if args.out:
        try:
            count = m.tracer.to_jsonl(args.out)
        except OSError as e:
            raise SystemExit(f"cannot write trace to {args.out}: {e}")
        print(f"{label}: wrote {count} message records to {args.out}")
    else:
        m.tracer.to_jsonl(sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    from . import __version__
    from .runner.cli import add_bench_parser
    from .tuner.cli import add_tune_parser

    p = argparse.ArgumentParser(prog="repro", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, default_n=1024, workload=None):
        sp.add_argument("-n", "--n", type=int, default=default_n,
                        help="input size (power of 4 for the key workloads)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--workload", default=workload,
                        choices=("uniform", "reversed", "sorted", "few_distinct", "zipf"),
                        help="key distribution (default: the workload's own keys)")

    sp = sub.add_parser("scan", help="energy-optimal parallel scan (§IV.C)")
    common(sp, 4096, "uniform")
    sp.set_defaults(func=_cmd_scan)

    sp = sub.add_parser("sort", help="sorting algorithms (§V and extensions)")
    common(sp, 1024, "uniform")
    sp.add_argument(
        "--algorithm",
        default="merge",
        choices=("merge", "quick", "bitonic", "oddeven", "shear"),
        help="2D mergesort (default), selection quicksort, the two Batcher "
        "networks, or the mesh shearsort baseline",
    )
    sp.set_defaults(func=_cmd_sort)

    sp = sub.add_parser("select", help="randomized rank selection (§VI)")
    common(sp, 4096)
    sp.add_argument("--k", type=int, default=0, help="1-based rank (default: median)")
    sp.set_defaults(func=_cmd_select)

    sp = sub.add_parser("spmv", help="sparse matrix-vector product (§VIII)")
    sp.add_argument("--n", type=int, default=64, help="matrix dimension")
    sp.add_argument("--density", type=int, default=4, help="nonzeros per row (approx)")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_spmv)

    sp = sub.add_parser("table1", help="the whole Table I sweep")
    sp.add_argument("--quick", action="store_true", help="smaller sizes")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_table1)

    def algo_common(sp, default_n=1024):
        common(sp, default_n)
        sp.add_argument(
            "--algo",
            default="sort",
            choices=workloads.names(),
            help="which registry workload to run (default: 2D mergesort)",
        )

    sp = sub.add_parser("report", help="cost report, optionally broken down by phase")
    algo_common(sp)
    sp.add_argument("--per-phase", action="store_true",
                    help="print the hierarchical phase-cost tree")
    sp.add_argument("--min-energy", type=int, default=0,
                    help="hide phases cheaper than this energy")
    sp.add_argument("--format", default="text", choices=("text", "json"),
                    help="output format; json dumps the full CostTree for scripts")
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser(
        "profile",
        help="spatial profiler: per-cell heatmaps, link load, critical-path witnesses",
    )
    sp.add_argument("algo", choices=workloads.names(),
                    help="which registry workload to profile")
    common(sp, 1024)
    sp.add_argument("--metric", default="energy", choices=CELL_METRICS,
                    help="cell metric for hotspots/heatmaps (default: wire energy)")
    sp.add_argument("--top", type=int, default=8, help="hotspot cells to list")
    sp.add_argument("--witness", default="both",
                    choices=("depth", "distance", "both", "none"),
                    help="which critical-path witness chain(s) to print")
    sp.add_argument("--ascii", action="store_true",
                    help="print an ASCII heatmap to stdout")
    sp.add_argument("--heatmap", default="",
                    help="write a heatmap file (.svg for SVG, else ASCII text)")
    sp.add_argument("--trace", default="",
                    help="write Chrome trace-event JSON (Perfetto-loadable)")
    sp.set_defaults(func=_cmd_profile)

    sp = sub.add_parser("trace", help="run with tracing on and dump JSONL message records")
    algo_common(sp)
    sp.add_argument("--out", default="", help="output path (default: stdout)")
    sp.set_defaults(func=_cmd_trace)

    sp = sub.add_parser(
        "graph",
        help="graph-analytics workloads: iterated-SpMV CC/BFS/PageRank with "
        "per-iteration cost attribution",
    )
    sp.add_argument("algo", choices=("cc", "bfs", "pagerank", "degrees"),
                    help="which graph algorithm to run")
    sp.add_argument("-n", "--n", type=int, default=64, help="vertex count "
                    "(grid generator needs a perfect square)")
    sp.add_argument("--generator", default="rmat",
                    choices=("rmat", "grid", "powerlaw"),
                    help="seeded workload graph family (default: rmat)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--source", type=int, default=0, help="BFS source vertex")
    sp.add_argument("--damping", type=float, default=0.85,
                    help="PageRank damping factor")
    sp.add_argument("--tol", type=float, default=1e-8,
                    help="PageRank convergence tolerance (0 = fixed rounds)")
    sp.add_argument("--max-rounds", type=int, default=None,
                    help="iteration cap (default: derived from convergence; "
                    "PageRank: 50)")
    sp.add_argument("--per-round", action="store_true",
                    help="print the full per-iteration cost table")
    sp.add_argument("--ascii", action="store_true",
                    help="print an ASCII energy heatmap to stdout")
    sp.add_argument("--heatmap", default="",
                    help="write an energy heatmap file (.svg for SVG, else ASCII)")
    sp.add_argument("--trace", default="",
                    help="write Chrome trace-event JSON (Perfetto-loadable)")
    sp.set_defaults(func=_cmd_graph)

    sp = sub.add_parser(
        "chaos",
        help="fault-injection sweep: every primitive under seeded fault plans",
    )
    sp.add_argument("--algos", default="all",
                    help="comma-separated algorithm names, or 'all'")
    sp.add_argument("--profiles", default="all",
                    help="comma-separated fault profiles (drops, corruption, dead, mixed), or 'all'")
    sp.add_argument("--side", type=int, default=8, help="working-set square side")
    sp.add_argument("--seed", type=int, default=0, help="first fault-plan seed")
    sp.add_argument("--plans", type=int, default=1,
                    help="number of consecutive seeds per (algo, profile)")
    sp.add_argument("--out", default="", help="also dump the JSON reports here")
    sp.set_defaults(func=_cmd_chaos)

    sp = sub.add_parser(
        "conformance",
        help="fault-free differential: clean fast machine vs the reference oracle",
    )
    sp.add_argument("--algos", default="all",
                    help="comma-separated algorithm names, or 'all'")
    sp.add_argument("--side", type=int, default=8, help="working-set square side")
    sp.add_argument("--seed", type=int, default=0, help="first algorithm seed")
    sp.add_argument("--seeds", type=int, default=1,
                    help="number of consecutive seeds per algorithm")
    sp.add_argument("--out", default="", help="also dump the JSON reports here")
    sp.set_defaults(func=_cmd_conformance)

    sp = sub.add_parser(
        "serve",
        help="HTTP serving layer: batch, cache, and execute simulation requests",
    )
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=8642,
                    help="listen port (0 picks a free one)")
    sp.add_argument("--workers", type=int, default=2,
                    help="persistent simulation worker processes")
    sp.add_argument("--inline", action="store_true",
                    help="run simulations on threads instead of the worker pool "
                    "(for hosts that cannot fork; disables profile requests)")
    sp.add_argument("--timeout", type=float, default=30.0,
                    help="per-execution deadline in seconds (overrun -> 504)")
    sp.add_argument("--cache-dir", default=".bench_cache",
                    help="content-addressed disk cache shared with `repro bench run`")
    sp.add_argument("--bench-dir", default="",
                    help="suite directory (default: ./benchmarks)")
    sp.add_argument("--plan-db", default="",
                    help="tuner plan database answering /plan and auto: dispatch "
                    "(default: <cache-dir>/plan_db.json)")
    sp.add_argument("--shard-id", default="",
                    help="fleet identity (e.g. s0r1) echoed on /healthz, /readyz "
                    "and /metrics")
    sp.add_argument("--trace-dir", default="",
                    help="write request spans to spans-*.jsonl files here "
                    "(empty = tracing off; merge with `repro trace-collect`)")
    sp.set_defaults(func=_cmd_serve)

    sp = sub.add_parser(
        "fleet",
        help="consistent-hash gateway over replicated `repro serve` shards",
    )
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=8640,
                    help="gateway listen port (0 picks a free one)")
    sp.add_argument("--shards", type=int, default=2)
    sp.add_argument("--replicas", type=int, default=2, help="replicas per shard")
    sp.add_argument("--workers", type=int, default=1,
                    help="worker processes per shard replica")
    sp.add_argument("--probe-interval", type=float, default=0.5,
                    help="health-probe loop interval per replica")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for breaker jitter, probe jitter")
    sp.add_argument("--cache-dir", default=".bench_cache",
                    help="shared content-addressed cache (stale serving reads it)")
    sp.add_argument("--bench-dir", default="")
    sp.add_argument("--trace-dir", default="",
                    help="trace the gateway and its spawned shards into "
                    "spans-*.jsonl files here (empty = tracing off)")
    sp.set_defaults(func=_cmd_fleet)

    sp = sub.add_parser(
        "fleet-chaos",
        help="shard-kill chaos gates: clean vs faulted fleet must match exactly",
    )
    sp.add_argument("--shards", type=int, default=2)
    sp.add_argument("--replicas", type=int, default=2)
    sp.add_argument("--requests", type=int, default=300)
    sp.add_argument("--concurrency", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1,
                    help="worker processes per shard replica")
    sp.add_argument("--hedge-rate", type=float, default=0.05)
    sp.add_argument("--bench-dir", default="")
    sp.add_argument("--out", default="chaos_fleet_out",
                    help="artifact directory (reports, metrics, caches)")
    sp.add_argument("--trace", action="store_true",
                    help="trace both runs and gate span counts against "
                    "the gateway's /metrics failover/hedge counters")
    sp.set_defaults(func=_cmd_fleet_chaos)

    sp = sub.add_parser(
        "trace-collect",
        help="merge spans-*.jsonl from a traced run into one Chrome trace "
        "with a per-stage latency breakdown",
    )
    from .obs.collect import add_trace_collect_args

    add_trace_collect_args(sp)
    sp.set_defaults(func=_cmd_trace_collect)

    add_bench_parser(sub)
    add_tune_parser(sub)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

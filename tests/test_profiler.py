"""The spatial profiler: traffic grids, witnesses, exporters, CLI, runner.

The acceptance bar (ISSUE 4): per-cell energy grids sum *exactly* to the flat
``MachineStats`` counters (faults included), link loads sum to energy on the
fault-free path, and the reported critical-path witness replays to exactly
the machine's ``max_depth`` / ``max_distance``.  The Fig. 1 scan tree's
critical path is pinned as a golden snapshot; regenerate a deliberate change
with

    PYTHONPATH=src python tests/test_profiler.py --regen
"""

import io
import json
import pathlib

import numpy as np
import pytest

from repro.cli import main
from repro.core.scan import scan
from repro.core.selection import rank_select
from repro.core.sorting.mergesort2d import sort_values
from repro.machine import (
    FaultPlan,
    Region,
    SpatialMachine,
    SpatialProfiler,
    Tracer,
    chrome_trace_events,
    grid_to_dense,
    jsonl_sink,
    render_ascii,
    render_svg,
    write_heatmap,
)
from repro.machine.profiler import CellGrid
from repro.runner import point_from_machine
from repro.runner.result import validate_bench_result
from repro.spmv import random_coo, spmv_spatial

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "fig1_scan_critical_path.json"


def _run(algo: str, profile=True, faults=None) -> SpatialMachine:
    rng = np.random.default_rng(7)
    m = SpatialMachine(profile=profile, faults=faults)
    reg = Region(0, 0, 8, 8)
    if algo == "scan":
        scan(m, m.place_zorder(rng.random(64), reg), reg)
    elif algo == "sort":
        sort_values(m, rng.random(64), reg)
    elif algo == "select":
        rank_select(m, m.place_zorder(rng.random(64), reg), reg, k=13, rng=rng)
    elif algo == "spmv":
        A = random_coo(8, 24, rng)
        spmv_spatial(m, A, rng.standard_normal(8))
    else:  # pragma: no cover - test bug
        raise ValueError(algo)
    return m


ALGOS = ("scan", "sort", "select", "spmv")


# ---------------------------------------------------------------------------
# traffic grids: exact accounting against the flat counters
# ---------------------------------------------------------------------------
class TestGrids:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_energy_grids_sum_to_machine_energy(self, algo):
        m = _run(algo)
        p = m.profiler
        assert p.total_energy == m.stats.energy
        assert sum(p.energy_out.values()) == m.stats.energy
        assert sum(p.energy_in.values()) == m.stats.energy

    @pytest.mark.parametrize("algo", ALGOS)
    def test_message_grids_sum_to_machine_messages(self, algo):
        m = _run(algo)  # fault-free: attempts are all 1
        p = m.profiler
        assert sum(p.sent.values()) == m.stats.messages
        assert sum(p.received.values()) == m.stats.messages

    @pytest.mark.parametrize("algo", ALGOS)
    def test_link_loads_sum_to_energy(self, algo):
        m = _run(algo)  # fault-free: every unit of wire is one unit of link load
        p = m.profiler
        assert sum(p.hlinks.values()) + sum(p.vlinks.values()) == m.stats.energy

    def test_energy_grids_exact_under_faults(self):
        plan = FaultPlan(
            rng=np.random.default_rng(11), drop_prob=0.2, corrupt_prob=0.1
        )
        m = _run("scan", faults=plan)
        p = m.profiler
        assert m.recovery.retries > 0, "plan never fired; test is vacuous"
        assert p.total_energy == m.stats.energy
        assert sum(p.energy_out.values()) == m.stats.energy

    def test_energy_grids_exact_under_dead_regions(self):
        plan = FaultPlan(
            rng=np.random.default_rng(5), dead_regions=(Region(2, 2, 2, 2),)
        )
        m = _run("scan", faults=plan)
        assert m.profiler.total_energy == m.stats.energy

    def test_hotspot_stats_shape(self):
        stats = _run("sort").profiler.hotspot_stats("energy")
        assert stats["total"] > 0 and stats["active_cells"] > 0
        assert 0.0 <= stats["gini"] <= 1.0
        assert stats["max"] <= stats["total"]
        assert stats["max_mean_skew"] >= 1.0

    def test_top_cells_sorted_descending(self):
        top = _run("sort").profiler.top_cells(5, by="energy")
        values = [v for _, v in top]
        assert values == sorted(values, reverse=True)
        with pytest.raises(ValueError, match="unknown cell metric"):
            _run("scan").profiler.top_cells(3, by="nope")

    def test_unknown_metric_is_a_value_error_everywhere(self):
        prof = _run("scan").profiler
        for call in (lambda: prof.top_cells(3, by="nope"),
                     lambda: prof.hotspot_stats("nope"),
                     lambda: prof.cell_grid("nope")):
            with pytest.raises(ValueError, match="unknown cell metric 'nope'"):
                call()


class TestCellGrid:
    def test_mapping_view_and_growth(self):
        g = CellGrid()
        assert len(g) == 0 and dict(g) == {}
        g.add(np.array([0, 0, 5]), np.array([0, 0, 7]), np.array([2, 3, 1]))
        assert dict(g) == {(0, 0): 5, (5, 7): 1}
        # growth in the negative direction keeps prior cells intact
        g.add(np.array([-3]), np.array([-2]), np.array([9]))
        assert g[(-3, -2)] == 9 and g[(0, 0)] == 5
        assert g.get((1, 1)) is None
        with pytest.raises(KeyError):
            g[(100, 100)]

    def test_to_dense_trims_to_bbox(self):
        g = CellGrid()
        g.add(np.array([2, 4]), np.array([3, 6]), np.array([1, 2]))
        dense, origin = grid_to_dense(g)
        assert origin == (2, 3)
        assert dense.shape == (3, 4)
        assert dense[0, 0] == 1 and dense[2, 3] == 2
        assert dense.sum() == 3

    def test_scattered_and_tight_paths_agree(self):
        # one batch below and one above the bbox-vs-scatter heuristic cutoff
        rng = np.random.default_rng(0)
        dense_like, sparse_like = CellGrid(), CellGrid()
        rows = rng.integers(0, 100, 500)
        cols = rng.integers(0, 100, 500)
        w = rng.integers(1, 5, 500)
        dense_like.add(rows, cols, w)
        for i in range(len(rows)):  # one-element adds always take the tight path
            sparse_like.add(rows[i : i + 1], cols[i : i + 1], w[i : i + 1])
        assert dict(dense_like) == dict(sparse_like)


# ---------------------------------------------------------------------------
# witnesses: the reported chain replays to exactly the machine's metrics
# ---------------------------------------------------------------------------
class TestWitnesses:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_depth_witness_replays_exactly(self, algo):
        m = _run(algo)
        w = m.profiler.depth_witness()
        assert w.complete
        assert w.target == m.stats.max_depth
        assert w.replayed() == m.stats.max_depth

    @pytest.mark.parametrize("algo", ALGOS)
    def test_distance_witness_replays_exactly(self, algo):
        m = _run(algo)
        w = m.profiler.distance_witness()
        assert w.complete
        assert w.target == m.stats.max_distance
        assert w.replayed() == m.stats.max_distance

    def test_witness_exact_under_faults(self):
        plan = FaultPlan(rng=np.random.default_rng(3), drop_prob=0.25)
        m = _run("scan", faults=plan)
        for w in (m.profiler.depth_witness(), m.profiler.distance_witness()):
            assert w.complete and w.replayed() == w.target
        assert m.profiler.depth_witness().target == m.stats.max_depth

    def test_witness_chain_is_connected(self):
        w = _run("scan").profiler.depth_witness()
        assert w.contiguous
        for a, b in zip(w.hops, w.hops[1:]):
            assert a.dst == b.src  # each hop starts where the last delivered

    def test_witness_metadata_monotone(self):
        w = _run("sort").profiler.depth_witness()
        depths = [h.depth_after for h in w.hops]
        assert depths == sorted(depths)
        assert depths[-1] == w.target

    def test_phase_attribution(self):
        w = _run("scan").profiler.depth_witness()
        assert w.owner_phase() != "" or all(h.phase == "" for h in w.hops)
        assert sum(w.phase_weights().values()) == w.target

    def test_overflow_disables_witnesses_keeps_grids(self):
        p = SpatialProfiler(max_witness_messages=10)
        rng = np.random.default_rng(7)
        m = SpatialMachine(profile=p)
        reg = Region(0, 0, 8, 8)
        scan(m, m.place_zorder(rng.random(64), reg), reg)
        assert p.witness_overflow
        assert p.depth_witness() is None
        assert p.total_energy == m.stats.energy  # grids unaffected by the cap
        summary = p.summary()
        assert summary["witness_overflow"] is True
        assert "witness" not in summary

    def test_witnesses_disabled(self):
        p = SpatialProfiler(witnesses=False)
        m = _run("scan", profile=p)
        assert p.depth_witness() is None
        assert p.frames == []
        assert p.total_energy == m.stats.energy

    def test_render_mentions_target_and_hops(self):
        w = _run("scan").profiler.depth_witness()
        text = w.render()
        assert f"target={w.target}" in text
        assert f"replayed={w.replayed()}" in text


# ---------------------------------------------------------------------------
# golden: the Fig. 1 scan tree's critical path, pinned hop by hop
# ---------------------------------------------------------------------------
def _fig1_snapshot() -> dict:
    m = _run("scan")
    w = m.profiler.depth_witness()
    return {
        "max_depth": m.stats.max_depth,
        "owner_phase": w.owner_phase(),
        "hops": [
            {"src": list(h.src), "dst": list(h.dst), "wire": h.wire, "phase": h.phase}
            for h in w.hops
        ],
    }


def test_fig1_critical_path_matches_golden():
    got = _fig1_snapshot()
    with open(GOLDEN_PATH) as fh:
        want = json.load(fh)
    assert got == want, (
        "the Fig. 1 scan critical path drifted.\nIf the change is deliberate, "
        "regenerate with\n  PYTHONPATH=src python tests/test_profiler.py --regen"
    )


# ---------------------------------------------------------------------------
# exporters: heatmaps and the Chrome trace
# ---------------------------------------------------------------------------
class TestExporters:
    def test_ascii_heatmap(self):
        p = _run("scan").profiler
        art = render_ascii(p.cell_energy(), title="scan energy")
        assert art.startswith("scan energy")
        assert "origin=" in art and "max=" in art
        assert render_ascii({}) == "(empty grid)"

    def test_ascii_downsamples_wide_grids(self):
        cells = {(0, c): 1 for c in range(300)}
        art = render_ascii(cells, max_width=96)
        assert "1 char = 4x4 cells" in art
        assert max(len(line) for line in art.splitlines()) <= 96

    def test_svg_heatmap_well_formed(self):
        p = _run("scan").profiler
        svg = render_svg(p.cell_energy(), title="scan")
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") >= len(p.cell_energy())
        assert "scan" in svg

    def test_write_heatmap_picks_format(self, tmp_path):
        cells = {(0, 0): 3, (1, 2): 1}
        assert write_heatmap(cells, tmp_path / "x.svg") == "svg"
        assert (tmp_path / "x.svg").read_text().startswith("<svg ")
        assert write_heatmap(cells, tmp_path / "x.txt") == "ascii"
        buf = io.StringIO()
        assert write_heatmap(cells, buf) == "ascii"
        assert buf.getvalue()

    def test_chrome_trace_well_formed(self):
        p = _run("sort").profiler
        doc = chrome_trace_events(p, label="sort")
        json.dumps(doc)  # must be serializable as-is
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "B", "E", "C", "X"} <= phases
        # B/E spans balance on the phases thread
        assert sum(e["ph"] == "B" for e in events) == sum(
            e["ph"] == "E" for e in events
        )
        # the witness thread replays the depth witness hop count
        assert sum(e["ph"] == "X" for e in events) == len(p.depth_witness().hops)
        ticks = [e["ts"] for e in events if e["ph"] in ("B", "E", "C")]
        assert all(0 <= t <= p.tick for t in ticks)

    def test_summary_json_safe(self):
        for algo in ALGOS:
            s = _run(algo).profiler.summary()
            doc = json.loads(json.dumps(s))
            assert doc["total_energy"] == s["total_energy"]
            assert doc["witness"]["depth"]["replayed"] == doc["witness"]["depth"]["target"]


# ---------------------------------------------------------------------------
# tracer streaming mode
# ---------------------------------------------------------------------------
class TestStreaming:
    def test_sink_without_retention_folds_grids(self):
        p = SpatialProfiler(witnesses=False)
        tracer = Tracer(sink=p.add_batch, retain=False)
        rng = np.random.default_rng(7)
        m = SpatialMachine(trace=tracer)
        reg = Region(0, 0, 8, 8)
        scan(m, m.place_zorder(rng.random(64), reg), reg)
        assert tracer.batches == []  # O(1) memory: nothing retained
        assert p.total_energy == m.stats.energy
        assert sum(p.energy_out.values()) == m.stats.energy

    def test_streamed_grids_match_retained_grids(self):
        streamed = SpatialProfiler(witnesses=False)
        tracer = Tracer(sink=streamed.add_batch, retain=True)
        m = SpatialMachine(trace=tracer)
        rng = np.random.default_rng(7)
        reg = Region(0, 0, 8, 8)
        scan(m, m.place_zorder(rng.random(64), reg), reg)
        replayed = SpatialProfiler(witnesses=False)
        for b in tracer.batches:
            replayed.add_batch(b)
        assert dict(streamed.energy_out) == dict(replayed.energy_out)
        assert dict(streamed.hlinks) == dict(replayed.hlinks)

    def test_jsonl_sink_roundtrips(self, tmp_path):
        buf = io.StringIO()
        tracer = Tracer(sink=jsonl_sink(buf), retain=True)
        m = SpatialMachine(trace=tracer)
        rng = np.random.default_rng(7)
        reg = Region(0, 0, 4, 4)
        scan(m, m.place_zorder(rng.random(16), reg), reg)
        loaded = Tracer.from_jsonl(io.StringIO(buf.getvalue()))
        assert loaded.total_messages() == tracer.total_messages()
        assert loaded.total_energy() == tracer.total_energy()


# ---------------------------------------------------------------------------
# machine wiring, CLI, and runner schema
# ---------------------------------------------------------------------------
class TestIntegration:
    def test_profiling_is_opt_in(self):
        assert SpatialMachine().profiler is None
        assert SpatialMachine(profile=False).profiler is None
        assert isinstance(SpatialMachine(profile=True).profiler, SpatialProfiler)

    def test_env_flag_enables_profiler(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert SpatialMachine().profiler is not None
        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert SpatialMachine().profiler is None

    def test_profiling_never_changes_costs(self):
        plain, profiled = _run("sort", profile=False), _run("sort", profile=True)
        assert plain.stats.energy == profiled.stats.energy
        assert plain.stats.max_depth == profiled.stats.max_depth
        assert plain.stats.max_distance == profiled.stats.max_distance

    def test_cli_profile_verb(self, tmp_path, capsys):
        svg = tmp_path / "heat.svg"
        trace = tmp_path / "trace.json"
        rc = main([
            "profile", "scan", "-n", "64",
            "--heatmap", str(svg), "--trace", str(trace),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "depth witness" in out and "distance witness" in out
        assert svg.read_text().startswith("<svg ")
        doc = json.loads(trace.read_text())
        assert {"M", "B", "E", "C", "X"} <= {e["ph"] for e in doc["traceEvents"]}

    def test_cli_report_json(self, capsys):
        assert main(["report", "--algo", "scan", "-n", "64", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrics"]["energy"] > 0
        assert doc["cost_tree"]["name"] == "total"

    def test_point_from_machine_carries_profile(self):
        profiled = point_from_machine(_run("scan", profile=True))
        assert profiled["profile"]["total_energy"] == profiled["metrics"]["energy"]
        plain = point_from_machine(_run("scan", profile=False))
        assert "profile" not in plain

    def test_bench_schema_accepts_optional_profile(self):
        def doc_with(point_extra):
            point = {
                "params": {"n": 4}, "seed": 0, "repeat": 0, "status": "ok",
                "metrics": {m: 1 for m in (
                    "energy", "messages", "rounds", "max_depth", "max_distance")},
                "phases": [], "extra": {},
            }
            point.update(point_extra)
            return {
                "schema_version": 1, "suite": "s", "artifact": "", "code_version": "v",
                "generated_at": "t", "spec": {}, "config": {}, "points": [point],
                "summary": {"total": 1, "ok": 1, "failed": 0, "cached": 0,
                            "wall_time_s": 0.0},
            }

        assert validate_bench_result(doc_with({})) == []
        assert validate_bench_result(doc_with({"profile": {"total_energy": 1}})) == []
        errs = validate_bench_result(doc_with({"profile": "not-a-dict"}))
        assert any("profile" in e for e in errs)


def _regen() -> None:  # pragma: no cover - maintenance entry point
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(_fig1_snapshot(), fh, indent=2)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        sys.exit("usage: python tests/test_profiler.py --regen")

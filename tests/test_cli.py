"""Tests for the command-line interface (python -m repro ...)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_bench_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for verb in ("list", "run", "compare"):
            assert verb in out

    def test_bench_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_bench_run_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "run", "--suite", "no_such_suite"])

    def test_defaults(self):
        args = build_parser().parse_args(["scan"])
        assert args.n == 4096 and args.workload == "uniform"

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--workload", "bogus"])


class TestCommands:
    def test_scan(self, capsys):
        assert main(["scan", "--n", "256"]) == 0
        out = capsys.readouterr().out
        assert "parallel scan" in out and "energy=" in out

    def test_sort_workloads(self, capsys):
        assert main(["sort", "--n", "64", "--workload", "reversed"]) == 0
        assert "2D mergesort" in capsys.readouterr().out

    def test_select(self, capsys):
        assert main(["select", "--n", "256", "--k", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "rank select (k=10)" in out and "iterations=" in out

    def test_select_default_median(self, capsys):
        assert main(["select", "--n", "64"]) == 0
        assert "k=32" in capsys.readouterr().out

    def test_spmv(self, capsys):
        assert main(["spmv", "--n", "16", "--density", "3"]) == 0
        assert "SpMV" in capsys.readouterr().out

    def test_table1_quick(self, capsys):
        assert main(["table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table I measured" in out
        assert "4096" not in out.split("sort E")[0]  # quick mode: small sizes

    def test_non_pow4_rejected(self):
        with pytest.raises(SystemExit):
            main(["scan", "--n", "100"])


class TestBenchCommands:
    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "table1_sort" in out and "registered suite(s)" in out

    def test_bench_run_and_compare_roundtrip(self, tmp_path, capsys):
        run_args = [
            "bench", "run", "--suite", "table1_scan", "--quick", "--jobs", "2",
            "--no-cache", "--quiet", "--out-dir", str(tmp_path / "out"),
        ]
        assert main(run_args) == 0
        out_file = tmp_path / "out" / "BENCH_table1_scan.json"
        assert out_file.exists()

        from repro.runner import load_bench_result, validate_bench_result

        doc = load_bench_result(out_file)
        assert validate_bench_result(doc) == []
        assert doc["summary"]["failed"] == 0
        capsys.readouterr()

        # identical vs itself: the gate passes
        assert main(["bench", "compare", "--baseline", str(out_file),
                     "--current", str(out_file)]) == 0
        assert "PASS" in capsys.readouterr().out


class TestErrorPaths:
    """Bad invocations exit non-zero with a message, never a traceback."""

    def test_unknown_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_profile_unknown_algo(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_profile_malformed_metric(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "scan", "--metric", "bogus"])
        assert exc.value.code == 2
        assert "--metric" in capsys.readouterr().err

    def test_bench_compare_unknown_metric(self):
        with pytest.raises(SystemExit, match="unknown metric"):
            main(["bench", "compare", "--baseline", "benchmarks/baselines/quick",
                  "--current", "benchmarks/baselines/quick", "--metric", "bogus"])

    def test_bench_compare_missing_baseline(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "compare", "--baseline", str(tmp_path / "nowhere"),
                  "--current", str(tmp_path / "nowhere")])
        assert exc.value.code not in (0, None)

    def test_report_unknown_algo(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--algo", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_serve_bad_port_type(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "not-a-port"])
        assert exc.value.code == 2
        assert "--port" in capsys.readouterr().err


class TestChaosCommand:
    def test_chaos_sweep_passes(self, capsys):
        assert main(["chaos", "--algos", "scan,select", "--profiles",
                     "drops,dead", "--side", "4"]) == 0
        out = capsys.readouterr().out
        assert "chaos sweep" in out
        assert "MISMATCH" not in out

    def test_chaos_json_output(self, tmp_path, capsys):
        out_file = tmp_path / "chaos.json"
        assert main(["chaos", "--algos", "scan", "--profiles", "mixed",
                     "--side", "4", "--out", str(out_file)]) == 0
        import json

        reports = json.loads(out_file.read_text())
        assert len(reports) == 1
        assert reports[0]["exact_match"] is True
        assert "recovery" in reports[0]
        capsys.readouterr()

    def test_chaos_rejects_unknown_algo(self):
        with pytest.raises(SystemExit, match="unknown chaos algo"):
            main(["chaos", "--algos", "nope", "--profiles", "drops"])

    def test_chaos_rejects_unknown_profile(self):
        with pytest.raises(SystemExit, match="unknown"):
            main(["chaos", "--algos", "scan", "--profiles", "gremlins"])

    def test_chaos_bad_algo_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--algos", "nope", "--profiles", "drops"])
        assert exc.value.code != 0

    def test_chaos_multiple_plans(self, capsys):
        assert main(["chaos", "--algos", "mergesort", "--profiles", "mixed",
                     "--side", "4", "--plans", "3"]) == 0
        # three seeded plans, all bit-identical
        assert capsys.readouterr().out.count(" ok ") >= 3

    def test_chaos_mismatch_names_the_point_and_exits_1(self, monkeypatch, capsys):
        from repro.runner import chaos

        real = chaos.run_chaos_grid
        monkeypatch.setattr(chaos, "run_chaos_grid", lambda *a, **k: [
            dict(r, exact_match=False) for r in real(*a, **k)
        ])
        assert main(["chaos", "--algos", "scan", "--profiles", "drops",
                     "--side", "4"]) == 1
        captured = capsys.readouterr()
        assert "MISMATCH" in captured.out
        assert "scan/drops/seed=0: output differs" in captured.err
        assert "FAULT-RECOVERY FAILURE: 1 point(s)" in captured.err


class TestConformanceCommand:
    def test_conformance_sweep_passes(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "conformance.json"
        assert main(["conformance", "--algos", "scan,select", "--side", "4",
                     "--seeds", "2", "--out", str(out_file)]) == 0
        assert "fast-vs-reference conformance (side=4, 4 points)" in capsys.readouterr().out
        reports = json.loads(out_file.read_text())
        assert [(r["algo"], r["seed"]) for r in reports] == [
            ("scan", 0), ("scan", 1), ("select", 0), ("select", 1)
        ]
        assert all(r["conformant"] for r in reports)

    def test_conformance_has_no_profiles_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["conformance", "--profiles", "clean"])
        assert exc.value.code == 2
        assert "--profiles" in capsys.readouterr().err

    def test_conformance_drift_names_the_point_and_exits_1(self, monkeypatch, capsys):
        from repro.runner import conformance

        real = conformance.run_conformance_grid
        monkeypatch.setattr(conformance, "run_conformance_grid", lambda *a, **k: [
            dict(r, conformant=False, cost_tree_equal=False) for r in real(*a, **k)
        ])
        assert main(["conformance", "--algos", "scan", "--side", "4"]) == 1
        err = capsys.readouterr().err
        assert "scan/seed=0: cost tree differs" in err
        assert "CONFORMANCE FAILURE: 1 point(s)" in err


class TestGraphCommand:
    def test_cc_per_round(self, capsys):
        assert main(["graph", "cc", "--generator", "grid", "-n", "16",
                     "--per-round"]) == 0
        out = capsys.readouterr().out
        assert "connected components" in out and "per-iteration attribution" in out
        assert "components=1" in out

    def test_bfs(self, capsys):
        assert main(["graph", "bfs", "--generator", "powerlaw", "-n", "16",
                     "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "BFS" in out and "reached=" in out and "rounds=" in out

    def test_pagerank(self, capsys):
        assert main(["graph", "pagerank", "-n", "16", "--max-rounds", "2",
                     "--tol", "0"]) == 0
        out = capsys.readouterr().out
        assert "PageRank" in out and "rounds=2" in out and "converged=False" in out

    def test_degrees(self, capsys):
        assert main(["graph", "degrees", "-n", "16"]) == 0
        assert "max_degree=" in capsys.readouterr().out

    def test_profile_artifacts(self, tmp_path, capsys):
        heatmap = tmp_path / "graph.svg"
        trace = tmp_path / "graph_trace.json"
        assert main(["graph", "cc", "-n", "16", "--heatmap", str(heatmap),
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "wrote svg heatmap" in out and "trace event(s)" in out
        assert heatmap.stat().st_size > 0
        import json

        events = json.loads(trace.read_text())
        assert events["traceEvents"]

    def test_grid_requires_square(self):
        with pytest.raises(SystemExit, match="perfect-square"):
            main(["graph", "cc", "--generator", "grid", "-n", "15"])

    def test_unknown_generator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["graph", "cc", "--generator", "bogus"])

    def test_unknown_algo_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["graph", "kcore"])


class TestProfileWitness:
    """``repro profile`` when a witness is missing or wrong."""

    def test_overflowed_witness_is_reported_not_fatal(self, tmp_path, monkeypatch, capsys):
        from repro.machine import machine as machine_mod
        from repro.machine.profiler import SpatialProfiler

        class SmallRecord(SpatialProfiler):
            def __init__(self):
                super().__init__(max_witness_messages=10)

        monkeypatch.setattr(machine_mod, "SpatialProfiler", SmallRecord)
        trace = tmp_path / "trace.json"
        assert main(["profile", "scan", "--n", "64", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        for metric in ("depth", "distance"):
            assert f"{metric} witness: not recorded" in out
        assert "10 messages" in out and "trace event(s)" in out
        assert trace.stat().st_size > 0

    def test_wrong_complete_witness_fails(self, monkeypatch, capsys):
        from repro.machine.profiler import SpatialProfiler, Witness, WitnessHop

        hop = WitnessHop((0, 0), (0, 1), 1, 1, 1, 1, "", "send", 0, 0)
        monkeypatch.setattr(
            SpatialProfiler, "depth_witness",
            lambda self: Witness("depth", target=1, hops=[hop]),
        )
        assert main(["profile", "scan", "--n", "64", "--witness", "depth"]) == 1
        assert "WARNING: witness replay disagrees with MachineStats.max_depth" in (
            capsys.readouterr().err
        )


#: serving-tier flags that nothing passed, each deleted with its default
#: kept as the fixed value: (command, argv that sets the flag)
DELETED_SERVING_FLAGS = [
    ("serve", ["--max-inflight", "64"]),
    ("serve", ["--memory-cache", "512"]),
    ("serve", ["--no-disk-cache"]),
    ("serve", ["--drain-timeout", "30"]),
    ("fleet", ["--max-inflight", "256"]),
    ("fleet", ["--request-timeout", "30"]),
    ("fleet", ["--attempt-timeout", "5"]),
    ("fleet", ["--hedge-after", "0.75"]),
    ("fleet", ["--hedge-rate", "0.05"]),
    ("fleet", ["--no-disk-cache"]),
    ("fleet", ["--backends", "127.0.0.1:1"]),
    ("fleet-chaos", ["--timeout", "60"]),
    ("loadgen", ["--zipf-alpha", "1.0"]),
    ("loadgen", ["--auto"]),
    ("loadgen", ["--targets", "127.0.0.1:1"]),
    ("loadgen", ["--max-retries", "8"]),
    ("loadgen", ["--timeout", "30"]),
]


class TestDeletedServingFlags:
    @pytest.mark.parametrize(
        "command, argv",
        DELETED_SERVING_FLAGS,
        ids=[f"{command} {argv[0]}" for command, argv in DELETED_SERVING_FLAGS],
    )
    def test_refused(self, command, argv, monkeypatch, capsys):
        """Only the parsers run: nothing is served and no load is sent."""
        with pytest.raises(SystemExit) as exc:
            if command == "loadgen":
                from repro.service import loadgen

                def no_load(*args, **kwargs):
                    raise AssertionError(f"loadgen accepted {argv[0]}")

                monkeypatch.setattr(loadgen, "build_requests", no_load)
                loadgen.main(["--port", "1", *argv])
            else:
                build_parser().parse_args([command, *argv])
        assert exc.value.code == 2
        assert argv[0] in capsys.readouterr().err

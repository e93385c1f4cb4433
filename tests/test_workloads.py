"""The workload registry: every entry runs, checks itself, and shows up
everywhere a workload is listed — the chaos and conformance grids, the CLI's
``--algo`` choices and, for served entries, ``GET /algos``."""

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import workloads
from repro.cli import build_parser
from repro.machine import SpatialMachine
from repro.runner import chaos, conformance
from repro.service.protocol import ServiceRequest, algos_doc
from repro.workloads import WORKLOADS, OracleError, Output

ROOT = Path(__file__).resolve().parents[1]


def _perturbed(out: Output) -> Output:
    values = np.array(out.values, dtype=np.float64)
    flat = values.reshape(-1)
    i = int(np.flatnonzero(np.isfinite(flat))[0])
    flat[i] += 1.0
    return dataclasses.replace(out, values=values)


def _grid_names(monkeypatch, module, point_fn: str, grid_fn: str) -> set:
    seen = set()
    monkeypatch.setattr(module, point_fn, lambda algo, *a, **k: seen.add(algo) or {})
    getattr(module, grid_fn)()
    return seen


@pytest.mark.parametrize("name", list(WORKLOADS))
class TestEveryEntry:
    def test_runs_and_passes_its_oracle_at_the_smallest_size(self, name):
        entry = WORKLOADS[name]
        n = entry.sizes.lo
        assert entry.sizes.shaped(n)
        inp = entry.make_input(n, np.random.default_rng(0))
        out = entry.execute(SpatialMachine(), inp)
        assert isinstance(out.values, np.ndarray) and out.values.size

    def test_oracle_rejects_a_perturbed_output(self, name):
        entry = WORKLOADS[name]
        inp = entry.make_input(entry.sizes.lo, np.random.default_rng(0))
        out = entry.run(SpatialMachine(), inp)
        with pytest.raises(OracleError):
            entry.oracle(inp, _perturbed(out))

    def test_in_the_default_chaos_and_conformance_grids(self, name, monkeypatch):
        assert name in _grid_names(monkeypatch, chaos, "run_chaos_point", "run_chaos_grid")
        assert name in _grid_names(
            monkeypatch, conformance, "run_conformance_point", "run_conformance_grid"
        )

    def test_in_the_cli_algo_choices(self, name):
        parser = build_parser()
        assert parser.parse_args(["report", "--algo", name]).algo == name
        assert parser.parse_args(["trace", "--algo", name]).algo == name
        assert parser.parse_args(["profile", name]).algo == name


@pytest.mark.parametrize("served", sorted(workloads.served()))
def test_served_entries_are_listed_with_their_range(served):
    entry = workloads.served()[served]
    assert algos_doc()["algos"][served] == {
        "suite": entry.suite,
        "n_range": [entry.sizes.lo, entry.sizes.hi],
    }
    req = ServiceRequest.from_payload({"algo": served, "n": entry.sizes.lo})
    assert req.point().suite == entry.suite


def test_served_names_are_the_five_suites():
    assert {name: w.suite for name, w in workloads.served().items()} == {
        "scan": "table1_scan",
        "sort": "table1_sort",
        "select": "table1_selection",
        "spmv": "table1_spmv",
        "graph": "graph",
    }


def test_lookup_resolves_served_names_and_rejects_unknown_ones():
    assert workloads.lookup("sort") is WORKLOADS["mergesort"]
    assert workloads.lookup("graph") is WORKLOADS["graph"]  # an entry name wins
    with pytest.raises(ValueError, match="unknown chaos algo 'nope'"):
        workloads.lookup("nope", "chaos algo")


def test_a_new_entry_reaches_chaos_conformance_and_the_cli(monkeypatch):
    """One registry entry is all a new workload needs."""
    toy = dataclasses.replace(WORKLOADS["scan"], name="toy_scan", served="")
    monkeypatch.setitem(WORKLOADS, "toy_scan", toy)
    assert build_parser().parse_args(["report", "--algo", "toy_scan"]).algo == "toy_scan"
    report = chaos.run_chaos_point("toy_scan", "drops", side=4)
    assert report["exact_match"]
    report = conformance.run_conformance_point("toy_scan", side=4)
    assert report["conformant"]
    assert "toy_scan" in _grid_names(monkeypatch, chaos, "run_chaos_point", "run_chaos_grid")


_PERTURBED_PATHS = textwrap.dedent(
    """
    import contextlib, io, sys
    assert not __debug__, "run me under python -O"
    from repro import workloads
    from repro.cli import main
    from repro.runner.chaos import run_chaos_point
    from repro.runner.conformance import run_conformance_point
    from repro.runner.worker import run_suite_point

    real = workloads.scan

    def perturbed(*args, **kwargs):
        res = real(*args, **kwargs)
        res.inclusive.payload[0] += 1.0
        return res

    workloads.scan = perturbed
    paths = {
        "cli": lambda: main(["scan", "--n", "64"]),
        "suite": lambda: run_suite_point("", "table1_scan", {"n": 64}, 0),
        "chaos": lambda: run_chaos_point("scan", "drops", side=4),
        "conformance": lambda: run_conformance_point("scan", side=4),
    }
    for name, call in paths.items():
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                call()
        except workloads.OracleError:
            print(name, "OracleError")
        else:
            print(name, "accepted a wrong output")
    """
)


def test_wrong_output_fails_typed_under_python_O():
    """``python -O`` strips ``assert``; the oracles must still fire on the
    CLI verb, the suite point, chaos and conformance."""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PERTURBED_PATHS],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("\n")
    assert [line for line in lines if line] == [
        f"{path} OracleError" for path in ("cli", "suite", "chaos", "conformance")
    ], proc.stdout

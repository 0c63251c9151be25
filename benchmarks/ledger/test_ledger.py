"""The ledger's own tests: ``PYTHONPATH=src python -m pytest benchmarks/ledger``.

They run the benchmark in ``--quick`` mode (one round per workload on the
small database), so they check its plumbing, not the program's speed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run  # first: it puts this directory and src/ on sys.path

import harness
import spans
import workloads
from compare import compare
from oracle import Oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SINGLE_CLIENT = [w.name for w in workloads.WORKLOADS.values() if w.clients == 1]


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def quick(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--workload", workload,
         "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_meets_the_contract(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["paths"] == ["benchmarks/ledger"]
    assert 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in declared["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in declared["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in declared["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in declared["end_to_end"])
    # A run of the driver's schedule must fit its time cap with room to spare.
    assert (4 + 22 * len(declared["workloads"])) * (declared["run_seconds"] + 12) < 3420


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_result_line_schema_and_declared_metrics(declared, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = quick(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in declared[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == want
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float))
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", SINGLE_CLIENT)
def test_count_metrics_repeat_exactly(workload):
    counts = ["compiler.compiles", "compiler.residual_bytes", "compiler.ir_stmts",
              "sql.shape.calls_per_req", "engine.fallbacks"]
    counts += [f"session.cache.{c}" for c in harness.CACHE_COUNTERS]
    first, second = quick(workload, 1), quick(workload, 1)
    assert first["attempted"] == second["attempted"]
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    cold = workloads.WORKLOADS[workload].cold
    assert first["metrics"]["session.cache.misses"]["value"] == (1.0 if cold else 0.0)
    assert first["metrics"]["compiler.compiles"]["value"] == (1.0 if cold else 0.0)


def test_self_times_add_up_to_the_root_span(tmp_path):
    out = tmp_path / "spans.json"
    quick("point_wire", 1, "--trace-out", str(out))
    docs = json.loads(out.read_text())["spans"]
    by_id = {d["id"]: [d["name"], d["start"], d["end"], None, d["request_id"], None]
             for d in docs}
    for d in docs:
        if d["parent"] is not None:
            by_id[d["id"]][spans.PARENT] = by_id[d["parent"]]
    all_spans = list(by_id.values())
    selfs = spans.self_times(all_spans)
    roots = [s for s in all_spans if s[spans.PARENT] is None and s[spans.RID]]
    assert len(roots) == 8 and {s[spans.NAME] for s in roots} == {"serve.wire"}
    for root in roots:
        tree = [s for s in all_spans if s[spans.RID] == root[spans.RID]]
        names = {s[spans.NAME] for s in tree}
        assert {"serve.server", "serve.service", "resilience.executor",
                "session.resolve", "sql.shape", "compiler.run"} <= names
        assert sum(s[spans.NAME] == "sql.shape" for s in tree) == 4
        total = sum(selfs[id(s)] for s in tree)
        assert total == pytest.approx(root[spans.END] - root[spans.START], rel=0.05)


def test_untraced_run_patches_nothing_and_traced_run_restores(capsys):
    harness.load_program()

    def snapshot():
        return [
            (namespace, attr, vars(namespace)[attr])
            for point in spans.patch_points()
            for namespace, attr in spans.holders(point)
        ]

    before = snapshot()
    assert len(before) >= len(spans.patch_points())
    assert run.main(["--quick", "--workload", "mix_warm", "--trace", "0"]) == 0
    assert all(vars(ns)[attr] is fn for ns, attr, fn in before)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(vars(ns)[attr] is not fn for ns, attr, fn in before)
    finally:
        tracer.uninstall()
    assert all(vars(ns)[attr] is fn for ns, attr, fn in before)
    capsys.readouterr()


def test_window_is_reported_in_reference_time():
    from reference import NOMINAL_S, Reference

    class Scripted:
        """The box at its nominal speed, then half as fast (CPU unchanged)."""

        def __init__(self):
            self.script = iter([1, 2, 2])

        def sample(self):
            return NOMINAL_S * next(self.script), NOMINAL_S

    pace = harness.Pace(workloads.WORKLOADS["mix_warm"], Scripted(), None, 2)
    assert [pace.next_segment(0) for _ in range(3)] == [1, 1, 0]
    assert pace.scales() == pytest.approx([2 / 3, 1 / 2])
    assert pace.scales(cpu=True) == pytest.approx([1, 1])
    seen = harness.ClientRun(latencies=[3.0, 6.0, 4.0], segments=[0, 2])
    assert harness._in_reference_time(seen, pace.scales()) == pytest.approx([2, 4, 2])
    # The real thing: repeatable to a few per cent on an idle core, and it
    # leaves the garbage collector's counters alone.
    import gc

    reference = Reference()
    before = gc.get_count()
    seconds = sorted(reference.sample()[0] for _ in range(9))
    assert gc.get_count() == before
    assert 0 < seconds[4] < 10 * NOMINAL_S


def test_oracle_rejects_wrong_rows():
    statements = workloads.load_statements()
    oracle = Oracle("small", statements)
    cat = workloads.catalogue(statements)
    assert set(cat["mix"]) | set(cat["point"]) <= set(oracle._rows)
    key = "q1.v0"
    rows = oracle._rows[key]
    assert oracle.ordered(key) and oracle.matches(key, [tuple(r) for r in rows])
    assert not oracle.matches(key, rows[::-1])  # ORDER BY is checked
    assert not oracle.matches(key, rows[:-1])
    nudged = [list(r) for r in rows]
    nudged[0][2] *= 1 + 1e-9
    assert oracle.matches(key, nudged)
    nudged[0][2] *= 1.001
    assert not oracle.matches(key, nudged)
    bag = "p_nation_region.b0"
    assert not oracle.ordered(bag)
    assert oracle.matches(bag, oracle._rows[bag][::-1])


def test_compare_verdicts():
    def ledger(qps_values, failed=0.0):
        return {"workloads": {"w": {"end_to_end": {
            "qps": {"unit": "1/s", "values": qps_values,
                    "median": sorted(qps_values)[len(qps_values) // 2]},
            "failed_share": {"unit": "ratio", "values": [failed], "median": failed},
        }}}}

    def verdicts(a, b):
        return {r["metric"]: r["verdict"] for r in compare(a, b)}

    steady = ledger([100, 101, 99, 100, 102])
    assert verdicts(steady, ledger([98, 99, 97, 98, 100])) == {
        "qps": "ok", "failed_share": "ok"}
    assert verdicts(steady, ledger([60, 61, 59, 60, 62]))["qps"] == "regressed"
    assert verdicts(steady, ledger([50, 100, 150, 99, 101]))["qps"] == "unresolved"
    assert verdicts(steady, ledger([100] * 5, failed=0.01))["failed_share"] == "regressed"
    # One run a side has no spread: "no change" cannot be told from noise.
    assert verdicts(ledger([100]), ledger([100]))["qps"] == "unresolved"
    # A workload or a metric that B lacks is a row, never a silent pass.
    assert verdicts(steady, {"workloads": {}}) == {
        "qps": "missing", "failed_share": "missing"}
    partial = ledger([100, 101, 99, 100, 102])
    del partial["workloads"]["w"]["end_to_end"]["qps"]
    assert verdicts(steady, partial)["qps"] == "missing"

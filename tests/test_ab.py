"""``benchmarks/ab.py``, the per-statement A/B of the served mix, runs its
calibration end to end: HEAD's tree against this checkout, one ABBA round
on the small database, every reply checked by the ledger's oracle, and
each side's minor page faults per statement reported."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
AB = ROOT / "benchmarks" / "ab.py"


def _in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(
        ["git", "-C", str(ROOT), "cat-file", "-e", "HEAD:src/repro"], capture_output=True
    )
    return probe.returncode == 0


@pytest.mark.skipif(not _in_git_checkout(), reason="the A side is HEAD's tree, from git")
def test_ab_calibration_round_checks_every_mix_reply(tmp_path):
    out = tmp_path / "ab.json"
    done = subprocess.run(
        [sys.executable, str(AB), "--db", "small", "--rounds", "1", "--pairs", "1",
         "--json", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads(out.read_text())
    mix = json.loads((ROOT / "benchmarks" / "ledger" / "statements.json").read_text())["mix"]
    assert set(doc["statements"]) == {e["key"] for e in mix} | {"round"}
    assert doc["rejected"] == {"A": [], "B": []}
    for row in doc["statements"].values():
        assert row["rounds"] == 1 and row["a_ms"] > 0 and row["b_ms"] > 0
        # minor page faults per request: a count, never negative
        assert row["a_faults"] >= 0 and row["b_faults"] >= 0
    round_row = doc["statements"]["round"]
    for side in ("a_faults", "b_faults"):
        assert round_row[side] >= max(
            row[side] for key, row in doc["statements"].items() if key != "round"
        )
    assert "replies rejected by the oracle: A 0, B 0" in done.stdout
    assert "A flt" in done.stdout and "B flt" in done.stdout

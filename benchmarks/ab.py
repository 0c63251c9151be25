"""Per-statement A/B of the served mix: one tree against another.

Usage, from the repository root (it finds ``src/`` itself)::

    python benchmarks/ab.py [--rev REV] [--rounds N] [--pairs K] [--db main|small]
                            [--json FILE]

Side A is the tree of git revision ``REV`` (default ``HEAD``), written out
with ``git archive`` into a temporary directory.  Side B is the checkout
this script lives in, uncommitted changes included.  With no ``--rev`` on
a clean checkout both sides are the same code: that run is the
calibration, and its ratios show how far apart two identical trees read
on the machine it runs on.

For each of ``--pairs`` pairs, one worker process per tree is started,
both pinned to the same core.  Each loads the ``mix_warm`` database
(``--db main``, SF 0.01; ``small`` is SF 0.001) and one ``QueryService``
once, and runs a warm-up round of both literal variants, so every shape
is compiled before anything is timed.  Then ``--rounds`` times, the two
sides run one mix round each in ABBA order -- first side with variant 0,
second side with variant 0, second side with variant 1, first side with
variant 1 -- so each side runs both literal variants per round and
neither always runs first.  Which tree is first swaps on every pair.  Each
statement is timed around ``QueryService.submit``, the call ``mix_warm``
makes, and every reply is checked against the ledger's oracle (Volcano's
rows), outside the timing; a rejected reply is reported by key, and the
script then exits 1.  The script prints, per statement, the median
milliseconds of each side (a round's two variants averaged), the ratio
B/A, how many rounds B won and each side's median minor page faults per
request (the process's ``ru_minflt`` delta around ``submit``); then the
same for the whole round.  The statements, their literals and the
oracle are the ledger's (``benchmarks/ledger/workloads.py``,
``oracle.py``), imported read-only.

Why two processes.  An A/B inside one process, swapping each cached
program's residual source between two generated versions, sees a change
to the generator only: both sides share the one loaded database,
the one ``repro.storage`` and the one ``repro.compiler.runtime``, so a
change to how columns are stored or to what a kernel does is on both
sides at once.  Each tree here runs in its own process, from its own
source.

Three traps, measured on a 2-core VM:

* **malloc arenas.**  A service runs statements on its worker thread,
  and glibc gives that thread a malloc arena of its own, apart from the
  main thread's, which holds the database.  With two services in one
  process (one per side), identical code ran q18 and q20 1.3-1.6x slower
  on the second; ``MALLOC_ARENA_MAX=1`` removed that difference.  But
  forcing one arena here misleads the other way: the statements'
  allocations then share a heap with the database's column arrays, so
  a change to how columns are stored moves the cost of integer kernels
  that never touch a string.  Padding typed strings to a word width read
  q18 and q20 1.11-1.12x that way (``v_group_ids`` of q20 1.70x), and
  0.97-1.02x with each worker thread in its own arena, as ``mix_warm``
  runs.  So the workers keep glibc's default.
* **Placement.**  Separate processes carry a random bias of up to ~8 % on
  the whole round, and more on single statements: one four-pair
  calibration read q20 0.76x (B won 60 of 60 rounds), a later six-pair
  one 1.08x.  ``--pairs`` starts fresh processes and swaps which side
  goes first, so the medians average over it.  Read a per-statement ratio
  against the calibration's spread, not against 1.
* **Trimmed heap.**  A static group table allocates arrays of its whole
  span on every run (q20's are 1.6 MB).  glibc raises its mmap
  threshold to the size of a freed mapped block, so later arrays of that
  size come from the heap; whether freeing them trims the heap, so that
  the next request faults the pages in again, depends on the heap's
  layout: it happens in one process and not in another of the same code.
  In a single-process probe at SF 0.01, q18, q20 and q21 took 200, 438
  and 361 minor faults per request and ran 1.36x, 1.39x and 1.12x slower
  than with none (the round 1.11x).  The fault columns show it: a
  statement that reads slow with hundreds of faults where the other side
  has ~0 is this trap, not the change.  Setting
  ``MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=134217728`` in
  this script's environment (both workers inherit it) removed the faults
  and the difference.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LEDGER = HERE / "ledger"


# -- the worker: one tree, one service -------------------------------------------


def worker(src: str, db_name: str, core: int) -> None:
    """Serve rounds for the parent over stdin/stdout (one JSON line each).

    Requests are ``{"variant": v}`` (one mix round, that literal variant)
    or ``{"quit": true}``; the first line written is ``{"ready": ...}``.
    """
    os.sched_setaffinity(0, {core})
    sys.path[:0] = [str(LEDGER), src]
    # protocol lines go to the real stdout; anything the program prints,
    # to standard error
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    import repro
    import workloads
    from oracle import Oracle
    from repro.serve import QueryService, ServiceConfig, ServiceRequest
    from repro.session import Session
    from repro.storage.database import OptimizationLevel
    from repro.tpch.dbgen import generate_database

    if not Path(repro.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"ab: imported {repro.__file__}, not the tree under {src}")
    t0 = time.perf_counter()
    scale = workloads.SCALES[db_name]
    db = generate_database(scale, level=OptimizationLevel.COMPLIANT)
    service = QueryService(Session(db), ServiceConfig(workers=1, query_scale=scale))
    statements = workloads.load_statements()
    oracle = Oracle(db_name, statements)

    def mix_round(variant: int) -> dict:
        times, faults, rejected = {}, {}, []
        for key, doc in workloads._mix_round(statements, variant, "ab"):
            name = key.split(".")[0]
            f = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t = time.perf_counter()
            reply = service.submit(ServiceRequest(**doc))
            times[name] = time.perf_counter() - t
            faults[name] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f
            if not (reply.ok and oracle.matches(key, reply.rows)):
                rejected.append(key)
        return {"times": times, "faults": faults, "rejected": rejected}

    warm = [mix_round(0), mix_round(1)]
    gc.collect()
    rejected = warm[0]["rejected"] + warm[1]["rejected"]
    out.write(json.dumps({"ready": time.perf_counter() - t0, "rejected": rejected}) + "\n")
    out.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("quit"):
            break
        out.write(json.dumps(mix_round(request["variant"])) + "\n")
        out.flush()
    service.close()


# -- the parent: pairs of workers ------------------------------------------------------


class Side:
    """One worker process running one tree."""

    def __init__(self, name: str, src: Path, db_name: str, core: int) -> None:
        self.name = name
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(src),
             "--db", db_name, "--core", str(core)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"ab: the {self.name} worker exited (its traceback is above)")
        return json.loads(line)

    def round(self, variant: int) -> dict:
        self.proc.stdin.write(json.dumps({"variant": variant}) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.write(json.dumps({"quit": True}) + "\n")
            self.proc.stdin.close()
        self.proc.wait()


def materialize(rev: str, into: Path) -> Path:
    """The tree of ``rev`` under ``into``, by ``git archive``: its ``src``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def run(rev: str, rounds: int, pairs: int, db_name: str) -> dict:
    """Per-round, per-statement seconds and minor page faults of both
    sides, and the rejects."""
    core = sorted(os.sched_getaffinity(0))[-1]
    samples = {"A": [], "B": []}  # per round: {statement: mean of both variants}
    faults = {"A": [], "B": []}  # the same, of the faults
    rejected = {"A": [], "B": []}
    with tempfile.TemporaryDirectory(prefix="repro-ab-") as tmp:
        trees = {"A": materialize(rev, Path(tmp)), "B": ROOT / "src"}
        for pair in range(pairs):
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            sides = {name: Side(name, trees[name], db_name, core) for name in order}
            try:
                for name in order:
                    rejected[name] += sides[name].read()["rejected"]
                first, second = order
                for _ in range(rounds):
                    got = {first: [], second: []}
                    for name, variant in ((first, 0), (second, 0), (second, 1), (first, 1)):
                        reply = sides[name].round(variant)
                        got[name].append(reply)
                        rejected[name] += reply["rejected"]
                    for name, (v0, v1) in got.items():
                        for into, field in ((samples, "times"), (faults, "faults")):
                            r0, r1 = v0[field], v1[field]
                            into[name].append({k: (r0[k] + r1[k]) / 2 for k in r0})
            finally:
                for side in sides.values():
                    side.close()
    return {"samples": samples, "faults": faults, "rejected": rejected}


def _per_key(rounds: list, key: str) -> list:
    """One statement's value per round, or the whole round's sum."""
    if key == "round":
        return [sum(r.values()) for r in rounds]
    return [r[key] for r in rounds]


def summarize(samples: dict, faults: dict) -> dict:
    """Per statement and for the round: medians (ms), B/A, B's wins and
    each side's median minor page faults."""
    rows = {}
    for key in list(samples["A"][0]) + ["round"]:
        xs, ys = _per_key(samples["A"], key), _per_key(samples["B"], key)
        ma, mb = statistics.median(xs), statistics.median(ys)
        rows[key] = {
            "a_ms": ma * 1e3,
            "b_ms": mb * 1e3,
            "ratio": mb / ma,
            "b_wins": sum(y < x for x, y in zip(xs, ys)),
            "rounds": len(xs),
            "a_faults": statistics.median(_per_key(faults["A"], key)),
            "b_faults": statistics.median(_per_key(faults["B"], key)),
        }
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="side A's git revision (default HEAD)")
    parser.add_argument("--rounds", type=int, default=15, help="ABBA rounds per pair")
    parser.add_argument("--pairs", type=int, default=2, help="fresh worker pairs")
    parser.add_argument("--db", choices=("main", "small"), default="main")
    parser.add_argument("--json", help="also write the summary here")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--core", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker, args.db, args.core)
        return 0

    result = run(args.rev, args.rounds, args.pairs, args.db)
    rows = summarize(result["samples"], result["faults"])
    print(f"A = {args.rev}, B = {ROOT}; db {args.db}, {args.pairs} pair(s) x "
          f"{args.rounds} round(s); medians of one mix round (both variants averaged)")
    print(f"{'statement':<10} {'A ms':>8} {'B ms':>8} {'B/A':>7} {'B wins':>8} "
          f"{'A flt':>7} {'B flt':>7}")
    for key, row in rows.items():
        print(f"{key:<10} {row['a_ms']:8.3f} {row['b_ms']:8.3f} {row['ratio']:7.3f} "
              f"{row['b_wins']:>4}/{row['rounds']:<3} "
              f"{row['a_faults']:7.0f} {row['b_faults']:7.0f}")
    rejected = result["rejected"]
    keys = sorted(set(rejected["A"] + rejected["B"]))
    print(f"replies rejected by the oracle: A {len(rejected['A'])}, B {len(rejected['B'])}"
          + (f" ({', '.join(keys)})" if keys else ""))
    if args.json:
        doc = {"rev": args.rev, "db": args.db, "pairs": args.pairs, "rounds": args.rounds,
               "statements": rows, "rejected": rejected}
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if keys else 0


if __name__ == "__main__":
    sys.exit(main())

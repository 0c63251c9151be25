"""The perf ledger: one command, four served workloads, checked replies.

Two ways to run it (from the repository root; it finds ``src/`` itself):

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process.  ``--trace 0`` measures the end-to-end
    metrics with nothing patched; ``--trace 1`` installs the span wrappers
    of ``spans.py`` and reports the per-layer metrics.  The last line of
    standard output is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``.

``python3 benchmarks/ledger/run.py [--repeats N] [--out FILE]``
    The whole ledger: every workload untraced (``--repeats`` times, default
    3, each in a fresh subprocess, seeds ``seed``, ``seed+1``, ...; the
    repeats go round the workloads) and once traced,
    with the direct-call ladder and the telemetry overhead probes, printed
    by name with units and written to ``--out`` with provenance.  Without
    ``--seconds`` each workload runs its fixed round count, so work and
    counters are identical on both sides of a comparison.

See README.md in this directory for the metric and workload tables.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time starts before the program's imports

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness
import spans
import workloads
from compare import spread
from oracle import Oracle, write_expected
from reference import NOMINAL_S, Reference
from workloads import WORKLOADS

DEFAULT_SEED = 20180610
DEFAULT_OUT = harness.WORK_DIR / "ledger.json"

#: Ledger mode: which traced run also carries which ladder.py probe.
LADDER_OF = {"mix_warm": "direct", "mix_concurrent": "obs"}


# -- one workload, in this process -----------------------------------------


def run_workload(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    cores = sorted(os.sched_getaffinity(0))
    if workload.clients > len(cores):
        sys.exit(
            f"ledger: {workload.name} needs {workload.clients} cores for its "
            f"{workload.clients} clients; this process may use "
            f"{len(cores)} (it would measure the scheduler)"
        )
    # One core per client.  A one-client workload is sequential (client ->
    # server thread -> worker -> back); left on two cores its hand-offs cross
    # between them, and what that costs is the host's placement of the two
    # virtual CPUs, which changes by a third for minutes at a time.
    os.sched_setaffinity(0, cores[-workload.clients:])
    statements = workloads.load_statements()
    db_name = "small" if args.quick else workload.db
    scale = workloads.SCALES[db_name]
    oracle = Oracle(db_name, statements)
    seconds, n_rounds = args.seconds, None
    if args.quick:
        seconds, n_rounds = None, 1
    elif seconds is None:
        n_rounds = max(1, workload.rounds // 4) if args.trace else workload.rounds

    harness.load_program()
    import_s = time.perf_counter() - _T0
    reference = Reference()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    try:
        # Set-up, several times over in this process: the median is steadier
        # than one pass, but the later passes are warm (see README, setup_s).
        # The reference is timed around each so setup_s is in reference time.
        setups, env = [], None
        setup_reference = [reference.sample()[0]]
        warmup_spans: list = []
        for _ in range(1 if args.quick else harness.SETUP_REPEATS):
            if env is not None:
                env.close()
                env = None
                gc.collect()
            if tracer is not None:
                tracer.reset()
            t0 = time.perf_counter()
            env = harness.Env(workload, scale)
            warm = [
                (key, env.send(0, doc))
                for key, doc in workloads.warmup_round(workload, statements)
            ]
            setups.append(time.perf_counter() - t0)
            setup_reference.append(reference.sample()[0])
        setup_s = (import_s + statistics.median(setups)) * (
            NOMINAL_S / statistics.median(setup_reference)
        )
        bad_warm = [
            key for key, reply in warm if not harness.is_right(oracle, key, reply)
        ]
        if bad_warm:
            sys.exit(f"ledger: warm-up replies wrong for {bad_warm}")
        if tracer is not None:
            warmup_spans = tracer.reset()

        window = harness.measure(
            env, workload, statements, oracle, reference, args.seed, seconds,
            n_rounds, args.quick,
        )
        window_spans = tracer.spans() if tracer is not None else []
    finally:
        if tracer is not None:
            tracer.uninstall()

    if tracer is None:
        metrics = harness.end_to_end(window, setup_s)
        units = harness.END_TO_END_UNITS
    else:
        metrics = harness.per_layer(window, window_spans, warmup_spans, env)
        units = harness.PER_LAYER_UNITS
    if args.ladder:
        import ladder

        extras = ladder.RUNS[args.ladder](env, statements, scale, oracle)
        metrics.update(extras)
        units = {**units, **{name: ladder.unit_of(name) for name in extras}}
    env.close()
    if args.trace_out and tracer is not None:
        Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload.name, "spans": spans.to_documents(window_spans)}, fh)

    n, failed = window["attempted"], window["failed"]
    for line in window["failures"]:
        print(f"FAILED {line}")
    print(
        f"{workload.name}: seed={args.seed} requests={n} "
        f"clients={workload.clients} workers={workload.workers} "
        f"db={db_name} (SF {scale}) failed_share={failed / n:.6f}"
    )
    ref_ms = statistics.median(window["reference_s"]) * 1e3
    print(
        f"  reference computation: {ref_ms:.2f} ms here, {NOMINAL_S * 1e3:.2f} ms "
        f"nominal; end-to-end times are x{NOMINAL_S * 1e3 / ref_ms:.3f} of the clock's"
    )
    for name, value in metrics.items():
        print(f"  {workload.name}.{name} = {value:.6g} {units[name]}  (n={n})")
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- the whole ledger, one subprocess per run ------------------------------------


def _child(args: argparse.Namespace, workload: str, seed: int, trace: bool, extra=()) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", "1" if trace else "0", *extra,
    ]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"ledger: {' '.join(cmd)} exited {proc.returncode}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    return json.loads(lines[-1])


def provenance(args: argparse.Namespace) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "seed": args.seed,
        "statements_sha256": workloads.statements_sha256(),
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seconds": args.seconds,
        "quick": args.quick,
        "load": "closed loop, one process, at most 2 client threads, one core "
        "per client",
        "reference_nominal_s": NOMINAL_S,  # times are in reference time
        "workloads": {
            w.name: {
                "db": w.db, "scale": workloads.SCALES[w.db], "clients": w.clients,
                "workers": w.workers, "rounds_per_client": w.rounds,
                "wire": w.wire,
            }
            for w in WORKLOADS.values()
        },
    }


def run_ledger(args: argparse.Namespace) -> int:
    doc = {"schema": "repro-ledger/v1", "provenance": provenance(args), "workloads": {}}
    failed = 0
    # Repeats go round the workloads, so that a slow phase of the box (they
    # last minutes) costs every workload a run, not one workload all of its.
    untraced = {name: [] for name in WORKLOADS}
    for i in range(args.repeats):
        for name in WORKLOADS:
            untraced[name].append(_child(args, name, args.seed + i, trace=False))
    for name, runs in untraced.items():
        extra = []
        if not args.quick and name in LADDER_OF:
            extra += ["--ladder", LADDER_OF[name]]
        if args.trace_out:
            extra += ["--trace-out", f"{args.trace_out}.{name}.json"]
        traced = _child(args, name, args.seed, trace=True, extra=extra)
        failed += sum(r["failed"] for r in runs) + traced["failed"]
        series = {
            metric: (m["unit"], [r["metrics"][metric]["value"] for r in runs])
            for metric, m in runs[0]["metrics"].items()
        }
        series["failed_share"] = ("ratio", [r["failed"] / r["attempted"] for r in runs])
        end_to_end = {
            metric: {
                "unit": unit,
                "values": values,
                "median": statistics.median(values),
                "spread": spread(values),
            }
            for metric, (unit, values) in series.items()
        }
        attempted = sum(r["attempted"] for r in runs)
        per_layer = {
            k: v for k, v in traced["metrics"].items() if k in harness.PER_LAYER_UNITS
        }
        per_layer["trace.overhead_ratio"] = {
            "value": per_layer["trace.qps"]["value"] / end_to_end["qps"]["median"],
            "unit": "ratio",
        }
        doc["workloads"][name] = {
            "requests": [r["attempted"] for r in runs],
            "requests_total": attempted,
            "traced_requests": traced["attempted"],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "ladder": {
                k: v for k, v in traced["metrics"].items()
                if k not in harness.PER_LAYER_UNITS
            },
        }
    print("\n== ledger ==")
    for name, entry in doc["workloads"].items():
        for metric, m in entry["end_to_end"].items():
            noise = "" if m["spread"] is None else f", spread={m['spread']:.1%}"
            print(f"{name}.{metric} = {m['median']:.6g} {m['unit']}  (runs="
                  f"{len(m['values'])}, requests={entry['requests_total']}{noise})")
        for section in ("per_layer", "ladder"):
            for metric, m in entry[section].items():
                print(f"{name}.{metric} = {m['value']:.6g} {m['unit']}"
                      f"  (traced requests={entry['traced_requests']})")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure whole rounds for this long (default: "
                        "the workload's fixed round count)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the traced run's spans here")
    parser.add_argument("--ladder", choices=("direct", "obs"),
                        help="with --workload: add the direct-call ladder or "
                        "the telemetry overhead probes (see ladder.py)")
    parser.add_argument("--quick", action="store_true",
                        help="one round per workload on the small database")
    parser.add_argument("--repeats", type=int, default=3,
                        help="ledger mode: untraced runs per workload (compare.py "
                        "needs at least 2 a side to tell a change from noise)")
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected/ with the Volcano interpreter")
    args = parser.parse_args(argv)
    if args.write_expected:
        write_expected(workloads.load_statements())
        return 0
    if args.workload:
        return run_workload(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())

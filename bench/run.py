"""Benchmark of the twoatomcavity command line, in process.

    python3 bench/run.py --workload {series,sweep,audit} --seed N --seconds S --trace {0,1}

Runs whole rounds of one workload's seeded operations through
``twoatomcavity.cli.main(argv)`` until ``--seconds`` have passed (and at
least enough ops completed for the tail percentile), then checks every
artifact against the independent reference in ``reference.py``. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. See README.md.
"""
from __future__ import annotations

import os

# One BLAS thread: with two, a time_series call burns twice its wall time in
# CPU on a two-core machine, and its timing follows whatever else runs.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Percentile reported as op_tail_s; a run completes at least
#: MIN_COMPLETED ops so that at least ten lie beyond it.
TAIL_PERCENTILE = 90
MIN_COMPLETED = 100
#: Fresh-interpreter imports per untraced run, spread evenly over its
#: measured window so that setup_s samples the same machine load as the ops.
SETUP_REPEATS = 21
#: A run stops starting rounds after this long, whatever its op count.
HARD_STOP_S = 120.0
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import twoatomcavity.cli; "
    "print(time.perf_counter() - start)"
)
LEAK_MESSAGE = "on the top two Fock levels"


def import_time() -> float:
    """Time for a fresh interpreter to import ``twoatomcavity.cli``."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1])


def tail_value(times: list[float], percentile: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(times)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def run_op(cli, op: dict, path: Path, traced: bool, round_number: int) -> dict:
    """One timed ``cli.main`` call; the record keeps what checks and metrics need."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        code = cli.main([*op["argv"], "--output", str(path)])
        elapsed = time.perf_counter() - start
    if op["kind"] == "audit" and code == 0:
        path.with_suffix(".txt").write_text(stdout.getvalue())
    return dict(op=op, path=path, code=code, elapsed=elapsed, stderr=stderr.getvalue(),
                traced=traced, round=round_number, failures=[], leaked=False)


def check(records: list[dict]) -> None:
    """Fill each record's failures from the reference (outside any timing)."""
    pairs: dict[tuple[int, int], dict] = {}
    for record in records:
        op = record["op"]
        if record["code"] != 0:
            record["leaked"] = (
                op.get("expect_leak", False) and record["code"] == 2
                and LEAK_MESSAGE in record["stderr"]
            )
            continue
        text = record["path"].read_text()
        if op["kind"] == "series":
            failures, values = reference.check_series(text, op)
            if op["pair"] is not None and values is not None:
                pairs.setdefault((record["round"], op["pair"]), {})[op["initial"]] = (record, values)
        elif op["kind"] == "sweep":
            failures = reference.check_sweep(text, op)
        else:
            failures = reference.check_audit(text, record["path"].with_suffix(".txt").read_text(), op)
        record["failures"] += failures
    for pair in pairs.values():
        if len(pair) == 2:
            (record, eg), (_, ge) = pair["eg"], pair["ge"]
            op = record["op"]
            tol = reference.phase_tolerance(op["delta"], op["n_photon"], op["tau_max"])
            record["failures"] += reference.check_swap_symmetry(eg, ge, tol)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twoatomcavity" / "cli.py").is_file():
        print(f"error: no twoatomcavity sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from twoatomcavity import cli

    round_ops = workloads.make_round(args.workload, args.seed)
    regular = sum(1 for op in round_ops if not op.get("expect_leak"))
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    records: list[dict] = []
    setup_times: list[float] = []

    def path_of(op: dict) -> Path:
        return workdir / f"op{len(records):06d}.{'json' if op['kind'] == 'audit' else 'csv'}"

    try:
        run_op(cli, round_ops[0], path_of(round_ops[0]), False, -1)  # warm-up, not counted
        tracer = spans.Tracer()
        start = time.perf_counter()
        rounds = 0
        while True:
            traced = bool(args.trace) and rounds % 2 == 1
            if traced:
                tracer.install()
            try:
                for op in round_ops:
                    records.append(run_op(cli, op, path_of(op), traced, rounds))
                    due = len(setup_times) * args.seconds / SETUP_REPEATS
                    if (not args.trace and len(setup_times) < SETUP_REPEATS
                            and time.perf_counter() - start >= due):
                        setup_times.append(import_time())
            finally:
                tracer.uninstall()
            rounds += 1
            elapsed = time.perf_counter() - start
            enough = rounds * regular >= MIN_COMPLETED and (not args.trace or rounds % 2 == 0)
            if (elapsed >= args.seconds and enough) or elapsed >= HARD_STOP_S:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while not args.trace and len(setup_times) < SETUP_REPEATS:  # ops slower than the spacing
            setup_times.append(import_time())
        check(records)
        for record in records:
            if record["code"] == 0 and not record["failures"]:
                record["bytes"] = record["path"].stat().st_size
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()

    exit_failed = [r for r in records if r["code"] != 0]
    check_failed = [r for r in records if r["code"] == 0 and r["failures"]]
    unexpected = [r for r in exit_failed if not r["leaked"]]
    done = [r for r in records if r["code"] == 0 and not r["failures"]]
    for record in unexpected:
        print(f"FAIL exit {record['code']}: {' '.join(record['op']['argv'])}: "
              f"{record['stderr'].strip()}", file=sys.stderr)
    for record in check_failed:
        print(f"FAIL check: {' '.join(record['op']['argv'])}: {'; '.join(record['failures'])}",
              file=sys.stderr)

    if args.trace:
        untraced = [r["elapsed"] for r in done if not r["traced"]]
        traced_done = [r for r in done if r["traced"]]
        overhead = (
            statistics.fmean(r["elapsed"] for r in traced_done) - statistics.fmean(untraced)
            if untraced and traced_done else 0.0
        )
        values = spans.layer_metrics(
            tracer,
            ops=sum(1 for r in records if r["traced"]),
            completed=len(traced_done),
            samples=sum(r["op"]["samples"] for r in traced_done),
            artifact_bytes=sum(r["bytes"] for r in traced_done),
            overhead_s=overhead,
        )
        units = dict(spans.PER_LAYER)
    else:
        times = [r["elapsed"] for r in done]
        values = {
            "setup_s": statistics.median(setup_times),
            "samples_per_s": sum(r["op"]["samples"] for r in done) / sum(times) if times else 0.0,
            "op_p50_s": statistics.median(times) if times else 0.0,
            "op_tail_s": tail_value(times, TAIL_PERCENTILE) if times else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "samples_per_s": "1/s", "op_p50_s": "s",
                 "op_tail_s": "s", "peak_rss_mb": "MB"}
    print(
        f"workload={args.workload} seed={args.seed} rounds={rounds} attempted={len(records)} "
        f"completed={len(done)} exit_failures={len(exit_failed)} "
        f"(expected long-window leaks {len(exit_failed) - len(unexpected)}) "
        f"check_failures={len(check_failed)} tail=p{TAIL_PERCENTILE} of {len(done)} ops "
        f"measured_s={elapsed:.1f}"
    )
    result = {
        "correct": not unexpected and not check_failed,
        "attempted": len(records),
        "failed": len(exit_failed) + len(check_failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

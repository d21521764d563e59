"""Steadiness check: repeated runs of each workload, twice, against the bounds.

    python3 bench/steadiness.py --seed 100

Each of two sets runs every workload of BENCHMARK.json ten times for its
``run_seconds``, run ``i`` of set ``s`` with seed ``seed + 10 * s + i``,
interleaving the workloads. For every end-to-end metric it reports, per set,
the median and the interquartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), and the change of the median from the
first set to the second in the metric's worse direction. A metric passes when
every spread and every worsening stays within its bound in BENCHMARK.json; the
failed share must be identical in every run. Exit code 0 when all pass, 1
otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="seed of the first run")
    args = parser.parse_args()
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]

    results: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            for workload in workloads:
                seed = args.seed + s * RUNS + i
                result = run_once(workload, seed, spec["run_seconds"])
                results[workload][s].append(result)
                values = " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics
                )
                print(f"set={s} workload={workload} seed={seed} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} {values}",
                      flush=True)

    ok = True
    summary = {}
    for workload, sets in results.items():
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        ok &= len(shares) == 1 and correct
        print(f"{workload}: failed share {sorted(str(x) for x in shares)}, all correct {correct}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(values) for values in per_set]
            spreads = [spread(values) for values in per_set]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worsening = [sign * (m - medians[0]) / medians[0] for m in medians[1:]]
            passed = all(w <= bound for w in worsening) and all(x <= bound for x in spreads)
            ok &= passed
            summary[f"{workload}.{name}"] = dict(
                medians=medians, spreads=spreads, worsening=worsening, bound=bound, passed=passed
            )
            print(f"  {name:14s} bound {bound:.2f}  medians "
                  + " ".join(f"{m:.6g}" for m in medians)
                  + "  spreads " + " ".join(f"{x:.3f}" for x in spreads)
                  + "  worsening " + " ".join(f"{w:+.3f}" for w in worsening)
                  + ("  ok" if passed else "  FAIL"))
    print(json.dumps({"passed": ok, "metrics": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

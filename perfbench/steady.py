"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/steady.py                       # every workload, ten seeds
    python3 perfbench/steady.py --workload verify --runs 5

Runs each workload ``--runs`` times, one process per run and a new seed
each time, one run after another.  For every end-to-end metric it
prints the median, the spread (the distance between the first and
third quartiles as a share of the median) and the metric's bound from
BENCHMARK.json.  A spread within the bound passes; the target is a
third of it.  It also checks that every run failed the same share of
its operations.  Exits 1 when a spread exceeds its bound, an output was
wrong, or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    # Exit code 1 with a result line means a wrong output, counted below.
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names, action="append",
                    help="repeat to pick several; default all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    ok = True
    for workload in args.workload or names:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            results.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in results[-1]["metrics"].items()), flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        wrong = sum(not r["correct"] for r in results)
        print(f"{workload}: failed share {' / '.join(str(s) for s in sorted(shares))}, "
              f"runs with wrong outputs {wrong}")
        ok = ok and len(shares) == 1 and wrong == 0
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            s = spread(values)
            bound = metric["bound"]
            verdict = "ok" if s <= bound / 3 else "within bound" if s <= bound else "TOO WIDE"
            ok = ok and s <= bound
            print(f"  {metric['name']:18s} median {statistics.median(values):12.6g} {metric['unit']:4s} "
                  f"spread {s:6.3f}  bound {bound:.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload, or all three, and print every metric.

    python3 perfbench/run.py --workload long-chart --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1

One workload runs in this process, single-threaded, from the package
sources under ``src/`` of the checkout this file sits in.  A run
attempts whole rounds of the workload's operations until ``--seconds``
have passed (and, untraced, at least five rounds), checks every
output against the oracles, prints each metric by name and unit, and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

Times are in reference seconds (see ``Clock``).  With ``--trace 0``
the metrics are the end-to-end ones.  With ``--trace 1`` untraced and
traced rounds alternate; the metrics are the per-layer ones from the
traced rounds plus the tracing overhead against the untraced rounds.

Metric names, units and the default run length come from
BENCHMARK.json at the checkout root.  ``--all`` starts one process per
workload, one after the other, and prints their metrics and operation
counts.  A run whose outputs were not all correct exits 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYER_MODULES, Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}

SETUPS_PER_ROUND = 3
MIN_ROUNDS = 5  # a per-operation median over five rounds drops two slow rounds
MIN_OPS = 40  # operations a round: op_tail_ms needs ten beyond it and thirty below


def require_checkout() -> None:
    """Refuse to run without the package sources and the fixtures."""
    for needed in (ROOT / "src" / "deduce" / "__init__.py", workloads.DATA):
        if not needed.exists():
            raise SystemExit(f"missing {needed}: run from a checkout of the repository")


def import_deduce():
    """A fresh import of the package from ``ROOT/src``.

    Earlier imports are dropped first, so each call pays the whole
    import; a package found anywhere else is refused.
    """
    src = ROOT / "src"
    for name in [m for m in sys.modules if m == "deduce" or m.startswith("deduce.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    d = importlib.import_module("deduce")
    for m in LAYER_MODULES:
        importlib.import_module(f"deduce.{m}")
    if Path(d.__file__).resolve().parent != (src / "deduce").resolve():
        raise SystemExit(f"imported deduce from {d.__file__}, not from {src}")
    return d


# ---- reference seconds ----
#
# This machine's speed is not steady: measured over a minute, a fixed
# pure-Python loop ran at two speeds about 70 % apart, switching every
# few seconds as other tenants came and went, and a round of cli-stream
# moved with it (coefficient of variation 17 % across rounds).  Every
# time the benchmark reports is therefore in reference seconds: the
# measured seconds scaled by REF_CAL_S over the time of a short fixed
# calibration loop run just before and just after the timed work.  The
# same scaling brought that variation to 3 %.  The loop touches nothing
# of the program, so a change to the program moves reference seconds
# as it moves real ones.
#
# The program does not slow down by the same factor as the loop: over
# two minutes of each workload on a 2-core x86-64 VM, regressing each
# operation's log time on the log calibration time gave median slopes
# of 0.81 (long-chart), 0.86 (cli-stream) and 0.88 (verify).  Scaling
# by the plain ratio left operations timed in the fast state about 9 %
# slower, in reference seconds, than in the slow state, so a run's
# figures moved with the share of it spent in each.  The ratio is
# therefore raised to SPEED_EXPONENT.

CAL_LOOPS = 6000
REF_CAL_S = 0.003  # the loop's time that defines one reference second
SPEED_EXPONENT = 0.85


def to_reference(seconds: float, calibration_s: float) -> float:
    """Measured seconds in reference seconds, at a calibration time."""
    return seconds * (REF_CAL_S / calibration_s) ** SPEED_EXPONENT


def _calibration_loop(n: int) -> int:
    table: dict = {}
    acc = 0
    for i in range(n):
        key = (i, i % 7, (i * 3) % 11)
        table[key] = table.get(key[1:], 0) + 1
        acc += len(key) + key[1]
    return acc


class Clock:
    """Times intervals in reference seconds, each against the mean of
    the calibrations run just before and just after it."""

    def __init__(self):
        self.calibrations: list = []
        self._before = 0.0

    def _calibrate(self) -> float:
        t0 = time.perf_counter()
        _calibration_loop(CAL_LOOPS)
        took = time.perf_counter() - t0
        self.calibrations.append(took)
        return took

    def start(self) -> float:
        self._before = self._calibrate()
        return time.perf_counter()

    def elapsed(self, t0: float) -> float:
        seconds = time.perf_counter() - t0
        return to_reference(seconds, (self._before + self._calibrate()) / 2)


def setup(prepare, inputs, clock: Clock, times: list):
    """Import the package, load the grammars and build the systems;
    appends the time taken and returns the round's operations."""
    gc.collect()
    t0 = clock.start()
    d = import_deduce()
    ops = prepare(d, inputs)
    times.append(clock.elapsed(t0))
    return d, ops


class Tally:
    """Operation times, inferences and outcomes over the rounds."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.op_times: list = []  # per operation position, one time per untraced round
        self.rounds = 0
        self.inferences = 0
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []

    def run_round(self, ops, tracer=None) -> float:
        """Run every operation once; the time spent inside them."""
        if not self.op_times:
            self.op_times = [[] for _ in ops]
        spent = 0.0
        for op, times in zip(ops, self.op_times):
            # Start each operation with no garbage left by the last, so
            # where the collector runs inside it does not depend on the
            # order of the round.
            gc.collect()
            if tracer is not None:
                tracer.install()
            t0 = self.clock.start()
            try:
                output = op.run()
                error = None
            except Exception as exc:  # a failed operation, reported below
                output, error = None, exc
            dt = self.clock.elapsed(t0)
            if tracer is not None:
                tracer.uninstall()
                tracer.fold()
            spent += dt
            self.attempted += 1
            if tracer is None:
                times.append(dt)
            if error is not None:
                self.failed += 1
                print(f"failed: {op.label}: {type(error).__name__}: {error}", file=sys.stderr)
                continue
            try:
                failed, inferences = op.check(output)
            except workloads.WrongOutput as exc:
                self.wrong.append(str(exc))
                continue
            if failed:
                self.failed += 1
            if tracer is None:
                self.inferences += inferences
        if tracer is None:
            self.rounds += 1
        return spent

    def medians(self) -> list:
        """Each operation's median time over the untraced rounds: its
        time with the machine's transient slow phases filtered out."""
        return [statistics.median(times) for times in self.op_times]


def tail(values) -> float:
    """The highest percentile with at least ten values beyond it."""
    return sorted(values)[len(values) - 11]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    generate, prepare = workloads.WORKLOADS[workload]
    inputs = generate(seed)
    setup_times: list = []
    clock = Clock()
    tally = Tally(clock)
    tracer = None
    traced_rounds = []
    start = time.perf_counter()
    while True:
        # Set-up is repeated before every round, so its samples spread
        # over the run like the operations' do.
        for _ in range(SETUPS_PER_ROUND):
            d, ops = setup(prepare, inputs, clock, setup_times)
        tally.run_round(ops)
        if trace:
            if tracer is None:
                tracer = Tracer()
            # A traced set-up (the import itself cannot be traced), then
            # a traced round over its operations.
            d = import_deduce()
            tracer.bind(d)
            tracer.install()
            ops = prepare(d, inputs)
            tracer.uninstall()
            tracer.fold()
            traced_rounds.append(tally.run_round(ops, tracer))
            done = True
        else:
            done = tally.rounds >= MIN_ROUNDS
        if done and time.perf_counter() - start >= seconds:
            break
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }
    medians = tally.medians()
    if len(medians) < MIN_OPS:
        raise SystemExit(f"{workload}: {len(medians)} operations a round, op_tail_ms needs {MIN_OPS}")
    wall_s = sum(medians)
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "op_p50_ms": 1000.0 * statistics.median(medians),
            "op_tail_ms": 1000.0 * tail(medians),
            "inferences_per_s": tally.inferences / tally.rounds / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        # Spans are timed in measured seconds; convert at the run's
        # median calibration, since each span is too short to bracket.
        factor = to_reference(1.0, statistics.median(clock.calibrations))
        values = {name: value * factor if UNITS[name] == "s" else value
                  for name, value in tracer.layer_metrics(len(traced_rounds)).items()}
        traced = statistics.median(traced_rounds)
        values["trace.overhead_s"] = traced - wall_s
        values["trace.overhead_ratio"] = traced / wall_s - 1.0
    result["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    for message in tally.wrong[:20]:
        print(f"wrong: {message}", file=sys.stderr)
    print(f"calibration loop: median {1000 * statistics.median(clock.calibrations):.3f} ms "
          f"against {1000 * REF_CAL_S:.3f} ms per reference second, "
          f"{len(clock.calibrations)} calibrations", file=sys.stderr)
    return result


def print_metrics(workload: str, result: dict) -> None:
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    ok = True
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload}: exit code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        print_metrics(workload, result)
        ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload, one process each")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload is None:
        ap.error("give --workload or --all")
    require_checkout()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_metrics(args.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

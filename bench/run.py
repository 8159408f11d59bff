"""permbinom benchmark: one workload, measured for a fixed time.

Usage, from the repository root:

    python3 bench/run.py --workload nonexistence|oracle|search|bigfield \\
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

Every repetition runs in a fresh interpreter (bench/child.py, one process,
jobs=1), because a command-line user pays the import and every field build
on each run.  Repetitions continue while the next one still fits in the
time budget, with at least two.  Set-up is measured on its own in extra
interpreters that stop once the inputs exist.

--trace 0 prints the end-to-end metrics, medians over repetitions:
  setup_s      interpreter start until permbinom is imported and the inputs
               are generated
  wall_s       wall time of the workload body (field builds included)
  peak_rss_mb  the repetition's maximum resident set size
Both times are seconds at a fixed host speed.  A second process
(bench/meter.py), pinned to the one CPU the repetitions run on, times a
fixed reference kernel every 0.02 s throughout the run; each interval, net
of the meter's own busy time, is multiplied by REF_NOMINAL_S over the
reference time at the mean speed the meter saw during that interval.  On
a host whose speed drifts by tens of percent within seconds, and
differently on each CPU, this keeps the spread between runs within a few
percent.  The meter shares no interpreter state with the program.  The raw
medians are printed to stderr and, with --trace 1, reported as
setup_raw_s and wall_raw_s.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (medians, raw times) plus
trace.overhead, the traced over the untraced median wall_s, the raw
medians of the untraced ones and fail_ratio, the run's failed over
attempted checks.  Spans,
hot-call aggregates and the first-failure-alpha histogram go to
.bench_work/trace-<workload>-<seed>.json.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; failed/attempted is the run's fail ratio (a crash of a
repetition counts as one failed check).  Any failed check makes the exit
code 1.  Exit code 2: no permbinom sources under src/, or PERMBINOM_CAP set
to something other than the default, which would change the desk-sweep and
search ranges.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_PROBES = 11
MIN_REPS = 2
CHILD_TIMEOUT_S = 150
DEFAULT_CAP = 10**7
WORK_DIR = ".bench_work"
REF_NOMINAL_S = 0.00035  # reference kernel time at the nominal host speed
MIN_WINDOW_S = 1.0  # the shortest stretch of meter samples an interval is scaled by


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _git_sha() -> str:
    """HEAD of the checkout; 'unknown' outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk("src"):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "git_sha": _git_sha(),
        "loadavg_start": os.getloadavg(),
        "src_lines": _src_lines(),
    }


def _child(args, mode: str, workdir: str) -> tuple[dict | None, float]:
    """Run one child; returns (its JSON result or None on a crash, spawn time)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), args.workload,
           str(args.seed), args.scale, mode, workdir]
    os.makedirs(workdir, exist_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"bench: {mode} repetition timed out", file=sys.stderr)
        return None, spawned
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"bench: {mode} repetition exited {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None, spawned
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


class Meter:
    """The host-speed meter process (meter.py) for the length of a run.

    The meter and every repetition share one CPU, the first this process
    may use; the repetitions are timed net of the meter's busy time."""

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # inherited
        self.proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "meter.py")],
                                     stdout=subprocess.PIPE, text=True)
        self.proc.stdout.readline()  # "ready": the meter is sampling
        self.samples: list[list[float]] = []

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        if self.proc.returncode == 0 and out.strip():
            self.samples = json.loads(out.strip().splitlines()[-1])

    def busy_s(self, start: float, end: float) -> float:
        """CPU time the meter took from the shared CPU within [start, end]."""
        return sum(cpu for a, b, cpu, _ in self.samples if start <= (a + b) / 2 <= end)

    def reference_s(self, start: float, end: float) -> float:
        """Reference-kernel time at the CPU's mean speed over [start, end]:
        the harmonic mean of the samples within the interval (widened about
        its middle to MIN_WINDOW_S if shorter).  The work a body does is its
        time multiplied by that mean speed, and the samples are evenly spaced
        in time, so speed (1/time), not time, is what they average."""
        pad = max(0.0, MIN_WINDOW_S - (end - start)) / 2
        inside = [dt for a, b, _, dt in self.samples if a >= start - pad and b <= end + pad]
        return len(inside) / sum(1 / dt for dt in inside)


def measure(args) -> tuple[dict, int, list[str], list[dict]]:
    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    t_start = time.monotonic()
    results, failures, attempted = [], [], 0

    def record(result, spawned, mode):
        nonlocal attempted
        if result is None:
            attempted += 1
            failures.append(f"{mode} repetition crashed")
            return
        results.append((mode, spawned, result))
        if mode != "setup":
            attempted += result["attempted"]
            failures.extend(result["failures"])

    meter = Meter()
    try:
        for i in range(SETUP_PROBES):
            record(*_child(args, "setup", f"{work}-s{i}"), "setup")
        modes = ("plain", "traced") if args.trace else ("plain",)
        reps = 0
        rep_times = []
        while True:
            elapsed = time.monotonic() - t_start
            if reps >= MIN_REPS and elapsed + statistics.median(rep_times) > args.seconds:
                break
            mode = modes[reps % len(modes)]
            t0 = time.monotonic()
            record(*_child(args, mode, f"{work}-r{reps}"), mode)
            rep_times.append(time.monotonic() - t0)
            reps += 1
            if failures:
                break  # a failed gate ends the run; no point timing wrong answers
    finally:
        meter.stop()
    if not meter.samples:
        attempted += 1
        failures.append("the host-speed meter returned no samples")

    metrics = {}
    if args.trace:
        metrics["fail_ratio"] = len(failures) / max(attempted, 1)
    if failures:
        return metrics, attempted, failures, []

    def raw(start, end):
        return end - start - meter.busy_s(start, end)

    def scaled(start, end):
        return raw(start, end) * REF_NOMINAL_S / meter.reference_s(start, end)

    setups, raw_setups = [], []
    walls = {"plain": [], "traced": []}
    raw_walls, rss, layers, dumps = [], [], [], []
    for mode, spawned, result in results:
        setups.append(scaled(spawned, result["setup_done"]))
        raw_setups.append(raw(spawned, result["setup_done"]))
        if mode == "setup":
            continue
        walls[mode].append(scaled(result["body_start"], result["body_end"]))
        if mode == "plain":
            raw_walls.append(raw(result["body_start"], result["body_end"]))
            rss.append(result["peak_rss_mb"])
        else:
            layers.append(result["layer"])
            dumps.append(result["trace"])
    print(f"bench: raw medians: setup {statistics.median(raw_setups):.4f} s, "
          f"wall {statistics.median(raw_walls):.4f} s; reference kernel "
          f"{statistics.median(s[3] for s in meter.samples) * 1e3:.4f} ms",
          file=sys.stderr)
    if args.trace:
        for name in layers[0]:  # median_low: a count stays a measured integer
            metrics[name] = statistics.median_low(layer[name] for layer in layers)
        metrics["trace.overhead"] = (statistics.median(walls["traced"])
                                     / statistics.median(walls["plain"]))
        metrics["setup_raw_s"] = statistics.median(raw_setups)
        metrics["wall_raw_s"] = statistics.median(raw_walls)
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": statistics.median(walls["plain"]),
                   "peak_rss_mb": statistics.median(rss)}
    return metrics, attempted, failures, dumps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: minimal sizes for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "permbinom", "__init__.py")):
        _fail("run from the repository root: src/permbinom is missing")
    cap = os.environ.get("PERMBINOM_CAP")
    if cap is not None and cap.strip() != str(DEFAULT_CAP):
        _fail(f"PERMBINOM_CAP={cap!r} changes the swept ranges; unset it")

    # a terminated run still kills its repetition and stops the meter
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = environment()
    print("bench env " + json.dumps(env), file=sys.stderr)
    # bytecode is compiled before anything is timed, as an installed package's is
    compileall.compile_dir("src", quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1, maxlevels=0)

    metrics, attempted, failures, dumps = measure(args)
    if args.trace and dumps:
        path = os.path.join(WORK_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                       "repetitions": dumps}, fh)
        print(f"bench: trace written to {path}", file=sys.stderr)
    for line in failures[:20]:
        print(f"bench: FAILED {line}", file=sys.stderr)
    print(f"bench: fail_ratio {len(failures)}/{attempted} = "
          f"{len(failures) / max(attempted, 1):.6f} (ratio)", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0 if not failures else 1

if __name__ == "__main__":
    sys.exit(main())

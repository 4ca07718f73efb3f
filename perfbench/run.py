"""mfgnet benchmark: run one workload through ``mfgnet.cli.main`` for a
fixed time, check every run's outputs and print the metrics.

    python3 perfbench/run.py --workload ex1_solve --seed 0 --seconds 40 --trace 0

Closed loop: one child process runs one ``main([...])`` call at a time and
the next starts only after it has ended. A call starts only when, at the
length of the slowest call so far, it would end within ``--seconds``; every
run makes at least two calls. ``--trace 0`` first times the set-up in fresh
processes and reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb); ``--trace 1`` makes traced calls and reports the per-layer
metrics.
BLAS and OpenMP are capped at one thread, so this is the plain
single-threaded baseline. The last line of standard output is one JSON
object: correct, attempted, failed, metrics.

Run it from the root of a checkout that holds ``src/mfgnet``; it writes
only under ``.perfbench_work/`` there and removes what it wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_UNITS, consistency_problems, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_outputs, make_instance  # noqa: E402

THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9      # after one discarded probe that fills the bytecode cache
MIN_CALLS = 2
RUN_LIMIT_S = 170.0   # the whole run, children included, ends inside 180 s


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _git_commit() -> str | None:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    return _read(str(ROOT / ".git" / head[5:]))


def environment(seed: int) -> dict:
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_cache": _read(f"{cache}/index2/size"),
        "l3_cache": _read(f"{cache}/index3/size"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_caps": {v: THREAD_CAP for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


class Runner:
    """Starts the child processes of one benchmark run, one at a time."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.count = 0
        self.env = dict(os.environ, **{v: str(THREAD_CAP) for v in THREAD_VARS})

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, *args: str) -> dict | None:
        """Run child.py with ``args``; its result, or None when it failed."""
        self.count += 1
        result = self.work / f"result_{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), args[0], str(result), *args[1:]]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            print(f"child {args[0]} timed out", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result.exists():
            print(f"child {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        return json.loads(result.read_text())


def _tree_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run_call(runner: Runner, inst, traced: bool) -> dict:
    """One main([...]) call with its output checks."""
    out = runner.work / "out"
    res = runner.child("call", "1" if traced else "0", "--", *inst.argv, "--out", str(out))
    record = {"problems": []}
    if res is None:
        record["problems"].append("child failed")
    else:
        record["wall_s"], record["peak_rss_mb"] = res["wall_s"], res["peak_rss_mb"]
        record["problems"], summary = check_outputs(inst.name, res["rc"], out)
        record["sup_distance"] = summary.get("oracle", {}).get("sup_distance")
        if traced:
            m = layer_metrics(res["spans"], summary)
            m["cli.files_written"], m["cli.bytes_written"] = _tree_size(out)
            m["trace.overhead_s"] = res["trace_overhead_s"]
            record["trace_problems"] = consistency_problems(inst.name, m)
            m["trace.check_failures"] = len(record["trace_problems"])
            record["layers"] = m
    shutil.rmtree(out, ignore_errors=True)
    return record


def measure(runner: Runner, inst, seconds: float, trace: bool):
    """Set-up probes (untraced runs only), then calls until time is up."""
    setup_s, attempted, failed = [], 0, 0
    if not trace:
        extra = () if inst.h is None else (str(inst.h),)
        for k in range(SETUP_PROBES + 1):
            res = runner.child("setup", str(inst.config), *extra)
            attempted += 1
            if res is None:
                failed += 1
            elif k > 0:
                setup_s.append(res["setup_s"])
    calls, longest = [], 0.0
    while len(calls) < MIN_CALLS or runner.elapsed() + longest <= seconds:
        if runner.elapsed() + longest > RUN_LIMIT_S:
            break
        started = runner.elapsed()
        calls.append(run_call(runner, inst, traced=trace))
        longest = max(longest, runner.elapsed() - started)
    attempted += len(calls)
    failed += sum(1 for c in calls if c["problems"])
    return setup_s, calls, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "mfgnet" / "__init__.py").is_file():
        print(f"no mfgnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated run still kills and waits for its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = environment(args.seed)
    print("env " + json.dumps(env), flush=True)
    work = ROOT / ".perfbench_work" / f"run_{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work, time.monotonic())
        inst = make_instance(args.workload, args.seed, ROOT, work)
        setup_s, calls, attempted, failed = measure(runner, inst, args.seconds,
                                                    bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    for c in calls:
        for p in c["problems"]:
            print(f"check failed: {p}", flush=True)
        for p in c.get("trace_problems", []):
            print(f"trace check: {p}", flush=True)
    walls = [c["wall_s"] for c in calls if "wall_s" in c]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(calls)} calls, {failed} of {attempted} child runs failed", flush=True)

    print(f"  wall_s of {len(walls)} calls: {walls!r}", flush=True)
    if args.trace:
        traced = [c for c in calls if "layers" in c]
        if not traced:
            print("no traced call completed", file=sys.stderr)
            return 1
        # the lower median is a value one traced call measured, so counts stay whole
        layers = {k: statistics.median_low(c["layers"][k] for c in traced)
                  for k in traced[0]["layers"]}
        metrics = {k: (layers[k], unit) for k, unit in LAYER_UNITS.items()}
    else:
        if not walls or not setup_s:
            print("no call or set-up probe completed", file=sys.stderr)
            return 1
        print(f"  setup_s of {len(setup_s)} probes: {setup_s!r}", flush=True)
        metrics = {
            # the machine's speed drifts over seconds, so the mean, which
            # averages over every measured second, is steadier than the median
            "wall_s": (statistics.fmean(walls), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in calls
                                              if "peak_rss_mb" in c), "MB"),
        }
    print(f"  fail_frac = {failed / attempted!r} ratio ({failed} of {attempted})", flush=True)
    sups = [c["sup_distance"] for c in calls if c.get("sup_distance") is not None]
    if sups:
        print(f"  oracle_sup_distance = {max(sups)!r} (worst of {len(sups)}; "
              f"gate 0.02)", flush=True)
    for k, (v, unit) in metrics.items():
        print(f"  {k} = {v!r} {unit}", flush=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

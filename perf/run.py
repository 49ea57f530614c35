"""The performance ladder: one command, four workloads, every plane.

``python3 perf/run.py`` runs each workload of ``BENCHMARK.json`` in fresh
subprocesses -- an end-to-end pass with tracing off, then a traced pass
that attributes the time to layers -- checks every output against a
bare-Python reference and prints every metric by name with its unit::

    python3 perf/run.py [--seed N] [--workload NAME] [--repeats R] [--out FILE] [--quick]
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1   # one pass, in process
    python3 perf/run.py --compare A.json B.json

With ``--trace`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  The exit code is
non-zero when any job failed, timed out or differed from the reference.

Everything below ``if __name__ == "__main__"`` stays there: cluster
workers are spawned processes that re-import this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

WALL_TIMEOUT_S = 170.0
"""One pass of one workload is killed after this long."""


def _watchdog() -> None:
    from perf.planes import kill_leftover_workers, stop_resource_tracker

    print(f"perf: pass exceeded {WALL_TIMEOUT_S:.0f} s, aborting", file=sys.stderr, flush=True)
    kill_leftover_workers()
    stop_resource_tracker()
    os._exit(3)


def run_pass(name: str, seed: int, seconds: float, trace: int, quick: bool) -> int:
    """One pass of one workload in this process; prints the result line."""
    try:
        from perf import passes, workloads
        from perf.planes import kill_leftover_workers, one_core, stop_resource_tracker
    except ModuleNotFoundError as exc:
        print(f"perf: the program under test is not in this checkout ({exc})", file=sys.stderr)
        return 2

    timer = threading.Timer(WALL_TIMEOUT_S, _watchdog)
    timer.daemon = True
    timer.start()
    try:
        # Passes of a smoke run overlap, so they do not share one core.
        with (nullcontext() if quick else one_core()) as core:
            workload = workloads.make(name, seed, quick)
            run = passes.traced_pass if trace else passes.end_to_end_pass
            result = run(workload, seconds, quick)
    finally:
        # Nothing this pass started may outlive it: the workers, then the
        # resource tracker multiprocessing started along with them.
        kill_leftover_workers()
        stop_resource_tracker()
        timer.cancel()
    for error in result.errors:
        print(f"perf: FAILED {error}", file=sys.stderr)
    line = result.line()
    for metric, entry in line["metrics"].items():
        print(f"{name:14s} {metric:34s} {entry['value']:>16.6g} {entry['unit']}")
    print("INFO " + json.dumps({"constants": workload.constants(),
                                "inputs": workload.describe_inputs(),
                                "errors": result.errors, "pinned_core": core,
                                **result.info}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# -- all workloads, each pass in a fresh subprocess -------------------------------------


def _spawn_pass(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    def lost(why: str) -> dict:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "info": {"errors": [why]}}

    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WALL_TIMEOUT_S + 10, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return lost("pass timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
        out["info"] = json.loads(lines[-2].removeprefix("INFO "))
    except (IndexError, ValueError):
        return lost(f"pass exited {proc.returncode} without a result")
    return out


def _commit() -> str:
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_all(names: list[str], seed: int, seconds: float, repeats: int, quick: bool,
            out: Path | None) -> int:
    """Every pass of the chosen workloads; returns the exit code."""
    from perf.compare import spread
    from perf.workloads import cluster_workers

    # Timings of a smoke run mean nothing, so its passes may overlap.
    pool = ThreadPoolExecutor(max_workers=4 if quick else 1)
    passes = {
        name: [pool.submit(_spawn_pass, name, seed + r, seconds, 0, quick)
               for r in range(repeats)]
        + [pool.submit(_spawn_pass, name, seed, seconds, 1, quick)]
        for name in names
    }
    results: dict[str, dict] = {}
    failed = 0
    for name, futures in passes.items():
        *runs, traced = [future.result() for future in futures]
        entry = {
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "constants": traced["info"].get("constants"),
            "inputs": traced["info"].get("inputs"),
            "end_to_end": {}, "per_layer": traced["metrics"],
            "info": {"end_to_end": [r["info"] for r in runs], "traced": traced["info"]},
        }
        entry["failed_share"] = entry["failed"] / entry["attempted"]
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]
            entry["end_to_end"][metric] = {
                "unit": runs[0]["metrics"][metric]["unit"], "values": values,
                "median": statistics.median(values), "spread": spread(values),
            }
        results[name] = entry
        failed += entry["failed"]
        for metric, m in entry["end_to_end"].items():
            print(f"{name:14s} {metric:34s} {m['median']:>16.6g} {m['unit']:6s}"
                  f" spread {m['spread']:.3f} n={len(m['values'])}")
        for metric, m in entry["per_layer"].items():
            print(f"{name:14s} {metric:34s} {m['value']:>16.6g} {m['unit']}")
        print(f"{name:14s} {'failed_share':34s} {entry['failed_share']:>16.6g} ratio"
              f" ({entry['failed']} of {entry['attempted']})", flush=True)
    pool.shutdown()
    document = {
        "meta": {
            "seed": seed, "seconds": seconds, "repeats": repeats, "quick": quick,
            "nproc": os.cpu_count(), "workers": cluster_workers(),
            "python": platform.python_version(), "platform": platform.platform(),
            "commit": _commit(),
        },
        "workloads": results,
    }
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(document, indent=1) + "\n")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="what one pass measures (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one pass in this process: 0 end-to-end, 1 traced")
    parser.add_argument("--repeats", type=int, default=1,
                        help="end-to-end passes per workload, seeds seed..seed+R-1")
    parser.add_argument("--out", type=Path, help="write the result set as JSON")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: inputs shrunk, one lifecycle, 2 s passes")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        from perf.compare import compare

        return compare(*args.compare, benchmark)
    seconds = args.seconds or (2.0 if args.quick else float(benchmark["run_seconds"]))
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_pass(args.workload, args.seed, seconds, args.trace, args.quick)
    chosen = [args.workload] if args.workload else names
    return run_all(chosen, args.seed, seconds, args.repeats, args.quick, args.out)


if __name__ == "__main__":
    sys.exit(main())

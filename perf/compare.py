"""Compare two result sets written by ``perf/run.py --out``.

For every workload and end-to-end metric: both medians, the relative
change (positive is worse), the bound ``BENCHMARK.json`` fixes, and a
verdict -- ``unresolved`` when either set's run-to-run spread is wider
than the bound (the change cannot be told from noise), ``regressed``
when B's median is worse than A's by more than the bound, else ``ok``.
Per-layer counts are made by the program and must repeat exactly for a
fixed seed, so any that differ at all are listed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

__all__ = ["EXACT_BYTES", "spread", "is_exact", "compare"]

EXACT_BYTES = {"shuffle.bytes_shuffled", "cluster.output_bytes", "cluster.job_wire_bytes"}
"""Byte counts that are sums over the job's own pairs, not over wire
traffic (which carries heartbeats): exact like the ``count`` metrics."""


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (0 with fewer than two values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def is_exact(name: str, unit: str) -> bool:
    return unit == "count" or name in EXACT_BYTES


def compare(path_a: Path, path_b: Path, benchmark: dict) -> int:
    """Print the comparison; 1 when anything regressed, else 0."""
    a = json.loads(path_a.read_text())["workloads"]
    b = json.loads(path_b.read_text())["workloads"]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in benchmark["end_to_end"]}
    regressed = 0
    print(f"{'workload':14s} {'metric':22s} {'A median':>12s} {'B median':>12s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread A/B':>13s}  verdict")
    for name in (n for n in a if n in b):
        for metric, (bound, better) in bounds.items():
            ma, mb = a[name]["end_to_end"][metric], b[name]["end_to_end"][metric]
            worse = (mb["median"] - ma["median"]) / ma["median"]
            if better == "higher":
                worse = -worse
            if max(ma["spread"], mb["spread"]) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            print(f"{name:14s} {metric:22s} {ma['median']:12.5g} {mb['median']:12.5g} "
                  f"{worse:+9.1%} {bound:6.0%} {ma['spread']:6.1%}/{mb['spread']:6.1%}  {verdict}")
        for metric, ma in a[name]["per_layer"].items():
            mb = b[name]["per_layer"].get(metric)
            if mb and is_exact(metric, ma["unit"]) and ma["value"] != mb["value"]:
                print(f"{name:14s} {metric:22s} count differs: {ma['value']} != {mb['value']}")
        for side, runs in (("A", a[name]), ("B", b[name])):
            if runs["failed"]:
                print(f"{name:14s} {side}: {runs['failed']} of {runs['attempted']} failed")
    return 1 if regressed else 0

"""Fig. 5 -- IO throughput of the DHT file system vs HDFS, 6..38 nodes.

DFSIO-style benchmark: map tasks that only read their block.

* Fig. 5(a): throughput = bytes / summed map-task execution time.  The
  metric excludes NameNode lookups and scheduling, so the two file
  systems tie (both stream the same disks).
* Fig. 5(b): throughput = bytes / whole-job execution time.  Hadoop's
  NameNode lookups, container init and job scheduling overheads now
  count, and the DHT file system pulls far ahead.
"""

from __future__ import annotations


from repro.common.units import MB
from repro.experiments.common import ExperimentResult, paper_cluster
from repro.perfmodel.engine import PerfEngine, SimJobSpec
from repro.perfmodel.framework import eclipse_framework, hadoop_framework
from repro.perfmodel.placement import dht_layout, hdfs_layout
from repro.perfmodel.profiles import AppProfile

__all__ = ["run", "format_table"]

#: A read-only "DFSIO" profile: no compute, no shuffle.
DFSIO = AppProfile(
    name="dfsio",
    map_rate=100 * 1024 * MB,   # effectively free CPU
    reduce_rate=100 * 1024 * MB,
    shuffle_ratio=0.0,
    output_ratio=0.0,
)


def _run_one(framework, num_nodes: int, blocks_per_node: int) -> tuple[float, float]:
    config = paper_cluster(num_nodes=num_nodes)
    engine = PerfEngine(config, framework)
    n_blocks = blocks_per_node * num_nodes
    if framework.name.startswith("eclipsemr"):
        blocks = dht_layout(engine.space, engine.ring, "dfsio", n_blocks, config.dfs.block_size)
    else:
        blocks = hdfs_layout(
            engine.space, range(num_nodes), "dfsio", n_blocks, config.dfs.block_size,
            seed=5, rack_of=config.rack_of,
        )
    spec = SimJobSpec(app=DFSIO, tasks=blocks, label="dfsio")
    t0 = engine.sim.now
    timing = engine.run_job(spec)
    total_bytes = spec.input_bytes
    # Per-task metric: read time only = bytes / aggregate disk streaming
    # time actually spent (sum over disks), normalized per active task.
    read_time = sum(node.disk.busy_time for node in engine.cluster.nodes)
    per_task = total_bytes / read_time if read_time else 0.0
    per_job = total_bytes / (timing.end - t0)
    return per_task, per_job


def run(node_counts=(6, 14, 22, 30, 38), blocks_per_node: int = 6) -> ExperimentResult:
    result = ExperimentResult(
        title="Fig. 5: IO throughput (DFSIO), DHT file system vs HDFS",
        x_label="# of nodes",
        x_values=list(node_counts),
    )
    series = {
        "DHT/task (MB/s)": [],
        "HDFS/task (MB/s)": [],
        "DHT/job (MB/s)": [],
        "HDFS/job (MB/s)": [],
    }
    for n in node_counts:
        dht_task, dht_job = _run_one(eclipse_framework("laf"), n, blocks_per_node)
        hdfs_task, hdfs_job = _run_one(hadoop_framework(), n, blocks_per_node)
        series["DHT/task (MB/s)"].append(dht_task / MB)
        series["HDFS/task (MB/s)"].append(hdfs_task / MB)
        series["DHT/job (MB/s)"].append(dht_job / MB)
        series["HDFS/job (MB/s)"].append(hdfs_job / MB)
    for name, vals in series.items():
        result.add(name, vals)
    result.note("5(a): per-map-task throughput ~ties (same disks)")
    result.note("5(b): per-job throughput: DHT >> HDFS (NameNode + container overheads)")
    return result


def format_table(result: ExperimentResult) -> str:
    from repro.experiments.common import format_rows

    return format_rows(result, unit=" MB/s")

"""The seam matrix of the in-process planes: the sequential runtime and
the thread-pool runtime must agree on every combination of their seams.

One Hypothesis case picks the input words and block size, the spill
threshold, the combiner and cross-spill combining, oCache tagging and a
replaying second run, injected map failures, the worker count and the
scheduler.  Both planes run the case on fresh runtimes and must report
the same output, the same whole :class:`JobStats`, and the same
per-worker map and reduce task counts -- or fail with the same error.

``max_examples`` comes from the active Hypothesis profile:
``--hypothesis-profile=deep`` (registered in ``conftest.py``) runs 1,500.
"""

from hypothesis import given, settings, strategies as st

from repro.common.config import ClusterConfig, DFSConfig
from repro.common.errors import SchedulingError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.parallel import ParallelEclipseMRRuntime
from repro.mapreduce.runtime import EclipseMRRuntime, FailureInjector


def word_map(block):
    for word in block.decode().split():
        yield word, 1


def sum_reduce(key, values):
    return sum(values)


def sum_combine(key, values):
    return [sum(values)]


def drop_x_combine(key, values):
    """Sums, but drops every key starting with ``x``: spills made only of
    such keys come out empty and are skipped."""
    return [] if key.startswith("x") else [sum(values)]


COMBINERS = {"none": None, "sum": sum_combine, "drop-x": drop_x_combine}

cases = st.fixed_dictionaries({
    "words": st.lists(st.sampled_from(["a", "b", "cc", "w0", "w1", "x", "xy", "long-word"])
                      | st.text("abxyz", min_size=1, max_size=6),
                      min_size=1, max_size=60),
    "block_size": st.integers(8, 96),
    "spill_buffer_bytes": st.sampled_from([1, 40, 400, 32 * 1024 * 1024]),
    "combiner": st.sampled_from(sorted(COMBINERS)),
    "cross_spill_combine": st.booleans(),
    "cache_intermediates": st.booleans(),
    "rerun_with_reuse": st.booleans(),
    # block index -> attempts that fail; 4 exhausts MAX_TASK_ATTEMPTS.
    "failures": st.dictionaries(st.integers(0, 8), st.integers(1, 4), max_size=3),
    "workers": st.integers(1, 5),
    "scheduler": st.sampled_from(["laf", "delay"]),
    "max_workers": st.integers(1, 4),
})


def run_case(plane, case):
    """Everything a plane reports for one case: per run, the output and
    whole stats (or the error), then the per-worker task counts."""
    kwargs = {"max_workers": case["max_workers"]} if plane is ParallelEclipseMRRuntime else {}
    runtime = plane(
        case["workers"],
        config=ClusterConfig(dfs=DFSConfig(block_size=case["block_size"])),
        scheduler=case["scheduler"],
        failure_injector=FailureInjector(
            {("seams", index): n for index, n in case["failures"].items()}),
        **kwargs,
    )
    runtime.upload("words.txt", " ".join(case["words"]).encode() + b" ")

    def job(reuse):
        return MapReduceJob(
            app_id="seams", input_file="words.txt", map_fn=word_map,
            reduce_fn=sum_reduce, combiner=COMBINERS[case["combiner"]],
            cache_intermediates=case["cache_intermediates"],
            reuse_intermediates=reuse,
            spill_buffer_bytes=case["spill_buffer_bytes"],
            cross_spill_combine=case["cross_spill_combine"],
        )

    reports = []
    for reuse in [False, True][:1 + case["rerun_with_reuse"]]:
        try:
            result = runtime.run(job(reuse))
        except SchedulingError as exc:
            # A failed run ends the case: the thread plane schedules and
            # reads every block before its pool maps any, so a later
            # run's cache stats differ by that read-ahead.
            reports.append(("error", str(exc)))
            break
        reports.append((result.output, result.stats))
    reports.append({wid: (w.map_tasks_run, w.reduce_tasks_run)
                    for wid, w in runtime.workers.items()})
    return reports


@settings(deadline=None)
@given(case=cases)
def test_sequential_and_thread_planes_agree(case):
    assert run_case(ParallelEclipseMRRuntime, case) == run_case(EclipseMRRuntime, case)

"""The four benchmark workloads and every constant that sizes them.

Each workload varies one of the two input properties that decide which
layer pays: pairs per distinct intermediate key (the emit/combine path)
and working set against cache and per-job fixed cost (iterative and
small jobs).  The reasons are in ``why`` and in ``perf/README.md``.

A workload owns its inputs (made by :mod:`perf.inputs` from the seed),
the job sequence run on every plane, and the bare-Python reference every
output is compared with.  The jobs themselves are the program's own
(``wordcount_job``, ``sort_job``, ``kmeans_job``).
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Any

import numpy as np

from repro.apps.kmeans import kmeans_job
from repro.apps.sort_app import sort_job, sorted_output
from repro.apps.wordcount import wordcount_job, wordcount_reduce
from repro.common.config import ClusterConfig, DFSConfig, JobsConfig
from repro.mapreduce.job import MapReduceJob

from perf import inputs

__all__ = ["WORKLOADS", "QUICK_SHRINK", "JOB_TIMEOUT_S", "cluster_workers", "make"]

KIB = 1024

QUICK_SHRINK = 8
"""``--quick`` divides every input size by this (smoke runs only)."""

JOB_TIMEOUT_S = 30.0
"""A cluster job not done after this long counts as failed."""


def cluster_workers() -> int:
    """Workers on every plane: 2 on the 2-core reference box, at most 4."""
    return min(4, max(2, os.cpu_count() or 1))


def _noop_map(block: bytes):
    """A map that reads its block and emits nothing: what is left of a
    job is its control-plane cost."""
    return ()


class Workload:
    """Inputs, job sequence and reference of one workload."""

    name: str
    why: str
    block_size: int
    window = 1
    """JobHandles kept in flight on the cluster plane (closed loop)."""
    batch = 1
    """Jobs between two calibration samples (see ``perf/planes.py``)."""
    trace_jobs = {"seq": 20, "thread": 12, "cluster": 24}
    """Measured jobs per plane in the traced pass at ``--seconds 15``."""
    sizes: dict[str, int]

    def __init__(self, seed: int, quick: bool = False) -> None:
        shrink = QUICK_SHRINK if quick else 1
        self.inputs: dict[str, bytes] = self.make_inputs(seed, shrink)
        self._expected: dict[str, Any] = {}

    # -- what the result file echoes ---------------------------------------------

    def constants(self) -> dict[str, Any]:
        return {"block_size": self.block_size, "window": self.window,
                "batch": self.batch, "trace_jobs": self.trace_jobs, **self.sizes}

    def describe_inputs(self) -> list[dict]:
        return [inputs.describe(name, data, self.block_size)
                for name, data in self.inputs.items()]

    def config(self) -> ClusterConfig:
        return ClusterConfig(dfs=DFSConfig(block_size=self.block_size),
                             jobs=JobsConfig(max_active_jobs=4))

    # -- the job sequence ------------------------------------------------------------

    def make_inputs(self, seed: int, shrink: int) -> dict[str, bytes]:
        raise NotImplementedError

    def input_of(self, i: int) -> str:
        """The input file job ``i`` reads."""
        return next(iter(self.inputs))

    def initial_state(self) -> Any:
        return None

    def job(self, i: int, state: Any, tag: str) -> MapReduceJob:
        raise NotImplementedError

    def noop_job(self, i: int) -> MapReduceJob:
        return MapReduceJob(app_id=f"{self.name}-noop-{i}", input_file=self.input_of(i),
                            map_fn=_noop_map, reduce_fn=wordcount_reduce)

    # -- the reference ----------------------------------------------------------------

    def bare(self, i: int, state: Any) -> Any:
        """Job ``i``'s answer in bare Python, from the input bytes: the
        bottom rung of the ladder."""
        raise NotImplementedError

    def expected(self, i: int, state: Any) -> Any:
        """The reference answer of job ``i`` (stateless workloads cache it)."""
        name = self.input_of(i)
        if name not in self._expected:
            self._expected[name] = self.bare(i, state)
        return self._expected[name]

    def matches(self, output: dict, expected: Any) -> bool:
        return output == expected

    def next_state(self, state: Any, expected: Any) -> Any:
        return state


class WcLowcard(Workload):
    name = "wc_lowcard"
    why = ("~500 pairs per distinct key: the job is per-pair work in SpillBuffer.emit "
           "(SHA-1, pickle sizing, ring bisect); wire, reduce and output are tiny")
    block_size = 64 * KIB
    sizes = {"num_words": 50_000, "vocab_size": 100}

    def make_inputs(self, seed, shrink):
        lines = inputs.zipf_words(seed, self.name,
                                  num_words=self.sizes["num_words"] // shrink,
                                  vocab_size=self.sizes["vocab_size"])
        return {"wc_lowcard.txt": inputs.pack_records(lines, self.block_size)}

    def job(self, i, state, tag):
        return wordcount_job(self.input_of(i), app_id=f"{self.name}-{tag}-{i}")

    def bare(self, i, state):
        return dict(Counter(self.inputs[self.input_of(i)].decode().split()))


class SortHighcard(Workload):
    name = "sort_highcard"
    why = ("~1 pair per distinct key: nothing combines, every pair is encoded, crosses the "
           "wire, is grouped by the reduce and streamed back; a memo that helps wc_lowcard "
           "is pure cost here")
    block_size = 64 * KIB
    sizes = {"num_words": 75_000, "vocab_size": 50_000, "words_per_record": 3}

    def make_inputs(self, seed, shrink):
        records = inputs.uniform_word_records(
            seed, self.name, num_words=self.sizes["num_words"] // shrink,
            vocab_size=self.sizes["vocab_size"],
            words_per_record=self.sizes["words_per_record"])
        return {"sort_highcard.txt": inputs.pack_records(records, self.block_size)}

    def job(self, i, state, tag):
        return sort_job(self.input_of(i), app_id=f"{self.name}-{tag}-{i}")

    def bare(self, i, state):
        text = self.inputs[self.input_of(i)].decode()
        return sorted(line for line in text.splitlines() if line)

    def matches(self, output, expected):
        return sorted_output(output) == expected


class KmeansIter(Workload):
    name = "kmeans_iter"
    why = ("map compute dominates and <=16 pairs leave each task, so the emit path is idle: "
           "what is left is per-task control plane, a new closure per iteration, and the "
           "iCache read path")
    block_size = 64 * KIB
    sizes = {"num_points": 24_000, "dim": 8, "num_clusters": 16}

    def __init__(self, seed, quick=False):
        super().__init__(seed, quick)
        self._points: np.ndarray | None = None  # parsed once, for the reference

    def make_inputs(self, seed, shrink):
        records, self._initial = inputs.point_records(
            seed, self.name, num_points=self.sizes["num_points"] // shrink,
            dim=self.sizes["dim"], num_clusters=self.sizes["num_clusters"])
        return {"kmeans_iter.csv": inputs.pack_records(records, self.block_size)}

    def initial_state(self):
        return self._initial

    def job(self, i, state, tag):
        return kmeans_job(self.input_of(i), state, i, app_id=f"{self.name}-{tag}")

    @staticmethod
    def _parse(data: bytes) -> np.ndarray:
        return np.array([[float(tok) for tok in line.split(",")]
                         for line in data.decode().splitlines() if line])

    @staticmethod
    def _step(points: np.ndarray, centroids: np.ndarray) -> dict[int, np.ndarray]:
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        nearest = d2.argmin(axis=1)
        return {int(c): points[nearest == c].mean(axis=0) for c in np.unique(nearest)}

    def bare(self, i, state):
        return self._step(self._parse(self.inputs[self.input_of(i)]), state)

    def expected(self, i, state):
        if self._points is None:
            self._points = self._parse(self.inputs[self.input_of(i)])
        return self._step(self._points, state)

    def matches(self, output, expected):
        return output.keys() == expected.keys() and all(
            np.allclose(np.asarray(output[c]), expected[c], rtol=0.0, atol=1e-9)
            for c in expected)

    def next_state(self, state, expected):
        # Fed forward from the reference (checked equal to the job's
        # output within 1e-9), so every plane runs the identical job
        # sequence even where float sums differ in the last digit; an
        # empty cluster keeps its previous centroid.
        new = np.array(state, dtype=float, copy=True)
        for cluster, centroid in expected.items():
            new[cluster] = centroid
        return new


class MultiTenant(Workload):
    name = "multi_tenant"
    why = ("small identical jobs, four in flight: per-job work is ~0.04 s, so JobScheduler "
           "queueing, dispatch, the end-of-job sweep and RPC round trips are most of a job")
    block_size = 64 * KIB
    window = 4
    batch = 8
    trace_jobs = {"seq": 24, "thread": 16, "cluster": 96}
    sizes = {"num_words": 16_000, "vocab_size": 1_000, "files": 2}

    def make_inputs(self, seed, shrink):
        return {
            f"tenant{t}.txt": inputs.pack_records(
                inputs.zipf_words(seed, f"{self.name}/{t}",
                                  num_words=self.sizes["num_words"] // shrink,
                                  vocab_size=self.sizes["vocab_size"]),
                self.block_size)
            for t in range(self.sizes["files"])
        }

    def input_of(self, i):
        return f"tenant{i % self.sizes['files']}.txt"

    def job(self, i, state, tag):
        return wordcount_job(self.input_of(i), app_id=f"{self.name}-{tag}-{i}")

    def bare(self, i, state):
        return dict(Counter(self.inputs[self.input_of(i)].decode().split()))


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (WcLowcard, SortHighcard, KmeansIter, MultiTenant)
}


def make(name: str, seed: int, quick: bool = False) -> Workload:
    return WORKLOADS[name](seed, quick)

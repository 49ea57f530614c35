"""Experiment harness: one module per evaluation figure.

Each module exposes a ``run(...)`` function returning a structured result
plus a ``format_table(result)`` helper that prints the same rows/series
the paper reports.  The ``benchmarks/`` tree wraps these in
pytest-benchmark targets; ``examples/framework_comparison.py`` drives the
headline comparison from the command line.

Scale note: the simulations run the paper's 40-node cluster but scale the
datasets down (e.g. 32 GB instead of 250 GB) so each figure regenerates in
seconds.  Block counts stay large enough that queueing, skew and cache
behaviour keep their shape; EXPERIMENTS.md records paper-vs-measured.
"""

from repro._lazy import lazy_exports

__all__ = [
    "common",
    "run_fig3",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.fig3_cdf": ("run as run_fig3",),
    "repro.experiments.fig5_io": ("run as run_fig5",),
    "repro.experiments.fig6_schedulers": ("run as run_fig6",),
    "repro.experiments.fig7_load_balance": ("run as run_fig7",),
    "repro.experiments.fig8_concurrent": ("run as run_fig8",),
    "repro.experiments.fig9_frameworks": ("run as run_fig9",),
    "repro.experiments.fig10_iterative": ("run as run_fig10",),
})

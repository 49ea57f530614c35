"""The paper's benchmark applications and their workload generators.

The evaluation (§III) uses HiBench-style workloads: ``word count``,
``inverted index``, ``grep`` and ``sort`` over text; ``page rank`` over a
graph; ``k-means`` and ``logistic regression`` over numeric points.  Every
application here is a real map/reduce implementation runnable on the
functional engine, plus cost descriptors consumed by the performance
model.

* :mod:`repro.apps.workloads` -- deterministic synthetic data generators
  (our stand-in for the HiBench inputs and the Wikipedia corpus).
* one module per application.
"""

from repro._lazy import lazy_exports

__all__ = [
    "pack_records",
    "text_corpus",
    "documents",
    "graph_edges",
    "points",
    "labeled_points",
    "bimodal_keys",
    "wordcount_job",
    "grep_job",
    "inverted_index_job",
    "sort_job",
    "pagerank_job",
    "pagerank_driver",
    "kmeans_job",
    "kmeans_driver",
    "logreg_job",
    "logreg_driver",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.apps.workloads": (
        "pack_records",
        "text_corpus",
        "documents",
        "graph_edges",
        "points",
        "labeled_points",
        "bimodal_keys",
    ),
    "repro.apps.wordcount": ("wordcount_job",),
    "repro.apps.grep": ("grep_job",),
    "repro.apps.invertedindex": ("inverted_index_job",),
    "repro.apps.sort_app": ("sort_job",),
    "repro.apps.pagerank": ("pagerank_driver", "pagerank_job"),
    "repro.apps.kmeans": ("kmeans_driver", "kmeans_job"),
    "repro.apps.logreg": ("logreg_driver", "logreg_job"),
})

"""Live observability plane: Prometheus endpoint + HTML dashboard.

Enabled via ``ClusterConfig(observe=ObserveConfig(enabled=True, port=...))``
or ``eclipsemr-repro cluster --observe PORT``; off by default, in which
case nothing in this package is even imported by the runtime.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ObserveServer",
    "escape_label_value",
    "render_exposition",
    "sanitize_metric_name",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.observe.prometheus": (
        "escape_label_value",
        "render_exposition",
        "sanitize_metric_name",
    ),
    "repro.observe.server": ("ObserveServer",),
})

"""Shared primitives for the EclipseMR reproduction.

This package holds the code every other subsystem builds on:

* :mod:`repro.common.hashing` -- the circular hash key space, key ranges
  with wrap-around, and deterministic SHA-1 derived keys for files, blocks
  and cached objects.
* :mod:`repro.common.units` -- byte and time unit helpers so sizes read the
  way the paper writes them (``128 * MB``, ``1 * GB``).
* :mod:`repro.common.config` -- dataclass configuration for clusters,
  caches and schedulers, with the paper's defaults.
* :mod:`repro.common.errors` -- the exception hierarchy.
* :mod:`repro.common.rng` -- seeded random streams so every experiment is
  reproducible.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ReproError",
    "ConfigError",
    "RingError",
    "FileSystemError",
    "FileNotFound",
    "BlockNotFound",
    "PermissionDenied",
    "CacheMiss",
    "SchedulingError",
    "SimulationError",
    "HashSpace",
    "KeyRange",
    "DEFAULT_SPACE",
    "KB",
    "MB",
    "GB",
    "TB",
    "fmt_bytes",
    "fmt_seconds",
    "CacheConfig",
    "ClusterConfig",
    "DFSConfig",
    "SchedulerConfig",
    "SeedSequenceFactory",
    "derive_rng",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.common.errors": (
        "ReproError",
        "ConfigError",
        "RingError",
        "FileSystemError",
        "FileNotFound",
        "BlockNotFound",
        "PermissionDenied",
        "CacheMiss",
        "SchedulingError",
        "SimulationError",
    ),
    "repro.common.hashing": ("HashSpace", "KeyRange", "DEFAULT_SPACE"),
    "repro.common.units": ("KB", "MB", "GB", "TB", "fmt_bytes", "fmt_seconds"),
    "repro.common.config": (
        "CacheConfig",
        "ClusterConfig",
        "DFSConfig",
        "SchedulerConfig",
    ),
    "repro.common.rng": ("SeedSequenceFactory", "derive_rng"),
})

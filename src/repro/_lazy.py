"""Lazy public names for package ``__init__``s (PEP 562).

Every ``repro`` package re-exports its public names from its
sub-modules.  Bound eagerly, ``import repro.cluster.worker`` loaded the
whole tree -- the DES kernel, every scheduler, NumPy -- in each spawned
worker process, although a worker runs a fraction of it.  A package
``__init__`` instead declares *where* each name lives::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.dfs.blocks": ("Block", "BlockId"),
        "repro.dfs.fsck": ("FsckReport", "check as fsck"),
    })

and the defining module is imported on the first read of one of its
names.  ``from pkg import Name``, ``from pkg import *`` (driven by the
package's ``__all__``), ``dir(pkg)`` and ``pkg.submodule`` behave as they
did with eager imports; a process pays only for what it touches.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Build a package's module-level ``__getattr__`` and ``__dir__``.

    ``exports`` maps a module's absolute name to the names the package
    re-exports from it, written as in an import statement (``"Name"`` or
    ``"name as alias"``).
    """
    # exported name -> (module, [(exported name, attribute in module), ...])
    table: dict[str, tuple[str, list[tuple[str, str]]]] = {}
    for module_name, names in exports.items():
        bindings = []
        for spec in names:
            attr, _, alias = spec.partition(" as ")
            bindings.append((alias or attr, attr))
        for exported, _ in bindings:
            table[exported] = (module_name, bindings)

    def __getattr__(name: str) -> Any:
        entry = table.get(name)
        if entry is None:
            # A sub-module read as an attribute (``repro.mapreduce.runtime``
            # after ``import repro.mapreduce``): the eager imports bound
            # these on the package as a side effect.
            if not name.startswith("_"):
                submodule = f"{package}.{name}"
                try:
                    return import_module(submodule)
                except ModuleNotFoundError as exc:
                    if exc.name != submodule:
                        raise
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module_name, bindings = entry
        module = import_module(module_name)
        # Bind every name this module provides in one go, as its import
        # statement did.  Importing ``pkg.fsck`` makes the import system
        # set ``pkg.fsck`` to the sub-module; an export of the same name
        # (``check as fsck``) must win, as it did when bound eagerly.
        namespace = sys.modules[package].__dict__
        for exported, attr in bindings:
            namespace[exported] = getattr(module, attr)
        return namespace[name]

    def __dir__() -> list[str]:
        namespace = sys.modules[package].__dict__
        # ``__all__`` may also name sub-modules (``repro.experiments.common``).
        return sorted({*namespace, *table, *namespace.get("__all__", ())})

    return __getattr__, __dir__

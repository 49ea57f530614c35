"""What a process pays to import ``repro`` -- checked in fresh interpreters.

Every spawned cluster worker runs ``import repro.cluster.worker`` before
it can register, so whatever that import drags in is paid once per
worker per cluster start.  Package ``__init__``s therefore export their
public names lazily (:mod:`repro._lazy`); these tests pin both halves of
that contract: the worker's import stays small and NumPy-free, and every
package still looks, to its importers, as if it had imported everything.

Each check runs in its own subprocess -- ``sys.modules`` of the test
process says nothing about a cold start.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

PACKAGES = [
    "repro",
    "repro.apps",
    "repro.baselines",
    "repro.cache",
    "repro.chaos",
    "repro.cluster",
    "repro.common",
    "repro.dfs",
    "repro.dht",
    "repro.experiments",
    "repro.jobs",
    "repro.mapreduce",
    "repro.net",
    "repro.observe",
    "repro.perfmodel",
    "repro.scheduler",
    "repro.sim",
]

#: Nothing under these may be loaded by a worker that has not run a job.
OFF_THE_WORKER_PATH = (
    "numpy",
    "repro.jobs",
    "repro.sim.engine",
    "repro.perfmodel",
    "repro.experiments",
    "repro.apps",
)


def run_fresh(code: str):
    """Run ``code`` in a new interpreter; returns what it printed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def under(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def test_every_package_is_covered():
    found = sorted(
        ".".join(init.parent.relative_to(SRC).parts)
        for init in Path(SRC, "repro").rglob("__init__.py")
    )
    assert found == PACKAGES


def test_worker_import_is_small_and_numpy_free():
    loaded = run_fresh(
        "import json, sys\n"
        "sys.modules['numpy'] = None  # any 'import numpy' now raises\n"
        "import repro\n"
        "import repro.cluster.worker\n"
        "print(json.dumps(sorted(m for m, v in sys.modules.items() if v)))\n"
    )
    strays = [m for m in loaded
              if any(under(m, prefix) for prefix in OFF_THE_WORKER_PATH)]
    assert strays == []
    assert len([m for m in loaded if m.startswith("repro")]) <= 30


@pytest.mark.parametrize("package", PACKAGES)
def test_lazy_package_still_exports_everything(package):
    report = run_fresh(
        "import importlib, json\n"
        f"pkg = importlib.import_module({package!r})\n"
        "names = list(pkg.__all__)\n"
        # dir() first: it must list names nothing has resolved yet.
        "not_in_dir = sorted(set(names) - set(dir(pkg)))\n"
        "unresolved = [n for n in names if not hasattr(pkg, n)]\n"
        "star = {}\n"
        f"exec('from {package} import *', star)\n"
        "not_starred = [n for n in names if n not in star]\n"
        "try:\n"
        "    pkg.no_such_name\n"
        "    error = None\n"
        "except AttributeError as exc:\n"
        "    error = str(exc)\n"
        "print(json.dumps([not_in_dir, unresolved, not_starred, error]))\n"
    )
    not_in_dir, unresolved, not_starred, error = report
    assert not_in_dir == []
    assert unresolved == []
    assert not_starred == []
    assert error is not None and package in error and "no_such_name" in error


def test_lazy_names_are_the_defining_modules_objects():
    report = run_fresh(
        "import json\n"
        "import repro, repro.mapreduce, repro.dfs\n"
        "from repro import EclipseMR\n"
        # A sub-module nobody imported reads as a package attribute, as it
        # did when the eager __init__ had imported it.
        "runtime = repro.mapreduce.runtime\n"
        "same = EclipseMR is repro.mapreduce.api.EclipseMR\n"
        # ``check as fsck`` shadows the ``repro.dfs.fsck`` sub-module even
        # though resolving FsckReport imports that sub-module first.
        "repro.dfs.FsckReport\n"
        "fsck = repro.dfs.fsck\n"
        "print(json.dumps([runtime.__name__, same, callable(fsck), fsck.__name__,\n"
        "                  repro.__version__]))\n"
    )
    assert report == ["repro.mapreduce.runtime", True, True, "check", "1.0.0"]

"""Import budget: each entry point loads only the modules it runs.

Every check runs in a fresh interpreter, because this test process has
already imported most of the package.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Packages imported for their side effects: registering the protocol
#: family, and the workload table behind the CLI's argparse choices.
EAGER_PACKAGES = {"repro.protocols", "repro.workloads"}
PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def _fresh(script):
    """Run ``script`` in a new interpreter and return the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded_after(imports):
    return set(_fresh(
        f"import json, sys\nimport {imports}\nprint(json.dumps(sorted(sys.modules)))"
    ))


def test_cli_and_daemon_do_not_import_the_simulator():
    loaded = _loaded_after("repro.cli, repro.serve.server")
    assert "repro.experiments.store" in loaded
    assert not loaded & {
        "repro.machine.system",
        "repro.coherence.cache_ctrl",
        "repro.coherence.directory",
        "repro.experiments.figure5",
        "repro.experiments.ablations",
        "repro.experiments.bench",
        "repro.experiments.chaos",
        "repro.obs.tracer",
    }


def test_runner_and_store_skip_observability_and_the_pool():
    loaded = _loaded_after("repro.experiments.runner, repro.experiments.store")
    assert "repro.machine.system" in loaded
    assert not loaded & {
        "repro.obs.tracer",
        "repro.obs.timeseries",
        "repro.obs.export",
        "repro.faults.diagnostics",
        "repro.stats.block_profile",
        "multiprocessing",
        "concurrent.futures",
    }


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_resolve_on_first_access(package):
    doc = _fresh(f"""
import json, sys
import {package} as pkg
loaded = sorted(
    name for name in sys.modules
    if name.startswith("{package}.") and name != "repro._lazy"
)
missing = [name for name in pkg.__all__ if name not in dir(pkg)]
exec("from {package} import *", {{}})
for name in pkg.__all__:
    getattr(pkg, name)
print(json.dumps({{"loaded": loaded, "missing": missing, "all": pkg.__all__}}))
""")
    assert doc["all"] and doc["missing"] == []
    if package not in EAGER_PACKAGES:
        assert doc["loaded"] == [], "package import loaded submodules eagerly"

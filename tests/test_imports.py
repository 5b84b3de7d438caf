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
        "repro.experiments.chaos",
        "repro.obs.tracer",
        "asyncio",
        "ssl",
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


def test_parallel_import_skips_the_pool_modules():
    loaded = _loaded_after("repro.experiments.parallel")
    assert not loaded & {
        "asyncio", "concurrent.futures", "multiprocessing", "uuid", "platform",
    }


def test_pooled_run_many_never_loads_asyncio():
    """The sweep loop is synchronous: a pooled ``run_many`` leaves out
    asyncio and the ``ssl`` it imports, which would add 5.1 MB of RSS to
    this sweep process (2-CPU x86-64 host, Python 3.11.7)."""
    loaded = set(_fresh("""
import json, sys
from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import RunSpec, run_many

specs = [
    RunSpec.make("migratory-counters", ProtocolPolicy.adaptive_default(),
                 preset="tiny", iterations=4, seed=seed)
    for seed in (1, 2)
]
assert all(outcome.ok for outcome in run_many(specs, workers=2))
print(json.dumps(sorted(sys.modules)))
"""))
    assert "concurrent.futures.process" in loaded  # the pool really ran
    assert not loaded & {"asyncio", "ssl"}


def test_warm_daemon_loads_no_asyncio_ssl_or_pool(tmp_path):
    """A daemon that serves every cell from its store never builds a pool,
    so it never loads the pool modules; and it never loads asyncio or
    ``ssl`` at all.  The script speaks raw HTTP over ``socket``, because
    ``ServeClient`` imports ``urllib.request`` and with it ``ssl``."""
    doc = _fresh(f"""
import json, socket, sys, threading, time
from repro.core.policy import ProtocolPolicy
from repro.experiments.parallel import RunSpec, execute_spec
from repro.experiments.store import ResultStore, spec_key, spec_to_json
from repro.serve.server import ExperimentServer

spec = RunSpec.make("migratory-counters", ProtocolPolicy.adaptive_default(),
                    preset="tiny", iterations=4)
store = ResultStore({str(tmp_path / "cache")!r})
store.put(execute_spec(spec))
server = ExperimentServer(ResultStore(store.root), workers=2, port=0)
server.start()
thread = threading.Thread(target=server.serve_forever)
thread.start()

def request(method, path, body=b""):
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(b"%s %s HTTP/1.1\\r\\nContent-Length: %d\\r\\n\\r\\n%s"
                     % (method, path, len(body), body))
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    head, _, payload = reply.partition(b"\\r\\n\\r\\n")
    assert head.startswith(b"HTTP/1.1 200 "), head
    return json.loads(payload)

job = request(b"POST", b"/jobs",
              json.dumps({{"specs": [spec_to_json(spec)]}}).encode())
deadline = time.monotonic() + 30
while not job["complete"]:
    assert time.monotonic() < deadline, job
    time.sleep(0.01)
    job = request(b"GET", b"/jobs/" + job["job"].encode())
entry = request(b"GET", b"/results/" + spec_key(spec).encode())
server.close()
thread.join(10)
print(json.dumps({{
    "status": job["cells"][0]["status"],
    "fingerprint": entry["fingerprint"] == store.load_entry(spec_key(spec))["fingerprint"],
    "stopped": not thread.is_alive(),
    "modules": sorted(sys.modules),
}}))
""")
    assert doc["status"] == "cached" and doc["fingerprint"] and doc["stopped"]
    assert not set(doc["modules"]) & {
        "asyncio", "ssl", "concurrent.futures", "multiprocessing",
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

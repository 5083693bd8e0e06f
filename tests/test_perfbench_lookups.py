"""The benchmark harness finds jdan's functions by module and name.

`perfbench/tracing.py` wraps each name in LAYERS and PROPOSALS, looking
every module up in `sys.modules`, and the harness reads a few more names
besides. Moving or trimming any of them breaks the benchmark, so the
lookups are repeated here, in a fresh interpreter that has imported only
`jdan` and its CLI as the harness does, to fail in the ordinary test run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LOOKUPS = """
import json, sys
import jdan
import jdan.cli
import tracing


def resolve(name):
    module, attr = name.split(".")
    return getattr(sys.modules.get("jdan." + module), attr, None)


names = [*tracing.LAYERS, tracing.PROPOSALS, "parallel.worker_count"]
# read back by name in perfbench/tests/test_perfbench_tracing.py
names += [m + ".normalized_cdf" for m in ("marginal", "copula", "metrics", "cli")]
missing = [n for n in names if not callable(resolve(n))]
shared = {m: resolve(m + ".normalized_cdf") is jdan.marginal.normalized_cdf
          for m in ("copula", "metrics", "cli")}
tracer = tracing.Tracer()
tracer.install()
tracer.uninstall()
print(json.dumps({"missing": missing, "shared": shared}))
"""


def test_every_name_perfbench_looks_up_resolves():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    done = subprocess.run([sys.executable, "-c", LOOKUPS], capture_output=True, text=True,
                          env=env, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    assert found["missing"] == []
    assert found["shared"] == {"copula": True, "metrics": True, "cli": True}

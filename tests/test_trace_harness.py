"""The benchmark's trace harness still installs on the current package.

`benchmark/trace.py` wraps named functions of `bspdelab`; a rename or a
deletion of one of them would first show as a crash of `--trace 1`.  This
runs `trace.install` in a fresh interpreter, so such a change fails here.
The test only reads `benchmark/`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import bspdelab

ROOT = Path(__file__).resolve().parents[1]

CODE = """
import json
import trace

patched = []
patch = trace.patch

def recording(modules, owner, attr, make):
    orig = patch(modules, owner, attr, make)
    wrapped = getattr(owner, attr).__wrapped__ is orig
    patched.append((getattr(owner, "__name__", repr(owner)), attr, wrapped))
    return orig

trace.patch = recording
trace.install(trace.Tracer("t"))

# what the paused probes call on a solution
from bspdelab import holder, kernel
probed = [hasattr(holder.FieldSample, "attach_derivative"), hasattr(holder, "estimate_norm"),
          hasattr(kernel.HeatKernel, "with_beta")]
print(json.dumps({"patched": patched, "probed": probed}))
"""


def test_trace_install_finds_every_patched_name():
    src = str(Path(bspdelab.__file__).parents[1])
    path = [src, str(ROOT / "benchmark"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", CODE], check=True, env=env,
                         capture_output=True, text=True, cwd=ROOT).stdout
    report = json.loads(out)
    patched = {(owner, attr) for owner, attr, _ in report["patched"]}
    assert ("bspdelab.stochastic", "solve_bsde_closed") in patched
    assert ("bspdelab.solver", "solve_model") in patched
    assert all(wrapped for _, _, wrapped in report["patched"])
    assert all(report["probed"])

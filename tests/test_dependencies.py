"""No library module imports scipy; it is a test dependency only.

The suite itself imports scipy (random rotations in conftest.py), so the
check imports every phmbd module in a fresh interpreter. The benchmark's
tracer (perfbench/tracer.py) wraps library functions by name, so every
name it wraps must still be there.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import phmbd
import phmbd.assembly
import phmbd.integrate
import phmbd.joints

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

IMPORT_ALL = """
import importlib, json, pkgutil, sys
import phmbd
names = [m.name for m in pkgutil.iter_modules(phmbd.__path__)]
for name in names:
    importlib.import_module("phmbd." + name)
print(json.dumps({"modules": names,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_no_library_module_imports_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(phmbd.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env, check=True,
                         capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert {"assembly", "cli", "diagnostics", "integrate"} <= set(result["modules"])
    assert result["scipy"] == []


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(owner.__name__, name) for owner, name, _, _ in tracer.targets(phmbd, np)
               if not callable(getattr(owner, name, None))]
    assert missing == []

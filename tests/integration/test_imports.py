"""Importing the package loads no scipy module.

scipy's optimizer stack is needed only to build and solve a placement LP
or MILP, so ``repro.placement.lp`` and ``repro.placement.milp`` import it
inside the functions that use it.  The check runs in a fresh interpreter:
this test process has long since loaded scipy through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import importlib, json, pkgutil, sys
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(json.dumps({"modules": len(names),
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")}))
"""


def test_no_repro_module_loads_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["modules"] > 100
    assert report["scipy"] == []

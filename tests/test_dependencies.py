"""The package imports only what ``pyproject.toml`` declares.

aqtrain declares ``numpy`` as its one dependency.  A fresh interpreter
imports the package and every entry module; each top-level module that this
loads beyond a bare interpreter's own must be numpy, aqtrain or part of the
standard library.  The bare interpreter is the baseline because ``site``
may load third-party modules (``.pth`` hooks) before any aqtrain code runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DECLARED = {"numpy", "aqtrain"}


def top_level_modules(imports: str) -> set:
    code = (
        f"import json, sys\n{imports}\n"
        "print(json.dumps(sorted({name.partition('.')[0] for name in sys.modules})))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


def test_imports_load_only_numpy_and_the_standard_library():
    baseline = top_level_modules("")
    loaded = top_level_modules("import aqtrain, aqtrain.cli, aqtrain.experiments")
    new = loaded - baseline
    assert {"numpy", "aqtrain"} <= new
    undeclared = sorted(new - DECLARED - set(sys.stdlib_module_names))
    assert not undeclared, f"undeclared third-party imports: {undeclared}"

"""The package imports only what ``pyproject.toml`` declares.

aqtrain declares ``numpy`` as its one dependency.  A fresh interpreter
imports the package and every entry module; each top-level module that this
loads beyond a bare interpreter's own must be numpy, aqtrain or part of the
standard library.  The bare interpreter is the baseline because ``site``
may load third-party modules (``.pth`` hooks) before any aqtrain code runs.
numpy's Cython-compiled extensions (``numpy.random``) register the Cython
runtime as ``cython_runtime`` and ``_cython_<version>``; those are numpy's.

Imports made lazily inside a run escape that check, so a second fresh
interpreter runs small configs of the network, classical and matrix-method
kinds and is held to the same rule; the matrix kinds bring in ``numpy.fft``
through their position read-outs.  It must also leave ``numpy.ma``
unloaded: numpy imports it lazily (``np.unique`` reaches
``np.ma.is_masked``), at a cost of tens of milliseconds that every run
would pay.  A shipped nn-binary run is held tighter still: it may load no
numpy submodule that importing aqtrain does not, apart from ``numpy.random``,
which its seeded split draws from.  A lazy import such as
``numpy.polynomial`` (about 4 ms) would otherwise land inside its timed run.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
DECLARED = {"numpy", "aqtrain"}
CYTHON_RUNTIME = re.compile(r"cython_runtime|_cython_[0-9_]+")

#: one small config per kind that reads out a weight space, a pool or a
#: position density (the anneal with its snapshot densities)
RUN_CONFIGS = [
    {"kind": "tunnel", "num_qubits": 4, "t_total": 0.5, "dt": 0.05, "grid_points": 128},
    {"kind": "mass-scan", "masses": [25.0, 100.0], "num_qubits": 5, "grid_points": 256},
    {
        "kind": "anneal-matrix",
        "num_qubits": 4,
        "t_final": 5.0,
        "n_steps": 20,
        "snapshot_stride": 5,
        "grid_points": 129,
    },
    {"kind": "nn-binary", "t_final": 3.0, "n_steps": 3},
    {"kind": "nn-toy", "n_points": 50, "t_final": 3.0, "n_steps": 3, "grid_probe_side": 5},
    {"kind": "enumerate"},
    {"kind": "classical-pool", "n_runs": 4, "n_steps": 5},
    {
        "kind": "accuracy-curves",
        "pool": 4,
        "repetitions": 3,
        "n_values": [1, 2],
        "t_final": 3.0,
        "n_steps": 3,
        "train_steps": 5,
    },
]


def loaded_modules(code: str) -> set:
    """Names in ``sys.modules`` after a fresh interpreter runs ``code``."""
    script = f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def top_level(names: set) -> set:
    return {name.partition(".")[0] for name in names}


def undeclared(loaded: set, baseline: set) -> list:
    new = top_level(loaded) - top_level(baseline) - DECLARED - set(sys.stdlib_module_names)
    return sorted(name for name in new if not CYTHON_RUNTIME.fullmatch(name))


def test_imports_load_only_numpy_and_the_standard_library():
    baseline = loaded_modules("")
    loaded = loaded_modules("import aqtrain, aqtrain.cli, aqtrain.experiments")
    assert {"numpy", "aqtrain"} <= top_level(loaded) - top_level(baseline)
    extra = undeclared(loaded, baseline)
    assert not extra, f"undeclared third-party imports: {extra}"


def test_runs_load_only_numpy_and_the_standard_library(tmp_path):
    code = (
        "from aqtrain.experiments import run_experiment\n"
        f"for i, config in enumerate({RUN_CONFIGS!r}):\n"
        f"    run_experiment(config, {str(tmp_path)!r} + f'/{{i}}')"
    )
    baseline = loaded_modules("")
    loaded = loaded_modules(code)
    assert len(list(tmp_path.iterdir())) == len(RUN_CONFIGS)
    extra = undeclared(loaded, baseline)
    assert not extra, f"undeclared third-party imports: {extra}"
    assert "numpy.ma" not in loaded
    assert "numpy.fft" in loaded  # the read-outs' lazy import was checked too


def test_network_run_loads_no_numpy_submodule_beyond_the_import(tmp_path):
    config = json.loads((CONFIG_DIR / "nn_binary.json").read_text())
    imported = loaded_modules("import aqtrain, aqtrain.cli, aqtrain.experiments, numpy.random")
    ran = loaded_modules(
        "from aqtrain.experiments import run_experiment\n"
        f"run_experiment({config!r}, {str(tmp_path)!r})"
    )
    assert (tmp_path / "classes.json").exists()
    extra = sorted(name for name in ran - imported if name.startswith("numpy"))
    assert not extra, f"numpy submodules loaded inside the run: {extra}"

"""Reachability guard: every src function that no run calls is named, with why.

The test drives ``aqtrain.cli.main`` through every command under a profile
hook: ``list-experiments``, ``validate`` and ``run`` of each shipped config,
the ``--seed`` and ``--band-prob`` overrides, an unreadable config path, and
small configs for the ``CHOICES`` values and potentials the shipped set
misses.  Every ``def`` in ``src/aqtrain`` that none of them calls must be in
:data:`UNREACHED` with one reason from :data:`REASONS`, and every entry
there must name a function that exists and is not called.  So a new
function that no run reaches fails until it is deleted or listed, and a
listed one that a run starts to call fails until its entry goes.
"""

import ast
import json
import os
import sys
from pathlib import Path

import aqtrain
from aqtrain import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(aqtrain.__file__).resolve().parent

#: why a function may stay although no run calls it
REASONS = {
    # a test checks a fast path against it (ROADMAP standing constraints)
    "oracle",
    # runs only when a run or a forked worker fails
    "error path",
    # runs only in a forked pool worker, where the hook does not follow
    "child process",
    # perfbench imports or wraps it by name
    "perfbench",
}

#: "module:Qualname" of every function no run reaches -> its reason
UNREACHED = {
    # the classical oracles: the flat-layout loss and its gradient
    "classical:_batch": "oracle",
    "classical:gradient": "oracle",
    "classical:relaxed_loss": "oracle",
    "classical:_Worker._serve": "child process",
    "classical:_Worker.kill": "error path",
    # the symbolic compiler and the encoding operators it substitutes
    "datasets:Dataset.__len__": "oracle",
    "encodings:EncodingTable.__contains__": "oracle",
    "encodings:EncodingTable.__getitem__": "oracle",
    "encodings:encode_variable": "oracle",
    "nn:build_loss": "oracle",
    "nn:compile_hamiltonian": "oracle",
    "nn:symbolic_forward": "oracle",
    "varpoly:VarPolynomial.__rmul__": "oracle",
    "varpoly:VarPolynomial.__rsub__": "oracle",
    # build_loss's mse residual ``output - float(label)``
    "varpoly:VarPolynomial.__neg__": "oracle",
    "varpoly:VarPolynomial.__sub__": "oracle",
    "varpoly:VarPolynomial.allclose": "oracle",
    "varpoly:VarPolynomial.coefficient": "oracle",
    "varpoly:VarPolynomial.substitute_encodings": "oracle",
    # the inverse of parse_polynomial, which its round-trip test checks
    "varpoly:VarPolynomial.__str__": "oracle",
    # the numeric forward pass of the per-sample symbolic_forward tests
    "nn:predict": "oracle",
    # the Z-string algebra behind the compiler, and the dense and Walsh oracles
    "pauli:PauliPolynomial.__init__": "oracle",
    "pauli:PauliPolynomial.__add__": "oracle",
    "pauli:PauliPolynomial.__mul__": "oracle",
    "pauli:PauliPolynomial.__neg__": "oracle",
    "pauli:PauliPolynomial.__rmul__": "oracle",
    "pauli:PauliPolynomial.__rsub__": "oracle",
    "pauli:PauliPolynomial.__sub__": "oracle",
    "pauli:PauliPolynomial._prune": "oracle",
    "pauli:PauliPolynomial._require_same_register": "oracle",
    "pauli:PauliPolynomial.allclose": "oracle",
    "pauli:PauliPolynomial.coefficient": "oracle",
    "pauli:PauliPolynomial.from_diagonal": "oracle",
    "pauli:PauliPolynomial.identity": "oracle",
    "pauli:PauliPolynomial.num_terms": "oracle",
    "pauli:PauliPolynomial.zero": "oracle",
    "pauli:binary_projector": "oracle",
    "pauli:pauli_z": "oracle",
    # perfbench/tracer.py wraps these two by name; tests use them as oracles
    "pauli:PauliPolynomial.diagonal": "perfbench",
    "pauli:PauliPolynomial.to_matrix": "perfbench",
    # perfbench/checks.py reads report bitstrings back with it
    "encodings:index_of_report_bitstring": "perfbench",
    # the quadrature oracle of the closed-form Fourier coefficients
    "matrix_method:adaptive_simpson": "oracle",
    "matrix_method:adaptive_simpson.recurse": "oracle",
    "matrix_method:adaptive_simpson.simpson": "oracle",
    "matrix_method:CosinePotential.value": "oracle",
    "matrix_method:PolynomialPotential.value": "oracle",
    "matrix_method:TiltedCosinePotential.value": "oracle",
}

#: configs for the CHOICES values and potentials that no shipped config uses,
#: each as small as its kind allows
CHOICE_CONFIGS = {
    "tunnel_quartic": {
        "kind": "tunnel", "potential": "quartic", "num_qubits": 3,
        "t_total": 0.1, "dt": 0.01, "grid_points": 33,
    },
    "anneal_matrix_quartic_snapshots": {
        "kind": "anneal-matrix", "potential": "quartic", "num_qubits": 3,
        "t_final": 1.0, "n_steps": 4, "snapshot_stride": 2, "grid_points": 33,
    },
    "anneal_paulispin_polynomial": {
        "kind": "anneal-paulispin", "potential": "w^2 - 0.5*w", "num_qubits": 3,
        "t_final": 1.0, "n_steps": 4,
    },
    "spectrum_polynomial": {
        "kind": "spectrum", "potential": "w^2 - 0.5*w", "num_qubits": 3,
        "s_points": 3, "k_lowest": 2,
    },
    "nn_toy_band_max": {
        "kind": "nn-toy", "dataset": "band", "band_rule": "max", "n_points": 20,
        "t_final": 1.0, "n_steps": 2, "grid_probe_side": 3,
    },
    "enumerate_toy": {"kind": "enumerate", "model": "toy", "n_points": 20},
}


def _defined_functions() -> dict:
    """``(path, first line) -> "module:Qualname"`` of every def in the package,
    nested ones included.  The first line is the code object's: a decorated
    function's code starts at its first decorator."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = f"{module}:{qualname}"
                    visit(child, qualname + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _drive_cli(tmp_path, capsys):
    """Every CLI path a user can take, each config run once."""
    shipped = sorted((ROOT / "configs").glob("*.json"))
    choices = []
    for name, config in CHOICE_CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        choices.append(path)
    statuses = [cli.main(["list-experiments"])]
    for path in shipped + choices:
        statuses.append(cli.main(["validate", str(path)]))
        statuses.append(cli.main(["run", str(path), "--out", str(tmp_path / "runs" / path.stem)]))
    toy = str(ROOT / "configs" / "nn_toy_circle.json")
    statuses.append(cli.main(["validate", toy, "--seed", "3", "--band-prob", "max"]))
    statuses.append(cli.main(["validate", str(ROOT / "configs" / "mass_scan.json"), "--seed", "3"]))
    statuses.append(cli.main(["validate", str(tmp_path / "missing.json")]))
    capsys.readouterr()
    return statuses


def test_every_unreached_function_is_named(tmp_path, capsys, monkeypatch):
    # the classical pool forks its workers on any host, even a one-core one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        statuses = _drive_cli(tmp_path, capsys)
    finally:
        sys.setprofile(previous)
    # every run and validate succeeds, and only the unreadable path fails
    assert statuses == [0] * (len(statuses) - 1) + [2]

    defined = _defined_functions()
    reached = {
        defined[key]
        for key in {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in called}
        if key in defined
    }
    unreached = set(defined.values()) - reached
    unknown = {name: reason for name, reason in UNREACHED.items() if reason not in REASONS}
    assert not unknown, f"every entry needs one reason from REASONS: {unknown}"
    unlisted = sorted(unreached - set(UNREACHED))
    assert not unlisted, f"no run calls these; delete them or list them in UNREACHED: {unlisted}"
    stale = sorted(set(UNREACHED) - unreached)
    assert not stale, f"UNREACHED lists functions a run calls or that no longer exist: {stale}"

"""Config-driven experiment runners with deterministic file output.

Each experiment kind pairs a parameter schema (missing entries filled from
documented defaults) with a runner that writes figure-ready CSV/JSON files
plus a machine-readable ``summary.json``.  Data files are byte-identical
across reruns of the same effective config: headers carry the config hash,
never timestamps.  The summary's ``wall_time_s`` field is the one value
exempt from byte identity.
"""

import json
import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import matrix_method
from .classical import RelaxedModel, train_pool
from .datasets import (
    balanced_pixel_split,
    band_dataset,
    circle_dataset,
    pixel_images,
    write_dataset_csv,
)
from .encodings import EncodingTable, index_of_report_bitstring, report_bitstring
from .engine import (
    DENSE_EVOLUTION_CAP,
    AnnealSpec,
    LinearSchedule,
    evolve_adiabatic,
    evolve_real_time,
    instantaneous_spectrum,
    transverse_driver,
)
from .matrix_method import (
    CosinePotential,
    MomentumTruncation,
    QuarticPotential,
    SchrodingerProblem,
    TiltedCosinePotential,
    gaussian_packet,
    ground_state,
    mass_scaling_exponent,
    momentum_to_position,
)
from .nn import (
    accuracy_vs_runs,
    binary_pixel_model,
    build_loss,
    compile_hamiltonian,
    enumerate_weightspace,
    grid_probe,
    group_degenerate,
    model_encoding_table,
    sample_pool,
    term_stats,
    toy_two_layer_model,
)
from .state import StateVector
from .varpoly import VarPolynomial, parse_polynomial

# -- schemas -------------------------------------------------------------------------

EXPERIMENT_KINDS = (
    "tunnel",
    "anneal-matrix",
    "anneal-paulispin",
    "nn-toy",
    "nn-binary",
    "spectrum",
    "mass-scan",
    "classical-pool",
    "accuracy-curves",
    "enumerate",
)

DESCRIPTIONS = {
    "tunnel": "real-time evolution of a packet started in one well of a 1D potential",
    "anneal-matrix": "kinetic-to-full anneal of a 1D Schrodinger problem, final position density",
    "anneal-paulispin": "transverse-field anneal of a fractionally encoded objective, bin histogram",
    "nn-toy": "anneal of the two-layer +-1-weight model on a 2D dataset, degeneracy classes",
    "nn-binary": "anneal of the 10-weight binary pixel model, classes and perfect fraction",
    "spectrum": "instantaneous eigenvalues of the anneal Hamiltonian along the schedule",
    "mass-scan": "ground-state peak density of the cosine well as a function of mass",
    "classical-pool": "pool of relaxed-sigmoid Adam training runs, binarized weights",
    "accuracy-curves": "best-of-n accuracy curves for the quantum and classical pools",
    "enumerate": "exhaustive loss/accuracy table over every weight configuration",
}

#: parameter defaults per kind; a config may override any subset and
#: nothing else (unknown keys are rejected)
SCHEMAS = {
    "tunnel": {
        "potential": "cosine",
        "scale": 4.0,
        "mass": 10.0,
        "num_qubits": 5,
        "packet_center": 0.25,
        "packet_width": 40.0,
        "t_total": 12.0,
        "dt": 0.01,
        "snapshot_stride": 10,
        "grid_points": 512,
    },
    "anneal-matrix": {
        "potential": "cosine",
        "tilt": 0.02,
        "scale": 8.0,
        "mass": 100.0,
        "num_qubits": 5,
        "schedule": "linear",
        "t_final": 50.0,
        "n_steps": 500,
        "snapshot_stride": 0,
        "grid_points": 1025,
    },
    "anneal-paulispin": {
        "potential": "quartic",
        "scale": 50.0,
        "num_qubits": 7,
        "schedule": "linear",
        "t_final": 50.0,
        "n_steps": 1000,
    },
    "nn-toy": {
        "dataset": "circle",
        "n_points": 1000,
        "seed": 0,
        "band_rule": "min",
        "loss": "mse",
        "schedule": "linear",
        "t_final": 10.0,
        "n_steps": 10,
        "grid_probe_side": 21,
        "max_classes": 0,
    },
    "nn-binary": {
        "split_seed": 0,
        "loss": "linear-binary",
        "schedule": "linear",
        "t_final": 15.0,
        "n_steps": 15,
        "max_classes": 0,
    },
    "spectrum": {
        "potential": "quartic",
        "scale": 50.0,
        "num_qubits": 7,
        "s_points": 41,
        "k_lowest": 4,
    },
    "mass-scan": {
        "masses": [25.0, 100.0, 400.0],
        "num_qubits": 7,
        "grid_points": 2048,
    },
    "classical-pool": {
        "split_seed": 0,
        "n_runs": 1000,
        "first_seed": 0,
        "steepness": 10.0,
        "penalty": 50.0,
        "n_steps": 500,
        "learning_rate": 0.05,
    },
    "accuracy-curves": {
        "split_seed": 0,
        "pool": 1000,
        "repetitions": 1000,
        "n_values": [1, 2, 4, 8, 16, 32, 64, 128],
        "seed": 0,
        "first_seed": 0,
        "t_final": 20.0,
        "n_steps": 20,
        "steepness": 10.0,
        "penalty": 50.0,
        "train_steps": 500,
        "learning_rate": 0.05,
    },
    "enumerate": {
        "model": "binary",
        "dataset": "circle",
        "n_points": 1000,
        "seed": 0,
        "band_rule": "min",
        "split_seed": 0,
    },
}

CHOICES = {
    ("tunnel", "potential"): ("cosine", "quartic"),
    ("anneal-matrix", "potential"): ("cosine", "tilted-cosine", "quartic"),
    ("anneal-matrix", "schedule"): ("linear",),
    ("anneal-paulispin", "schedule"): ("linear",),
    ("nn-toy", "dataset"): ("circle", "band"),
    ("nn-toy", "band_rule"): ("min", "max"),
    ("nn-toy", "loss"): ("mse",),
    ("nn-toy", "schedule"): ("linear",),
    ("nn-binary", "loss"): ("linear-binary",),
    ("nn-binary", "schedule"): ("linear",),
    ("enumerate", "model"): ("toy", "binary"),
    ("enumerate", "dataset"): ("circle", "band"),
    ("enumerate", "band_rule"): ("min", "max"),
}

#: the one 1-D potential of the matrix-method kinds that reads each potential
#: parameter; with any other potential the parameter is left out of the
#: effective config, and a config that sets it is rejected
POTENTIAL_PARAMETERS = {"tilt": "tilted-cosine", "scale": "quartic"}
_MATRIX_POTENTIAL_KINDS = ("tunnel", "anneal-matrix")

#: register-size caps; the message names the cap so oversized requests are
#: rejected with an explanation rather than an allocation failure
QUBIT_CAPS = {
    "tunnel": ("dense evolution cap", DENSE_EVOLUTION_CAP),
    "anneal-matrix": ("dense evolution cap", DENSE_EVOLUTION_CAP),
    "anneal-paulispin": ("split-step state cap", 16),
    "spectrum": ("dense matrix cap", matrix_method.QUBIT_CAP),
    "mass-scan": ("dense matrix cap", matrix_method.QUBIT_CAP),
}

_POSITIVE_FLOATS = {
    "mass",
    "scale",
    "packet_width",
    "t_total",
    "dt",
    "t_final",
    "steepness",
    "learning_rate",
}
_POSITIVE_INTS = {
    "n_steps",
    "n_points",
    "n_runs",
    "pool",
    "repetitions",
    "grid_probe_side",
    "s_points",
    "k_lowest",
    "train_steps",
    "num_qubits",
}
_NONNEG_INTS = {"seed", "split_seed", "first_seed", "snapshot_stride", "max_classes"}


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of schema validation: filled-in config plus diagnostics."""

    effective: dict
    notes: list
    errors: list

    @property
    def ok(self) -> bool:
        return not self.errors


def _coerce(name: str, value, errors: list):
    """Canonicalize one parameter value, appending any complaint to errors."""
    if name in _POSITIVE_FLOATS or name in ("tilt", "penalty", "packet_center"):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"{name} must be a number, got {value!r}")
            return value
        value = float(value)
        if name in _POSITIVE_FLOATS and value <= 0:
            errors.append(f"{name} must be positive, got {value}")
        if name == "penalty" and value < 0:
            errors.append(f"{name} must be non-negative, got {value}")
        if name == "packet_center" and not 0.0 <= value < 1.0:
            errors.append(f"{name} must lie in [0, 1), got {value}")
        return value
    if name in _POSITIVE_INTS or name in _NONNEG_INTS or name == "grid_points":
        ok_int = isinstance(value, int) and not isinstance(value, bool)
        if isinstance(value, float) and value.is_integer():
            ok_int, value = True, int(value)
        if not ok_int:
            errors.append(f"{name} must be an integer, got {value!r}")
            return value
        value = int(value)
        if name in _POSITIVE_INTS and value < 1:
            errors.append(f"{name} must be at least 1, got {value}")
        if name in _NONNEG_INTS and value < 0:
            errors.append(f"{name} must be non-negative, got {value}")
        if name == "grid_points" and value < 2:
            errors.append(f"grid_points must be at least 2, got {value}")
        return value
    if name == "masses":
        if (
            not isinstance(value, (list, tuple))
            or len(value) < 2
            or not all(isinstance(v, (int, float)) and v > 0 for v in value)
        ):
            errors.append("masses must list at least two positive numbers")
            return value
        return [float(v) for v in value]
    if name == "n_values":
        if (
            not isinstance(value, (list, tuple))
            or not value
            or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in value)
        ):
            errors.append("n_values must list positive integers")
            return value
        return [int(v) for v in value]
    if not isinstance(value, str):
        errors.append(f"{name} must be a string, got {value!r}")
    return value


def validate_config(config) -> ValidationReport:
    """Check a config against its kind's schema without running anything.

    Fills in defaults (reported in notes), rejects unknown keys, enforces
    value ranges and register caps, and returns the effective config whose
    canonical JSON defines the config hash.  For the matrix-method kinds the
    effective config lists only the potential parameters the chosen
    potential uses; setting one it ignores is an error.
    """
    notes: list = []
    errors: list = []
    if not isinstance(config, dict):
        return ValidationReport({}, notes, ["config must be a JSON object"])
    kind = config.get("kind")
    if kind not in SCHEMAS:
        known = ", ".join(EXPERIMENT_KINDS)
        return ValidationReport({}, notes, [f"unknown kind {kind!r}; expected one of: {known}"])
    schema = SCHEMAS[kind]
    for key in sorted(config):
        if key != "kind" and key not in schema:
            errors.append(f"unknown parameter {key!r} for kind {kind!r}")

    potential = config.get("potential", schema.get("potential"))
    effective = {"kind": kind}
    for name, default in schema.items():
        reader = POTENTIAL_PARAMETERS.get(name)
        if kind in _MATRIX_POTENTIAL_KINDS and reader and potential != reader:
            if name in config:
                errors.append(
                    f"{name} has no effect with potential {potential!r}; "
                    f"only potential {reader!r} reads it"
                )
            continue
        if name in config:
            value = config[name]
        else:
            value = default
            notes.append(f"{name} defaulted to {default!r}")
        value = _coerce(name, value, errors)
        choices = CHOICES.get((kind, name))
        if choices and value not in choices:
            errors.append(f"{name} must be one of {choices}, got {value!r}")
        effective[name] = value

    cap = QUBIT_CAPS.get(kind)
    if cap and isinstance(effective.get("num_qubits"), int):
        label, limit = cap
        if effective["num_qubits"] > limit:
            errors.append(
                f"num_qubits = {effective['num_qubits']} exceeds the {label} of {limit}"
            )
    if kind in ("anneal-paulispin", "spectrum") and isinstance(effective["potential"], str):
        if effective["potential"] != "quartic":
            try:
                poly = parse_polynomial(effective["potential"])
                if len(poly.variables) != 1:
                    errors.append("objective polynomial must use exactly one variable")
            except ValueError as exc:
                errors.append(f"cannot parse objective polynomial: {exc}")
    return ValidationReport(effective, notes, errors)


def config_hash(effective: dict) -> str:
    """Digest of the canonical effective config; stamped into every output."""
    canonical = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:16]


# -- deterministic file emission -------------------------------------------------------

def atomic_write_text(path, text: str):
    """Write via a temporary sibling and rename, so readers never see partials."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="ascii")
    os.replace(tmp, path)


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path, experiment: str, cfg_hash: str, columns, rows, extra_header=None):
    """CSV with ``# key = value`` headers; floats at repr-exact precision."""
    lines = [f"# experiment = {experiment}", f"# config_hash = {cfg_hash}"]
    for key, value in (extra_header or {}).items():
        lines.append(f"# {key} = {value}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_cell(value) for value in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path, payload: dict):
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_dataset(path, dataset, header):
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    write_dataset_csv(tmp, dataset, header)
    os.replace(tmp, path)


# -- shared construction ----------------------------------------------------------------

def _matrix_potential(effective: dict):
    name = effective["potential"]
    if name == "cosine":
        return CosinePotential()
    if name == "tilted-cosine":
        return TiltedCosinePotential(effective["tilt"])
    return QuarticPotential(effective["scale"])


def _objective_polynomial(effective: dict) -> VarPolynomial:
    """Scaled objective for the Pauli-spin kinds, in one named variable."""
    if effective["potential"] == "quartic":
        poly = VarPolynomial.zero()
        for power, coeff in enumerate(matrix_method.QUARTIC_COEFFS):
            poly = poly + VarPolynomial.monomial(coeff, {"w": power})
    else:
        poly = parse_polynomial(effective["potential"])
    return poly * effective["scale"]


def _paulispin_spec(effective: dict):
    poly = _objective_polynomial(effective)
    variable = sorted(poly.variables)[0]
    num_qubits = effective["num_qubits"]
    table = EncodingTable.single_fractional(variable, num_qubits)
    spec = AnnealSpec(
        driver=transverse_driver(num_qubits),
        target=poly.substitute_encodings(table),
        schedule=LinearSchedule(effective["t_final"]) if "t_final" in effective else LinearSchedule(1.0),
        n_steps=effective.get("n_steps", 1),
        snapshot_stride=max(1, effective.get("n_steps", 1)),
    )
    return poly, variable, table, spec


def _nn_anneal(hamiltonian, num_qubits: int, effective: dict) -> StateVector:
    """Anneal the compiled diagonal Hamiltonian by exact Krylov stepping.

    The coarse schedules used for the network runs (10 steps) need the exact
    per-step exponential of the whole interpolated Hamiltonian; splitting the
    driver and target factors at that step count visibly distorts the final
    populations.
    """
    spec = AnnealSpec(
        driver=transverse_driver(num_qubits),
        target=hamiltonian,
        schedule=LinearSchedule(effective["t_final"]),
        n_steps=effective["n_steps"],
        substeps_per_step=None,
        snapshot_stride=effective["n_steps"],
    )
    return evolve_adiabatic(spec, StateVector.uniform(num_qubits)).final


def _well_masses(w: np.ndarray, density: np.ndarray) -> tuple:
    left = float(np.trapezoid(np.where(w < 0.5, density, 0.0), w))
    right = float(np.trapezoid(np.where(w >= 0.5, density, 0.0), w))
    return left, right


def _window_mass(w: np.ndarray, density: np.ndarray, center: float, halfwidth: float) -> float:
    inside = np.abs(w - center) < halfwidth
    return float(np.trapezoid(np.where(inside, density, 0.0), w))


def _class_rows(classes, limit: int):
    rows = []
    for cls in classes[: limit or None]:
        rows.append(
            {
                "bitstring": cls.bitstring,
                "probability": cls.probability,
                "energy": cls.energy,
                "degeneracy": cls.degeneracy,
                "prediction_hash": cls.prediction_hash,
                "weights": {name: float(v) for name, v in cls.weights.items()},
            }
        )
    return rows


def _binary_pool_indices(runs) -> np.ndarray:
    """Basis index of each run's binarized weights, matching the register order."""
    return np.array(
        [
            index_of_report_bitstring("".join(str(int(b)) for b in run.binary_weights))
            for run in runs
        ]
    )


# -- runners -------------------------------------------------------------------------

def _run_tunnel(effective, out: Path, cfg_hash: str):
    truncation = MomentumTruncation(effective["num_qubits"])
    problem = SchrodingerProblem(_matrix_potential(effective), effective["mass"], truncation)
    packet = gaussian_packet(
        effective["packet_center"], effective["packet_width"], truncation
    )
    snapshots = evolve_real_time(
        problem.hamiltonian(),
        StateVector.from_amplitudes(packet),
        effective["t_total"],
        effective["dt"],
        max(1, effective["snapshot_stride"]),
    )
    rows = []
    for t, state in snapshots:
        w, density = momentum_to_position(state.amplitudes, effective["grid_points"])
        rows.append((t, *_well_masses(w, density)))
    write_csv(
        out / "timeseries.csv",
        "tunnel",
        cfg_hash,
        ("time", "mass_left", "mass_right"),
        rows,
    )
    w, density = momentum_to_position(snapshots[-1][1].amplitudes, effective["grid_points"])
    write_csv(out / "density_final.csv", "tunnel", cfg_hash, ("w", "density"), zip(w, density))

    started_left = effective["packet_center"] < 0.5
    other = [row[2] if started_left else row[1] for row in rows]
    peak = int(np.argmax(other))
    headline = {
        "initial_well": "left" if started_left else "right",
        "max_other_well_mass": float(other[peak]),
        "time_of_max_transfer": float(rows[peak][0]),
        "final_other_well_mass": float(other[-1]),
    }
    return headline, ["timeseries.csv", "density_final.csv"]


def _run_anneal_matrix(effective, out: Path, cfg_hash: str):
    truncation = MomentumTruncation(effective["num_qubits"])
    problem = SchrodingerProblem(_matrix_potential(effective), effective["mass"], truncation)
    target = problem.hamiltonian()
    stride = effective["snapshot_stride"] or effective["n_steps"]
    spec = AnnealSpec(
        driver=problem.kinetic_matrix(),
        target=target,
        schedule=LinearSchedule(effective["t_final"]),
        n_steps=effective["n_steps"],
        snapshot_stride=stride,
    )
    initial = StateVector.basis(effective["num_qubits"], truncation.index_of(0))
    result = evolve_adiabatic(spec, initial)

    files = ["density_final.csv"]
    grid = effective["grid_points"]
    w, density = momentum_to_position(result.final.amplitudes, grid)
    write_csv(out / "density_final.csv", "anneal-matrix", cfg_hash, ("w", "density"), zip(w, density))
    if effective["snapshot_stride"]:
        rows = []
        for t, state in result.snapshots:
            _, snap_density = momentum_to_position(state.amplitudes, grid)
            rows.extend(zip([t] * grid, w, snap_density))
        write_csv(out / "density_snapshots.csv", "anneal-matrix", cfg_hash, ("time", "w", "density"), rows)
        files.append("density_snapshots.csv")

    left = density * (w < 0.5)
    right = density * (w >= 0.5)
    peak_left, peak_right = int(np.argmax(left)), int(np.argmax(right))
    energy0, ground = ground_state(target)
    true_minimum = (
        matrix_method.QUARTIC_TRUE_MINIMUM if effective["potential"] == "quartic" else 0.25
    )
    headline = {
        "peak_left_w": float(w[peak_left]),
        "peak_left_height": float(density[peak_left]),
        "peak_right_w": float(w[peak_right]),
        "peak_right_height": float(density[peak_right]),
        "peak_height_rel_diff": float(
            abs(density[peak_left] - density[peak_right])
            / max(density[peak_left], density[peak_right])
        ),
        # capture window of one well: +-0.1 around the intended minimum
        "mass_near_true_minimum": _window_mass(w, density, true_minimum, 0.1),
        "ground_energy": energy0,
        "ground_overlap": float(abs(np.vdot(ground, result.final.amplitudes)) ** 2),
    }
    return headline, files


def _run_anneal_paulispin(effective, out: Path, cfg_hash: str):
    poly, variable, table, spec = _paulispin_spec(effective)
    result = evolve_adiabatic(spec, StateVector.uniform(effective["num_qubits"]))
    probabilities = result.final.probabilities()
    values = table.decode_columns()[variable]
    order = np.argsort(values)
    bins = [
        {
            "w": float(values[i]),
            "bitstring": report_bitstring(int(i), effective["num_qubits"]),
            "probability": float(probabilities[i]),
        }
        for i in order
    ]
    write_json(
        out / "histogram.json",
        {
            "experiment": "anneal-paulispin",
            "config_hash": cfg_hash,
            "variable": variable,
            "bin_width": 0.5 ** effective["num_qubits"],
            "bins": bins,
        },
    )
    top = int(np.argmax(probabilities))
    centers = np.sort(values)
    objective = np.array([poly.evaluate({variable: float(v)}) for v in centers])
    headline = {
        "top_bin_w": float(values[top]),
        "top_bin_probability": float(probabilities[top]),
        "top_bitstring": report_bitstring(top, effective["num_qubits"]),
        "bin_width": 0.5 ** effective["num_qubits"],
        "objective_minimum_w": float(centers[int(np.argmin(objective))]),
    }
    return headline, ["histogram.json"]


def _toy_dataset(effective):
    if effective["dataset"] == "circle":
        return circle_dataset(effective["n_points"], effective["seed"])
    return band_dataset(effective["n_points"], effective["seed"], effective["band_rule"])


def _run_nn_toy(effective, out: Path, cfg_hash: str):
    dataset = _toy_dataset(effective)
    model = toy_two_layer_model()
    table = model_encoding_table(model, "spin-pm1")
    hamiltonian = compile_hamiltonian(build_loss(model, dataset, effective["loss"]), table)
    state = _nn_anneal(hamiltonian, table.total_qubits, effective)

    probe = np.vstack([dataset.features, grid_probe(effective["grid_probe_side"])])
    classes = group_degenerate(model, table, state, probe, hamiltonian)
    weightspace = enumerate_weightspace(model, table, dataset, dataset, effective["loss"])
    stats = term_stats(model, dataset, effective["loss"], table)

    _write_dataset(
        out / "dataset.csv",
        dataset,
        {
            "experiment": "nn-toy",
            "config_hash": cfg_hash,
            "dataset": effective["dataset"],
            "seed": effective["seed"],
        },
    )
    write_json(
        out / "classes.json",
        {
            "experiment": "nn-toy",
            "config_hash": cfg_hash,
            "classes": _class_rows(classes, effective["max_classes"]),
        },
    )
    top = classes[0]
    optimum_loss = float(weightspace.losses[weightspace.optimum_index()])
    headline = {
        "top_class_probability": top.probability,
        "top_class_bitstring": top.bitstring,
        "top_class_degeneracy": top.degeneracy,
        "top_class_energy": top.energy,
        "top_class_train_accuracy": float(
            weightspace.train_accuracy[top.representative_index]
        ),
        "optimum_loss": optimum_loss,
        "top_matches_optimum": bool(abs(top.energy - optimum_loss) <= 1e-9),
        "network_term_count": stats.network_term_count,
        "hamiltonian_term_count": stats.hamiltonian_term_count,
        "term_bounds_ok": bool(stats.within_bounds),
    }
    return headline, ["dataset.csv", "classes.json"]


def _run_nn_binary(effective, out: Path, cfg_hash: str):
    train, test = balanced_pixel_split(effective["split_seed"])
    model = binary_pixel_model()
    table = model_encoding_table(model, "binary01")
    hamiltonian = compile_hamiltonian(build_loss(model, train, effective["loss"]), table)
    state = _nn_anneal(hamiltonian, table.total_qubits, effective)

    classes = group_degenerate(model, table, state, pixel_images().features, hamiltonian)
    weightspace = enumerate_weightspace(model, table, train, test, effective["loss"])
    stats = term_stats(model, train, effective["loss"], table)
    probabilities = state.probabilities()
    top_state = int(np.argmax(probabilities))

    header = {"experiment": "nn-binary", "config_hash": cfg_hash, "split_seed": effective["split_seed"]}
    _write_dataset(out / "train.csv", train, header)
    _write_dataset(out / "test.csv", test, header)
    write_json(
        out / "classes.json",
        {
            "experiment": "nn-binary",
            "config_hash": cfg_hash,
            "classes": _class_rows(classes, effective["max_classes"]),
        },
    )
    headline = {
        "top_state_bitstring": report_bitstring(top_state, table.total_qubits),
        "top_state_probability": float(probabilities[top_state]),
        "top_state_train_accuracy": float(weightspace.train_accuracy[top_state]),
        "top_state_test_accuracy": float(weightspace.test_accuracy[top_state]),
        "top_class_probability": classes[0].probability,
        "perfect_fraction": weightspace.perfect_fraction(),
        "optimum_loss": float(weightspace.losses[weightspace.optimum_index()]),
        "network_term_count": stats.network_term_count,
        "hamiltonian_term_count": stats.hamiltonian_term_count,
        "term_bounds_ok": bool(stats.within_bounds),
    }
    return headline, ["train.csv", "test.csv", "classes.json"]


def _run_spectrum(effective, out: Path, cfg_hash: str):
    _, _, _, spec = _paulispin_spec(effective)
    s_values = np.linspace(0.0, 1.0, effective["s_points"])
    curves = instantaneous_spectrum(spec, s_values, effective["k_lowest"])
    columns = ("s",) + tuple(f"e{k}" for k in range(curves.shape[1]))
    write_csv(
        out / "spectrum.csv",
        "spectrum",
        cfg_hash,
        columns,
        [(s, *row) for s, row in zip(s_values, curves)],
    )
    gaps = curves[:, 1] - curves[:, 0] if curves.shape[1] > 1 else np.zeros(len(s_values))
    tightest = int(np.argmin(gaps))
    headline = {
        "min_gap": float(gaps[tightest]),
        "s_at_min_gap": float(s_values[tightest]),
        "final_ground_energy": float(curves[-1, 0]),
    }
    return headline, ["spectrum.csv"]


def _run_mass_scan(effective, out: Path, cfg_hash: str):
    truncation = MomentumTruncation(effective["num_qubits"])
    rows = []
    peaks = []
    for mass in effective["masses"]:
        problem = SchrodingerProblem(CosinePotential(), mass, truncation)
        _, vector = ground_state(problem.hamiltonian())
        w, density = momentum_to_position(vector, effective["grid_points"])
        peak = int(np.argmax(density))
        rows.append((mass, float(w[peak]), float(density[peak])))
        peaks.append(float(density[peak]))
    write_csv(out / "scan.csv", "mass-scan", cfg_hash, ("mass", "peak_w", "peak_density"), rows)
    headline = {
        "exponent": mass_scaling_exponent(effective["masses"], peaks),
        "harmonic_exponent": 0.25,
    }
    return headline, ["scan.csv"]


def _run_classical_pool(effective, out: Path, cfg_hash: str):
    train, test = balanced_pixel_split(effective["split_seed"])
    model = binary_pixel_model()
    relaxed = RelaxedModel(
        model, steepness=effective["steepness"], penalty=effective["penalty"]
    )
    seeds = range(effective["first_seed"], effective["first_seed"] + effective["n_runs"])
    runs = train_pool(
        relaxed,
        train,
        seeds,
        n_steps=effective["n_steps"],
        learning_rate=effective["learning_rate"],
    )
    table = model_encoding_table(model, "binary01")
    weightspace = enumerate_weightspace(model, table, train, test, "linear-binary")
    indices = _binary_pool_indices(runs)
    train_acc = weightspace.train_accuracy[indices]
    test_acc = weightspace.test_accuracy[indices]

    columns = ("seed", *model.variable_names, "train_accuracy", "test_accuracy")
    rows = [
        (run.seed, *(int(b) for b in run.binary_weights), ta, va)
        for run, ta, va in zip(runs, train_acc, test_acc)
    ]
    write_csv(out / "pool.csv", "classical-pool", cfg_hash, columns, rows)
    relaxed_weights = np.stack([run.relaxed_weights for run in runs])
    distance = np.minimum(np.abs(relaxed_weights), np.abs(relaxed_weights - 1.0))
    headline = {
        "mean_train_accuracy": float(train_acc.mean()),
        "mean_test_accuracy": float(test_acc.mean()),
        "max_train_accuracy": float(train_acc.max()),
        "near_binary_fraction": float(np.mean(distance <= 0.1)),
    }
    return headline, ["pool.csv"]


def _run_accuracy_curves(effective, out: Path, cfg_hash: str):
    train, test = balanced_pixel_split(effective["split_seed"])
    model = binary_pixel_model()
    table = model_encoding_table(model, "binary01")
    hamiltonian = compile_hamiltonian(build_loss(model, train, "linear-binary"), table)
    state = _nn_anneal(hamiltonian, table.total_qubits, effective)
    weightspace = enumerate_weightspace(model, table, train, test, "linear-binary")

    _, q_train, q_test = sample_pool(
        state, weightspace, effective["pool"], effective["seed"]
    )
    relaxed = RelaxedModel(
        model, steepness=effective["steepness"], penalty=effective["penalty"]
    )
    runs = train_pool(
        relaxed,
        train,
        range(effective["first_seed"], effective["first_seed"] + effective["pool"]),
        n_steps=effective["train_steps"],
        learning_rate=effective["learning_rate"],
    )
    indices = _binary_pool_indices(runs)
    c_train = weightspace.train_accuracy[indices]
    c_test = weightspace.test_accuracy[indices]

    columns = ("n", "train_mean", "train_std", "test_mean", "test_std")
    n_values = effective["n_values"]
    quantum = accuracy_vs_runs(q_train, q_test, n_values, effective["repetitions"], effective["seed"])
    classical = accuracy_vs_runs(c_train, c_test, n_values, effective["repetitions"], effective["seed"])
    write_csv(out / "curves_quantum.csv", "accuracy-curves", cfg_hash, columns, quantum)
    write_csv(out / "curves_classical.csv", "accuracy-curves", cfg_hash, columns, classical)

    ordering = all(
        q[1] > c[1] for q, c, n in zip(quantum, classical, n_values) if n >= 2
    )
    by_n = {int(n): float(row[1]) for n, row in zip(n_values, quantum)}
    headline = {
        "quantum_pool_train_mean": float(np.mean(q_train)),
        "classical_pool_train_mean": float(np.mean(c_train)),
        "quantum_train_mean_n8": by_n.get(8),
        "classical_plateau_train_mean": float(classical[-1][1]),
        "quantum_above_classical_from_n2": bool(ordering),
    }
    return headline, ["curves_quantum.csv", "curves_classical.csv"]


def _run_enumerate(effective, out: Path, cfg_hash: str):
    if effective["model"] == "toy":
        dataset = _toy_dataset(effective)
        train = test = dataset
        model = toy_two_layer_model()
        table = model_encoding_table(model, "spin-pm1")
        loss_kind = "mse"
    else:
        train, test = balanced_pixel_split(effective["split_seed"])
        model = binary_pixel_model()
        table = model_encoding_table(model, "binary01")
        loss_kind = "linear-binary"
    weightspace = enumerate_weightspace(model, table, train, test, loss_kind)
    n = table.total_qubits
    rows = [
        (
            index,
            report_bitstring(index, n),
            weightspace.losses[index],
            weightspace.train_accuracy[index],
            weightspace.test_accuracy[index],
        )
        for index in range(2**n)
    ]
    write_csv(
        out / "weightspace.csv",
        "enumerate",
        cfg_hash,
        ("index", "bitstring", "loss", "train_accuracy", "test_accuracy"),
        rows,
        extra_header={"loss_kind": loss_kind},
    )
    optimum = weightspace.optimum_index()
    headline = {
        "n_configurations": 2**n,
        "optimum_index": optimum,
        "optimum_bitstring": report_bitstring(optimum, n),
        "optimum_loss": float(weightspace.losses[optimum]),
        "optimum_train_accuracy": float(weightspace.train_accuracy[optimum]),
        "optimum_test_accuracy": float(weightspace.test_accuracy[optimum]),
        "perfect_fraction": weightspace.perfect_fraction(),
    }
    return headline, ["weightspace.csv"]


_RUNNERS = {
    "tunnel": _run_tunnel,
    "anneal-matrix": _run_anneal_matrix,
    "anneal-paulispin": _run_anneal_paulispin,
    "nn-toy": _run_nn_toy,
    "nn-binary": _run_nn_binary,
    "spectrum": _run_spectrum,
    "mass-scan": _run_mass_scan,
    "classical-pool": _run_classical_pool,
    "accuracy-curves": _run_accuracy_curves,
    "enumerate": _run_enumerate,
}


@dataclass(frozen=True)
class ExperimentResult:
    kind: str
    config_hash: str
    summary: dict
    files: tuple


def run_experiment(config: dict, out_dir) -> ExperimentResult:
    """Validate, run, and persist one experiment into ``out_dir``.

    Writes the kind's data files plus ``summary.json`` and returns the
    summary; raises ValueError if the config does not validate.
    """
    report = validate_config(config)
    if not report.ok:
        raise ValueError("invalid config: " + "; ".join(report.errors))
    effective = report.effective
    digest = config_hash(effective)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    headline, files = _RUNNERS[effective["kind"]](effective, out, digest)
    wall = time.perf_counter() - start

    summary = {
        "experiment": effective["kind"],
        "config_hash": digest,
        "effective_config": effective,
        "headline": headline,
        "files": sorted(files),
        "wall_time_s": round(wall, 3),
    }
    write_json(out / "summary.json", summary)
    return ExperimentResult(effective["kind"], digest, summary, tuple(sorted(files + ["summary.json"])))

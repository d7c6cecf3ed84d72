"""Config-driven experiment runners with deterministic file output.

Each experiment kind pairs a parameter schema (missing entries filled from
documented defaults) with a runner that writes figure-ready CSV/JSON files
plus a machine-readable ``summary.json``.  Data files are byte-identical
across reruns of the same effective config: headers carry the config hash,
never timestamps.  The summary's ``wall_time_s`` field is the one value
exempt from byte identity.

The matrix-method runners use the potential's mode-parity blocks
(:meth:`~aqtrain.matrix_method.SchrodingerProblem.sectors`): an
anneal-matrix run evolves mode 0's block alone and embeds the states it
reads in the full mode vector, and anneal-matrix and mass-scan solve their
ground states block by block.  A tunnel run keeps the full matrix, since
its packet fills both parities.
"""

import json
import hashlib
import itertools
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import matrix_method
from .classical import RelaxedModel, train_pool
from .datasets import (
    Dataset,
    balanced_pixel_split,
    band_dataset,
    circle_dataset,
    pixel_images,
    write_dataset_csv,
)
from .encodings import EncodingTable, Grid, report_bitstring
from .engine import (
    CHUNK_BYTES,
    DENSE_EVOLUTION_CAP,
    DENSE_PANEL_NODES,
    AnnealSpec,
    basis_state,
    chebyshev_degree,
    evolve_adiabatic,
    evolve_real_time,
    instantaneous_spectrum,
    snapshot_count,
    transverse_driver,
    uniform_state,
)
from .matrix_method import (
    MomentumTruncation,
    Potential,
    SchrodingerProblem,
    check_packet_width,
    gaussian_packet,
    ground_state,
    mass_scaling_exponent,
    momentum_to_position,
    quartic_polynomial,
    window_masses,
)
from .nn import (
    PROBABILITY_DECIMALS,
    ModelSpec,
    WeightspaceTable,
    accuracy_vs_runs,
    binary_pixel_model,
    enumerate_weightspace,
    grid_probe,
    group_degenerate,
    model_encoding_table,
    sample_pool,
    term_stats,
    toy_two_layer_model,
)
from .pauli import MATRIX_QUBIT_CAP
from .varpoly import VarPolynomial, parse_polynomial

# -- schemas -------------------------------------------------------------------------

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
        "t_final": 50.0,
        "n_steps": 500,
        "snapshot_stride": 0,
        "grid_points": 1025,
    },
    "anneal-paulispin": {
        "potential": "quartic",
        "scale": 50.0,
        "num_qubits": 7,
        "t_final": 50.0,
        "n_steps": 1000,
    },
    "nn-toy": {
        "dataset": "circle",
        "n_points": 1000,
        "seed": 0,
        "band_rule": "min",
        "t_final": 10.0,
        "n_steps": 10,
        "grid_probe_side": 21,
        "max_classes": 0,
    },
    "nn-binary": {
        "split_seed": 0,
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

EXPERIMENT_KINDS = tuple(SCHEMAS)

CHOICES = {
    ("tunnel", "potential"): ("cosine", "quartic"),
    ("anneal-matrix", "potential"): ("cosine", "tilted-cosine", "quartic"),
    ("nn-toy", "dataset"): ("circle", "band"),
    ("nn-toy", "band_rule"): ("min", "max"),
    ("enumerate", "model"): ("toy", "binary"),
    ("enumerate", "dataset"): ("circle", "band"),
    ("enumerate", "band_rule"): ("min", "max"),
}

#: the one 1-D potential of the matrix-method kinds that reads each potential
#: parameter; with any other potential the parameter is left out of the
#: effective config, and a config that sets it is rejected
POTENTIAL_PARAMETERS = {"tilt": "tilted-cosine", "scale": "quartic"}
_MATRIX_POTENTIAL_KINDS = ("tunnel", "anneal-matrix")

#: the one enumerate model that reads each data parameter; with the other
#: model the parameter is left out of the effective config, and a config
#: that sets it gets a note
MODEL_PARAMETERS = dict.fromkeys(("dataset", "n_points", "seed", "band_rule"), "toy")
MODEL_PARAMETERS["split_seed"] = "binary"

#: the register-size cap of each kind with a num_qubits parameter
_REGISTER_CAPS = {
    "tunnel": "dense evolution cap",
    "anneal-matrix": "dense evolution cap",
    "anneal-paulispin": "split-step state cap",
    "spectrum": "dense matrix cap",
    "mass-scan": "dense matrix cap",
}

#: bytes a kept snapshot state costs beyond its row of 16 B amplitudes, measured
#: at 5 and 10 qubits: its time (8 B), and on tunnel its timeseries row
SNAPSHOT_OVERHEAD_BYTES = 256

#: the fixed cost of one classical training step, whatever the pool size, in
#: run-steps: 90 us at the 1.5 us a run-step is priced at, above the 30-32 us
#: measured (see below)
CLASSICAL_STEP_OVERHEAD = 60

#: the fixed cost of one split step, whatever the register, in amplitudes:
#: about 4-5 us over the 35-52 ns an amplitude costs at the state cap
SPLIT_STEP_OVERHEAD = 100

#: the fixed cost of one dense anneal step, whatever the register, in units
#: of 4**num_qubits: sized by memory as much as by time (see below)
DENSE_STEP_OVERHEAD = 1700

#: the fixed cost of one term of the exact anneal step's Chebyshev series,
#: whatever the register, in amplitudes: about 8-10 us over the 9-15 ns an
#: amplitude costs between 6 and 10 qubits
CHEBYSHEV_TERM_OVERHEAD = 800

#: a bound on the range of each network model's loss over its weight
#: configurations: the binary model's linear-binary loss counts false minus
#: true positives over its 5 + 5 training images, so it lies in [-5, 5]; the
#: toy model's output is a signed sum of two squares of +-x1 +- x2, each in
#: [0, 4] on [-1, 1]**2, minus 1, so it lies in [-9, 7], and with labels of
#: at most 2 in size a squared error, and so the MSE, lies in [0, 11**2]
LOSS_RANGE_BOUND = {"binary": 10.0, "toy": 121.0}

#: the fixed cost of one spectrum s point (its eigvalsh call and its CSV row),
#: in units of 8**num_qubits: about 26 us over the 1.0 ns a unit a complex
#: eigh costs at 1024**2
SPECTRUM_POINT_OVERHEAD = 30_000

# Why each limit has its size, from costs measured on 2 cores with OpenBLAS:
# - classical pool: train_pool splits the seeds into one block per usable
#   core, trained side by side by this process and forked children.  A
#   block's step costs 30-32 us whatever its size, plus per run 0.21 us at
#   1000 runs, 0.27-0.29 us at 16 000 and 0.44-0.50 us at the memory cap.
#   On 2 cores, two blocks of half the pool step in 0.14-0.17 us a pool run
#   at 16 000 runs, but at the memory cap no faster than one block (0.44-0.87
#   us a pool run).  Forking and joining the children costs about 5 ms a
#   call; each run also costs 1.0-1.4 us and 1.7 kB once (slope over 1000 to
#   16 000 runs of twice a one-step pool less a two-step one; traced peak),
#   0.6 us of it the parent's one draw of every run's weights.  The budget prices
#   one block at 1.5 us a run-step, above all of these: (runs +
#   CLASSICAL_STEP_OVERHEAD) * steps within it keeps training near 60 s on
#   one core, and the memory cap keeps one block near 180 MB max RSS (the
#   parent of two blocks: 114 MB, its child 103 MB).
# - curves: one (repetitions, n) block of pool draws at a time, 16 B and
#   15-25 ns a draw, drawn for both pools: near 160 MB and 50 s.
# - toy data: about 1.4 kB and 4 us per forwarded row (dataset or nn-toy grid
#   probe), measured on nn-toy at 10 000 and 40 000 rows (55 and 97 MB max
#   RSS, 0.050 and 0.16 s a run, medians of 15): 97 MB and 0.16 s at the cap.
# - dense step budget: a step is one product with its interpolated
#   propagator; a chunk of those comes from one GEMM against the 13-node
#   block, one per anneal and reused by every panel (218 MB at 10 qubits; the
#   chunk of 2 propagators there is 34 MB more).  A 10-qubit anneal at the
#   budget (476 steps, two panels) peaked at 375 MB max RSS.  Stepping alone
#   measured 2.8 ns per dim**2 at 8 qubits and 2.9 ns at 10, against 3.4 and
#   3.6 ns for the earlier per-node GEMV step on the same host, so the budget
#   now bounds the stepping far below 50 s.  A step also has a fixed cost:
#   0.75-0.76 us at 1 qubit (marginal over 50 000 to 250 000 steps, min of 3;
#   2.3-2.6 us in an earlier measurement, and 1.0-1.4 us with a numpy-int step
#   number and an @ step), against 6.8-8.1 ns per dim**2 at 10 qubits on a
#   busier host, a ratio near 100 (330 and 1700 in earlier measurements).
#   Memory sets DENSE_STEP_OVERHEAD higher than that ratio: tracemalloc
#   measured 370 B a step at 1 qubit (the panel's Lagrange weights, the step
#   fractions and index arrays), so 1700 holds a 1-qubit anneal at the budget
#   to 293 427 steps (110 MB; the run took 0.65 s) and still admits 476 at 10
#   qubits.
# - real-time step budget: a tunnel run has no step loop.  It costs one eigh,
#   then per kept state one dim**2 product for the state and three for its
#   well masses, plus a timeseries row, so it is charged per kept state:
#   about 3.0 ns per dim**2 at 10 qubits (5722 states, the budget, ran in
#   18 s) and 1.3 ns at 8 (35 601 states, 3.0 s).  An overflowing
#   t_total / dt still fails it.
# - dense decomposition budget: a complex eigh takes 1.0-1.7 s at 1024**2,
#   so 32 at the dense evolution cap take about 50 s.  spectrum runs one per
#   s point, mass-scan one per mass, anneal-matrix one per Chebyshev node,
#   13 per panel of reach |T - D| dt <= 1 and at most one per step; T - D is
#   the Toeplitz potential matrix, of norm at most |V(0)| + 2 sum |V(k>0)|.
#   The budget still prices the full register, although a cosine run solves
#   its even and odd blocks apart (two half-size eigh calls cost a quarter of
#   one full one), so it holds for every potential alike.
#   A spectrum s point also pays SPECTRUM_POINT_OVERHEAD, which bounds a
#   1-qubit scan near 1.1 million points and 30 s.
# - split step budget: a step is one rotation-block product per driver factor
#   (one at up to 6 qubits, two at 7-12, three at 13-16) and one phase pass:
#   3.9-4.7 us at 1 qubit, 8.1-8.5 us at 7 (17 us in an earlier
#   measurement), 63-68 us at 10, 0.26-0.34 ms at 13 and 2.3-3.4 ms at 16
#   (marginal cost a step, min of 3-7 runs).  With
#   SPLIT_STEP_OVERHEAD that is near 2-5 s at any register.
# - Krylov step budget: the exact step is a Chebyshev series (a polynomial
#   in H, so still a Krylov-subspace method), whose degree
#   engine.chebyshev_degree sets from the step's reach, its spectral
#   half-width times dt.  validate prices it at an a-priori half-width: by
#   Weyl, (1 - s) driver + s loss has at most (1 - s) n / 2 + s L / 2, so at
#   most max(n, L) / 2, with L from LOSS_RANGE_BOUND (60.5 on the toy model,
#   5 on the binary one; the shipped runs reach 5.8-6.1 and 5).  The price
#   is that of a term when each was one product per driver factor (one at 6
#   qubits, two at 10) and five passes over the state's real pair: 8.5-15 us
#   at 6 qubits and 16-29 us at 10, 9-17 ns per unit of 2**n +
#   CHEBYSHEV_TERM_OVERHEAD (min of 7 anneals of 15 steps, random targets in
#   [-2.5, 2.5], on a host in a slow phase).  A step at dt = 1 kept 19-22
#   terms and took 0.22-0.28 ms at 6 qubits and 0.45-0.64 ms at 10, and at
#   dt = 10 kept 62-77 terms and took 0.53-0.68 and 1.2-1.7 ms.  The budget
#   is near 20-35 s of terms at that price; the toy model's loose loss bound
#   prices its runs 2-4x over their cost.  A term at 6 qubits is now one
#   product with the diagonal folded in and one subtraction, the terms are
#   summed a table at a time, and an anneal builds the step's buffers and
#   each term's calls on them once: measured the same way, 3.3-5.0 us a
#   term at 6 qubits and 14.0-15.8 us at 10, and 0.09 and 0.33 ms a step at
#   dt = 1 (3.9-5.9 us, 15.9-19.6 us, 0.11 and 0.41 ms in the same runs with
#   the buffers built every step).
# - snapshot memory cap: ten thousand states at the dense evolution cap
#   (166 MB), 216 000 at 5 qubits.  Kept states are rows of one array
#   allocated before the first step; beyond the amplitudes, tracemalloc
#   measured 8 B a state on anneal-matrix and tunnel at 10 qubits and on
#   anneal-matrix at 5, and 245 B on tunnel at 5, mostly its timeseries row.
#   A cosine anneal keeps half-size states (mode 0's block); the cap still
#   prices the full register.
# - snapshot row cap: about 1.3 us a density_snapshots.csv row (a default
#   anneal keeping all 501 states, 513 525 rows, took 0.63-0.71 s): near
#   1.1 s.  Rows stream into the file CSV_CHUNK_ROWS at a time, so they hold
#   one chunk, whatever their count: 682 650 rows (665 steps at 5 qubits,
#   all kept) peaked 1.5-1.6 MB max RSS above the same run without them;
#   that run took 0.92-1.10 s.  The cap also bounds the snapshot densities,
#   one inverse FFT a snapshot over stacks of CHUNK_BYTES: 34-45 us a
#   snapshot at 5 qubits and 1025 points, against 1.3 ms for its rows.
#   Tunnel snapshots read no density; their well masses are O(dim**2).
# - grid point cap: one read-out (the inverse FFT, the density and its
#   trapezoid, and density_final.csv where the kind writes one) peaked 60-100
#   MB above import at 2**20 points on tunnel, anneal-matrix and mass-scan,
#   and took 0.4-3.0 s, nearly all of it the CSV at about 2.7 us a row.
#   With rows formatted a chunk at a time, anneal-matrix at 2**20 points
#   took 1.24-1.40 s against 1.98-2.15 s before, 110 MB above import either
#   way.
#   When grid_points - 1 is prime the FFT takes Bluestein's path: 160-200 MB
#   and up to 4 s there.
#: every size limit validate enforces, by the name its messages use:
#: name -> (limit, unit)
LIMITS = {
    "dense evolution cap": (DENSE_EVOLUTION_CAP, ""),
    "dense matrix cap": (MATRIX_QUBIT_CAP, ""),
    "split-step state cap": (16, ""),
    "classical memory cap": (100_000, " runs"),
    "classical time budget": (40_000_000, " run-steps"),
    "curve memory cap": (10_000_000, " draws"),
    "curve time budget": (1_000_000_000, " draws"),
    "toy-data memory cap": (40_000, " rows"),
    "dense step budget": (500_000_000, ""),
    "real-time step budget": (6_000_000_000, ""),
    "dense decomposition budget": (32 * 8**DENSE_EVOLUTION_CAP, ""),
    "split step budget": (2**26, ""),
    "Krylov step budget": (2**31, ""),
    "snapshot memory cap": (10_000 * (16 * 2**DENSE_EVOLUTION_CAP + SNAPSHOT_OVERHEAD_BYTES), " B"),
    "snapshot row cap": (800_000, " rows"),
    "grid point cap": (2**20, " points"),
}

#: the least value of each numeric parameter, and whether that value itself is
#: allowed; a list parameter's bound holds for each of its entries.  tilt, the
#: one numeric parameter missing, need only be finite
LOWER_BOUNDS = {
    **dict.fromkeys(
        ("mass", "masses", "scale", "packet_width", "t_total", "dt", "t_final", "steepness",
         "learning_rate"),
        (0.0, False),
    ),
    "penalty": (0.0, True),
    "packet_center": (0.0, True),
    **dict.fromkeys(
        ("n_steps", "n_values", "n_points", "n_runs", "pool", "repetitions", "grid_probe_side",
         "s_points", "train_steps", "num_qubits"),
        (1, True),
    ),
    **dict.fromkeys(("seed", "split_seed", "first_seed", "snapshot_stride", "max_classes"), (0, True)),
    "grid_points": (2, True),
    # a spectrum's headline is the gap between its two lowest levels
    "k_lowest": (2, True),
}


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of schema validation: filled-in config plus diagnostics."""

    effective: dict
    notes: list
    errors: list

    @property
    def ok(self) -> bool:
        return not self.errors


def _coerce(name: str, value, default, errors: list):
    """Canonicalize one parameter value to the type of its schema default (an
    integral float converts to an integer, an integer to a float, and a list's
    entries follow its first entry's rule), appending any complaint to errors.
    A number must be finite and clear its ``LOWER_BOUNDS`` entry."""
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)) or not value:
            errors.append(f"{name} must be a non-empty list, got {value!r}")
            return value
        return [_coerce(name, entry, default[0], errors) for entry in value]
    if isinstance(default, str):
        if not isinstance(value, str):
            errors.append(f"{name} must be a string, got {value!r}")
        return value
    integer = isinstance(default, int)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or integer and isinstance(value, float) and not value.is_integer():
        errors.append(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
        return value
    try:
        value = int(value) if integer else float(value)
    except OverflowError:  # JSON allows an integer past the float range
        errors.append(f"{name} must be finite, got an integer of {value.bit_length()} bits")
        return value
    least, allowed = LOWER_BOUNDS.get(name, (-math.inf, True))
    if not integer and not math.isfinite(value):
        errors.append(f"{name} must be finite, got {value}")
    elif value < least or value == least and not allowed:
        phrase = f"at least {least}" if least else "non-negative" if allowed else "positive"
        errors.append(f"{name} must be {phrase}, got {value}")
    elif name == "packet_center" and value >= 1.0:
        errors.append(f"{name} must lie in [0, 1), got {value}")
    return value


def validate_config(config) -> ValidationReport:
    """Check a config against its kind's schema without running anything.

    Fills in defaults (reported in notes), rejects unknown keys, enforces
    value ranges, and returns the effective config whose canonical JSON
    defines the config hash.  For the matrix-method kinds the effective
    config lists only the potential parameters the chosen potential uses;
    setting one it ignores is an error.  For enumerate it lists only the
    data parameters the chosen model reads, and for nn-toy and a toy
    enumerate ``band_rule`` only with dataset ``"band"``; a parameter left
    out that the config sets is still checked, and gets a note.  A
    config with no error is then checked against every row of ``LIMITS``
    that its sizes reach (register, classical pool, curve draws, toy rows,
    steps, dense decompositions, grid points, snapshots); each excess is
    reported with its expression, value, limit and unit.
    """
    notes: list = []
    errors: list = []
    if not isinstance(config, dict):
        return ValidationReport({}, notes, ["config must be a JSON object"])
    kind = config.get("kind")
    if not isinstance(kind, str) or kind not in SCHEMAS:
        known = ", ".join(EXPERIMENT_KINDS)
        return ValidationReport({}, notes, [f"unknown kind {kind!r}; expected one of: {known}"])
    schema = SCHEMAS[kind]
    for key in sorted(config):
        if key != "kind" and key not in schema:
            errors.append(f"unknown parameter {key!r} for kind {kind!r}")

    potential = config.get("potential", schema.get("potential"))
    model = config.get("model", schema.get("model"))
    dataset = config.get("dataset", schema.get("dataset"))
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
        reader = MODEL_PARAMETERS.get(name)
        if kind == "enumerate" and reader and model != reader:
            ignored = f"model {model!r}"
        elif name == "band_rule" and dataset != "band":
            ignored = f"dataset {dataset!r}"
        else:
            ignored = None
        if name in config:
            value = config[name]
        elif ignored:
            continue
        else:
            value = default
            notes.append(f"{name} defaulted to {default!r}")
        # a value left out is still checked, so a typo shows before the model or dataset changes
        value = _coerce(name, value, default, errors)
        choices = CHOICES.get((kind, name))
        if choices and value not in choices:
            errors.append(f"{name} must be one of {choices}, got {value!r}")
        if ignored:
            notes.append(f"{name} has no effect with {ignored}; left out")
        else:
            effective[name] = value

    if not errors:
        for expression, value, name in _sizes(effective):
            limit, unit = LIMITS[name]
            if value > limit:
                errors.append(f"{expression} = {value} exceeds the {name} of {limit}{unit}")
                if expression == "num_qubits":
                    break  # 2**num_qubits could be astronomical
    if not errors:
        errors.extend(_construction_errors(effective))
    return ValidationReport(effective, notes, errors)


def _construction_errors(effective: dict) -> list:
    """What a runner would reject while building a config's problem, for a
    config whose sizes are within ``LIMITS``."""
    errors = []
    if effective["kind"] == "tunnel":
        try:
            check_packet_width(effective["packet_width"])
        except ValueError as exc:
            errors.append(f"packet_width {effective['packet_width']}: {exc}")
    if effective["kind"] in ("anneal-matrix", "tunnel"):
        # a run's phases are its energies times a time, and |E| is at most the
        # largest kinetic energy plus the potential's bound; a phase past the
        # float range makes the propagator, and so the headlines, NaN.  Python
        # floats, so an overflow is inf rather than a warning
        top = 2.0 * math.pi * 2 ** (effective["num_qubits"] - 1)
        kinetic, potential = top * top / (2.0 * effective["mass"]), _potential_bound(effective)
        if effective["kind"] == "anneal-matrix":
            # H(s) = K + s V is taken at the steps' s = k / n_steps < 1, or, in a
            # panel of more steps than nodes, at interpolation nodes below 1; a
            # potential that is not finite still fails
            steps = effective["n_steps"]
            potential *= (steps - 1) / steps if steps <= DENSE_PANEL_NODES else 1.0
            time = effective["t_final"] / steps
            what = f"t_final / n_steps = {effective['t_final']:g} / {steps}"
        else:  # the engine keeps the last state at its step count times dt
            t_total, dt = effective["t_total"], effective["dt"]
            time = max(1, round(t_total / dt)) * dt
            what = f"t_total {t_total:g} at dt {dt:g} ends at {time:g}, which"
        if not math.isfinite(time * (kinetic + potential)):
            errors.append(f"{what} times the bound {kinetic:.4g} + {potential:.4g} on |H| overflows")
    if effective["kind"] == "spectrum" and effective["k_lowest"] > 2 ** effective["num_qubits"]:
        errors.append(
            f"k_lowest {effective['k_lowest']} exceeds the 2**num_qubits = "
            f"{2 ** effective['num_qubits']} eigenvalues of the register"
        )
    if effective["kind"] in ("anneal-paulispin", "spectrum"):
        try:
            _, _, objective = _paulispin_objective(effective)
        except ValueError as exc:
            errors.append(str(exc))
        else:  # a split step's phases are s * dt times the objective, s <= 1
            dt = effective["t_final"] / effective["n_steps"] if "t_final" in effective else 0.0
            if not math.isfinite(float(np.abs(objective).max()) * dt):
                errors.append(
                    f"potential {effective['potential']!r} times scale {effective['scale']:g} times "
                    f"t_final / n_steps = {effective['t_final']:g} / {effective['n_steps']} overflows"
                )
    if effective["kind"] == "mass-scan" and len(effective["masses"]) < 2:
        errors.append(f"masses must list at least two to fit an exponent, got {effective['masses']}")
    if effective["kind"] in ("classical-pool", "accuracy-curves"):
        runs = "n_runs" if effective["kind"] == "classical-pool" else "pool"
        last = effective["first_seed"] + effective[runs] - 1
        if last >= 2**64:
            errors.append(f"first_seed + {runs} - 1 = {last} exceeds the largest seed 2**64 - 1")
    return errors


def _potential_bound(effective: dict) -> float:
    """``|V(0)| + 2 sum_{k>0} |V(k)|`` over the register's modes: a bound on
    the norm of the potential's Toeplitz matrix."""
    potential = _matrix_potential(effective)
    return abs(potential.fourier_coefficient(0)) + 2 * sum(
        abs(potential.fourier_coefficient(k)) for k in range(1, 2 ** effective["num_qubits"])
    )


def _per_step(total: float, n_steps: int) -> float:
    """``total / n_steps`` for a step count of any size: JSON allows an
    integer past the float range, which a float division cannot convert.
    The quotient of the exact ratio is correctly rounded, as a float
    division's is."""
    if not math.isfinite(total):
        return total
    numerator, denominator = total.as_integer_ratio()
    return numerator / (denominator * n_steps)


def _sizes(effective: dict):
    """``(expression, value, limit name)`` of each size a valid config asks for.

    The register size comes first, so a caller can stop before any
    ``2**num_qubits`` of an oversized register is computed.
    """
    kind = effective["kind"]
    if kind in _REGISTER_CAPS:
        yield "num_qubits", effective["num_qubits"], _REGISTER_CAPS[kind]
        dim = 2 ** effective["num_qubits"]
    if kind in ("classical-pool", "accuracy-curves"):
        runs, steps = ("n_runs", "n_steps") if kind == "classical-pool" else ("pool", "train_steps")
        yield runs, effective[runs], "classical memory cap"
        yield (
            f"{runs} * {steps} + {CLASSICAL_STEP_OVERHEAD} * {steps}",
            (effective[runs] + CLASSICAL_STEP_OVERHEAD) * effective[steps],
            "classical time budget",
        )
    if kind == "accuracy-curves":
        repetitions, n_values = effective["repetitions"], effective["n_values"]
        yield "repetitions * max(n_values)", repetitions * max(n_values), "curve memory cap"
        yield "repetitions * sum(n_values)", repetitions * sum(n_values), "curve time budget"
    if kind == "nn-toy" or effective.get("model") == "toy":
        yield "n_points", effective["n_points"], "toy-data memory cap"
    if kind == "nn-toy":
        yield "grid_probe_side**2", effective["grid_probe_side"] ** 2, "toy-data memory cap"
    if kind in ("nn-toy", "nn-binary", "accuracy-curves"):
        model = "toy" if kind == "nn-toy" else "binary"
        network = toy_two_layer_model() if model == "toy" else binary_pixel_model()
        qubits = len(network.variable_names)
        half_width = max(qubits, LOSS_RANGE_BOUND[model]) / 2.0
        # a reach past 1e300 is over the budget at any step count and register
        reach = min(_per_step(half_width * effective["t_final"], effective["n_steps"]), 1e300)
        yield (
            f"n_steps * (chebyshev_degree({half_width:g} * t_final / n_steps) + 1) "
            f"* (2**{qubits} + {CHEBYSHEV_TERM_OVERHEAD})",
            effective["n_steps"] * (chebyshev_degree(reach) + 1) * (2**qubits + CHEBYSHEV_TERM_OVERHEAD),
            "Krylov step budget",
        )
    if kind == "anneal-paulispin":
        yield (
            f"n_steps * 2**num_qubits + {SPLIT_STEP_OVERHEAD} * n_steps",
            effective["n_steps"] * (dim + SPLIT_STEP_OVERHEAD),
            "split step budget",
        )
    if kind == "spectrum":
        yield (
            f"s_points * 8**num_qubits + {SPECTRUM_POINT_OVERHEAD} * s_points",
            effective["s_points"] * (dim**3 + SPECTRUM_POINT_OVERHEAD),
            "dense decomposition budget",
        )
    if kind == "mass-scan":
        masses = len(effective["masses"])
        yield "len(masses) * 8**num_qubits", masses * dim**3, "dense decomposition budget"
    if "grid_points" in effective:
        grid = effective["grid_points"]
        yield "grid_points", grid, "grid point cap"
    if kind == "anneal-matrix":
        steps, stride = effective["n_steps"], effective["snapshot_stride"]
        yield (
            f"n_steps * 4**num_qubits + {DENSE_STEP_OVERHEAD} * n_steps",
            steps * (dim**2 + DENSE_STEP_OVERHEAD),
            "dense step budget",
        )
        bound = _potential_bound(effective)
        # past n_steps panels every step decomposes, and so it does at a NaN reach
        # (a potential that overflows); the cap keeps ceil finite
        reach = _per_step(effective["t_final"], steps) * bound
        reach = reach if reach < steps else steps
        decompositions = min(steps, DENSE_PANEL_NODES * max(1, math.ceil(reach)))
        yield (
            f"min(n_steps, {DENSE_PANEL_NODES} * ceil(t_final / n_steps * {bound:.4g})) "
            "* 8**num_qubits",
            decompositions * dim**3,
            "dense decomposition budget",
        )
        # at stride 0 the engine keeps the initial and final states
        snapshots = snapshot_count(steps, stride or steps)
        kept = "(1 + ceil(n_steps / snapshot_stride))" if stride else "2"
    elif kind == "tunnel":
        # the engine's step count; a tunnel run keeps every step at stride 0
        ratio, stride = effective["t_total"] / effective["dt"], effective["snapshot_stride"]
        if math.isfinite(ratio):
            snapshots = snapshot_count(max(1, round(ratio)), max(1, stride))
        else:
            snapshots = ratio  # an overflowing step count stays inf and fails the budget
        kept = "(1 + ceil(round(t_total / dt) / snapshot_stride))" if stride else "(1 + round(t_total / dt))"
        # each kept state is evaluated in closed form, one dim**2 product; no step loop runs
        yield f"{kept} * 4**num_qubits", snapshots * dim**2, "real-time step budget"
    else:
        return
    yield (
        f"{kept} * (16 * 2**num_qubits + {SNAPSHOT_OVERHEAD_BYTES})",
        snapshots * (16 * dim + SNAPSHOT_OVERHEAD_BYTES),
        "snapshot memory cap",
    )
    if kind == "anneal-matrix" and stride:
        yield f"{kept} * grid_points", snapshots * grid, "snapshot row cap"


def config_hash(effective: dict) -> str:
    """Digest of the canonical effective config; stamped into every output."""
    canonical = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:16]


# -- deterministic file emission -------------------------------------------------------

@contextmanager
def _replacing(path):
    """A temporary sibling of ``path``, renamed onto it on success and removed
    on failure."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def atomic_write_text(path, text: str):
    """Write via a temporary sibling and rename, so readers never see partials."""
    with _replacing(path) as tmp:
        tmp.write_text(text, encoding="utf-8")


def _conversion(value) -> str:
    """The ``%`` conversion of one CSV cell: integers and booleans as ``%d``,
    floats at repr-exact ``%.17g``, anything else as ``%s``."""
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return "%d"
    if isinstance(value, (float, np.floating)):
        return "%.17g"
    return "%s"


#: CSV rows formatted by one ``%`` of the row template repeated: one call and
#: one type pass a chunk instead of a row (a 1025-row density file took
#: 0.87-0.93 instead of 1.25-1.34 ms, and 256 to 4096 rows read alike), while
#: the writer holds one chunk's rows, cells and text, about 230 kB traced at
#: three float cells a row, however many rows the file has
CSV_CHUNK_ROWS = 1024


def write_csv(path, experiment: str, cfg_hash: str, columns, rows, extra_header=None):
    """CSV with ``# key = value`` headers; floats at repr-exact precision.

    Every row is formatted with one ``%`` template taken from the first
    row's cell types.  A later row whose cell types change, say a float
    where the template has ``%d``, raises ``TypeError`` rather than being
    written under the wrong conversion.  Rows are streamed into the file
    ``CSV_CHUNK_ROWS`` at a time, each chunk by one ``%`` of the template
    repeated, so ``rows`` may be a generator and the text is never held
    whole.
    """
    header = [f"# experiment = {experiment}", f"# config_hash = {cfg_hash}"]
    header += [f"# {key} = {value}" for key, value in (extra_header or {}).items()]
    header.append(",".join(columns))
    rows = iter(rows)
    first = next(rows, None)
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as handle:
        handle.write("\n".join(header) + "\n")
        if first is None:
            return
        conversions = tuple(map(_conversion, first))
        template = ",".join(conversions) + "\n"
        types = tuple(map(type, first))
        chunk = [first, *itertools.islice(rows, CSV_CHUNK_ROWS - 1)]
        while chunk:
            cells = tuple(itertools.chain.from_iterable(chunk))
            # a chunk with a row of another width (a short row next to a long
            # one can line the cells up) or cells not all of the first row's
            # types is checked row by row
            if set(map(len, chunk)) != {len(types)} or tuple(map(type, cells)) != types * len(chunk):
                for row in map(tuple, chunk):
                    if tuple(map(type, row)) != types and tuple(map(_conversion, row)) != conversions:
                        raise TypeError(f"CSV row {row!r} does not match the template {template!r}")
            handle.write(template * len(chunk) % cells)
            chunk = list(itertools.islice(rows, CSV_CHUNK_ROWS))


def write_json(path, payload: dict):
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


@dataclass
class _Output:
    """A run's output directory: each data file is stamped with the run's
    kind and config hash, and its name is recorded in ``files``."""

    path: Path
    kind: str
    cfg_hash: str
    files: list = field(default_factory=list)

    def _target(self, name: str) -> Path:
        self.files.append(name)
        return self.path / name

    def _stamp(self, entries: dict) -> dict:
        return {"experiment": self.kind, "config_hash": self.cfg_hash, **entries}

    def csv(self, name: str, columns, rows, extra_header=None):
        write_csv(self._target(name), self.kind, self.cfg_hash, columns, rows, extra_header)

    def json(self, name: str, payload: dict):
        write_json(self._target(name), self._stamp(payload))

    def dataset(self, name: str, dataset, header: dict):
        with _replacing(self._target(name)) as tmp:
            write_dataset_csv(tmp, dataset, self._stamp(header))


# -- shared construction ----------------------------------------------------------------

def _matrix_potential(effective: dict) -> Potential:
    name = effective["potential"]
    if name == "cosine":
        return Potential(VarPolynomial.constant(1.0), 1.0)
    if name == "tilted-cosine":
        return Potential(1.0 + effective["tilt"] * VarPolynomial.variable("w"), 1.0)
    return Potential(quartic_polynomial(effective["scale"]))


def _objective_polynomial(effective: dict) -> VarPolynomial:
    """Scaled objective for the Pauli-spin kinds, in one named variable."""
    if effective["potential"] == "quartic":
        return quartic_polynomial(effective["scale"])
    return parse_polynomial(effective["potential"]) * effective["scale"]


def _paulispin_objective(effective: dict):
    """The objective's variable, that variable's value on each basis state of
    the fractional register, and the objective's value there.

    Raises ``ValueError``, naming ``potential``, if the objective does not
    parse, does not have exactly one variable, or is not finite on the grid;
    ``validate`` calls it too.
    """
    scaled = f"potential {effective['potential']!r} times scale {effective['scale']:g}"
    try:
        poly = _objective_polynomial(effective)
    except ValueError as exc:
        raise ValueError(f"potential {effective['potential']!r} does not parse: {exc}") from None
    if len(poly.variables) != 1:
        raise ValueError(f"{scaled} must use exactly one variable")
    (variable,) = poly.variables
    bits = effective["num_qubits"]
    columns = EncodingTable([(variable, Grid(bits, 0, 0, 2**-bits))]).decode_columns()
    # a coefficient that overflows to inf gives inf * 0 = NaN at w = 0
    with np.errstate(over="ignore", invalid="ignore"):
        objective = poly.evaluate(columns)
    if not np.isfinite(objective).all():
        raise ValueError(f"{scaled} is not finite on the {2**bits}-point grid of {bits} qubits")
    return variable, columns[variable], objective


@dataclass(frozen=True)
class _Network:
    """A model with its weight encoding, data and loss, and the loss and
    accuracies of every weight configuration."""

    model: ModelSpec
    table: EncodingTable
    train: Dataset
    test: Dataset
    loss_kind: str
    weightspace: WeightspaceTable


def _network(effective: dict) -> _Network:
    """The toy model (+-1 weights, MSE, its 2-D dataset as both train and test
    set) for nn-toy and toy enumerate; otherwise the binary pixel model (0/1
    weights, linear-binary loss, the balanced pixel split)."""
    if effective["kind"] == "nn-toy" or effective.get("model") == "toy":
        if effective["dataset"] == "circle":
            train = circle_dataset(effective["n_points"], effective["seed"])
        else:
            train = band_dataset(effective["n_points"], effective["seed"], effective["band_rule"])
        test, model, encoding, loss_kind = train, toy_two_layer_model(), "spin-pm1", "mse"
    else:
        train, test = balanced_pixel_split(effective["split_seed"])
        model, encoding, loss_kind = binary_pixel_model(), "binary01", "linear-binary"
    table = model_encoding_table(model, encoding)
    weightspace = enumerate_weightspace(model, table, train, test, loss_kind)
    return _Network(model, table, train, test, loss_kind, weightspace)


def _nn_anneal(losses: np.ndarray, effective: dict) -> np.ndarray:
    """Final basis-state probabilities of the anneal into the diagonal
    Hamiltonian of the enumerated ``losses``, by exact steps (each the
    Chebyshev series of its propagator).

    The coarse schedules used for the network runs (10 to 20 steps) need the
    exact per-step exponential of the whole interpolated Hamiltonian;
    splitting the driver and target factors at that step count visibly
    distorts the final populations.
    """
    num_qubits = losses.size.bit_length() - 1
    spec = AnnealSpec(
        driver=transverse_driver(num_qubits),
        target=losses,
        t_final=effective["t_final"],
        n_steps=effective["n_steps"],
        substeps_per_step=None,
        snapshot_stride=effective["n_steps"],
    )
    final = evolve_adiabatic(spec, uniform_state(num_qubits)).states[-1]
    return np.abs(final) ** 2


#: a loss this close to the enumerated minimum counts as optimal
OPTIMUM_TOL = 1e-9


def _optimum_probability(losses: np.ndarray, probabilities: np.ndarray) -> float:
    """P(opt): the final probability summed over every basis state whose loss
    is within ``OPTIMUM_TOL`` of the minimum."""
    return float(probabilities[losses <= losses.min() + OPTIMUM_TOL].sum())


def _network_headline(effective: dict, out: _Output, net: _Network, probe, **grouping):
    """Anneal into the network's loss, write its degeneracy classes on
    ``probe`` to classes.json, and return the headline entries both network
    kinds report, the final probabilities and the classes."""
    losses = net.weightspace.losses
    probabilities = _nn_anneal(losses, effective)
    classes = group_degenerate(net.model, net.table, probabilities, probe, losses, **grouping)
    stats = term_stats(net.model, net.train, losses)
    rows = [
        {
            "bitstring": cls.bitstring,
            "probability": cls.probability,
            "energy": cls.energy,
            "degeneracy": cls.degeneracy,
            "prediction_hash": cls.prediction_hash,
            "weights": cls.weights,
        }
        for cls in classes[: effective["max_classes"] or None]
    ]
    out.json("classes.json", {"classes": rows})
    optimum = float(losses[net.weightspace.optimum_index()])
    headline = {
        "top_class_probability": classes[0].probability,
        "top_class_energy": classes[0].energy,
        "top_matches_optimum": bool(abs(classes[0].energy - optimum) <= OPTIMUM_TOL),
        "optimum_loss": optimum,
        "optimum_probability": _optimum_probability(losses, probabilities),
        "network_term_count": stats.network_term_count,
        "hamiltonian_term_count": stats.hamiltonian_term_count,
        "term_bounds_ok": bool(stats.within_bounds),
    }
    return headline, probabilities, classes


def _classical_pool(effective: dict, net: _Network, runs: int, steps: int):
    """``runs`` relaxed Adam runs of ``steps`` steps from consecutive seeds:
    their trained weights, their weights binarized at 1/2, the share of runs
    whose binarized weights are their initial weights rounded at 1/2, and the
    enumerated train and test accuracy of each binarized run."""
    relaxed = RelaxedModel(net.model, steepness=effective["steepness"], penalty=effective["penalty"])
    seeds = range(effective["first_seed"], effective["first_seed"] + runs)
    initial, weights = train_pool(
        relaxed, net.train, seeds, n_steps=steps, learning_rate=effective["learning_rate"]
    )
    binary = np.where(weights >= 0.5, 1, 0)
    pinned = float(np.mean(np.all(binary == (initial >= 0.5), axis=1)))
    indices = net.table.index_of(dict(zip(net.table.names, binary.T)))
    accuracy = net.weightspace.train_accuracy[indices], net.weightspace.test_accuracy[indices]
    return weights, binary, pinned, *accuracy


# -- runners -------------------------------------------------------------------------

def _run_tunnel(effective, out: _Output):
    truncation = MomentumTruncation(effective["num_qubits"])
    problem = SchrodingerProblem(_matrix_potential(effective), effective["mass"], truncation)
    packet = gaussian_packet(
        effective["packet_center"], effective["packet_width"], truncation
    )
    result = evolve_real_time(
        problem.hamiltonian(),
        packet,
        effective["t_total"],
        effective["dt"],
        max(1, effective["snapshot_stride"]),
    )
    masses = window_masses(
        result.states, effective["grid_points"], (lambda w: w < 0.5, lambda w: w >= 0.5)
    )
    rows = [(t, left, right) for t, (left, right) in zip(result.times.tolist(), masses.tolist())]
    out.csv("timeseries.csv", ("time", "mass_left", "mass_right"), rows)
    w, density = momentum_to_position(result.states[-1], effective["grid_points"])
    out.csv("density_final.csv", ("w", "density"), zip(w.tolist(), density.tolist()))

    started_left = effective["packet_center"] < 0.5
    other = [row[2] if started_left else row[1] for row in rows]
    peak = int(np.argmax(other))
    return {
        "initial_well": "left" if started_left else "right",
        "max_other_well_mass": float(other[peak]),
        "time_of_max_transfer": float(rows[peak][0]),
        "final_other_well_mass": float(other[-1]),
    }


def _embedded(states: np.ndarray, block: np.ndarray, dim: int) -> np.ndarray:
    """A state (or a stack of them) over the modes of ``block``, with zeros
    in every other mode of the full register of ``dim`` modes."""
    full = np.zeros(states.shape[:-1] + (dim,), dtype=complex)
    full[..., block] = states
    return full


def _run_anneal_matrix(effective, out: _Output):
    truncation = MomentumTruncation(effective["num_qubits"])
    problem = SchrodingerProblem(_matrix_potential(effective), effective["mass"], truncation)
    target = problem.hamiltonian()
    sectors = problem.sectors()
    # the anneal starts in mode 0, and neither Hamiltonian couples mode 0's
    # block to another, so it evolves in that block alone
    block = sectors[0]
    pick = np.ix_(block, block)
    stride = effective["snapshot_stride"] or effective["n_steps"]
    spec = AnnealSpec(
        driver=problem.kinetic_matrix()[pick],
        target=target[pick],
        t_final=effective["t_final"],
        n_steps=effective["n_steps"],
        snapshot_stride=stride,
    )
    # mode 0's place in the block, whose indices ascend
    start = int(np.searchsorted(block, truncation.index_of(0)))
    result = evolve_adiabatic(spec, basis_state(spec.num_qubits, start))
    final = _embedded(result.states[-1], block, truncation.dim)

    grid = effective["grid_points"]
    w, density = momentum_to_position(final, grid)
    # Python floats format faster than numpy scalars, to the same text; a
    # snapshot converts one row at a time, as a chunk of them is 4x its array
    w_cells = w.tolist()
    out.csv("density_final.csv", ("w", "density"), zip(w_cells, density.tolist()))
    if effective["snapshot_stride"]:
        def rows():
            # a chunk of snapshots is embedded in the full register at a time
            chunk = max(1, CHUNK_BYTES // (16 * max(grid, truncation.dim)))
            for first in range(0, len(result.times), chunk):
                states = _embedded(result.states[first : first + chunk], block, truncation.dim)
                _, densities = momentum_to_position(states, grid)
                for t, snap_density in zip(result.times[first : first + chunk].tolist(), densities):
                    yield from zip([t] * grid, w_cells, snap_density.tolist())

        out.csv("density_snapshots.csv", ("time", "w", "density"), rows())

    left = density * (w < 0.5)
    right = density * (w >= 0.5)
    peak_left, peak_right = int(np.argmax(left)), int(np.argmax(right))
    energy0, ground = ground_state(target, sectors)
    true_minimum = (
        matrix_method.QUARTIC_TRUE_MINIMUM if effective["potential"] == "quartic" else 0.25
    )
    # capture window of one well: +-0.1 around the intended minimum
    window = np.abs(w - true_minimum) < 0.1
    return {
        "peak_left_w": float(w[peak_left]),
        "peak_left_height": float(density[peak_left]),
        "peak_right_w": float(w[peak_right]),
        "peak_right_height": float(density[peak_right]),
        "peak_height_rel_diff": float(
            abs(density[peak_left] - density[peak_right])
            / max(density[peak_left], density[peak_right])
        ),
        "mass_near_true_minimum": float(np.trapezoid(np.where(window, density, 0.0), w)),
        "ground_energy": energy0,
        "ground_overlap": float(abs(np.vdot(ground, final)) ** 2),
    }


def _run_anneal_paulispin(effective, out: _Output):
    variable, values, objective = _paulispin_objective(effective)
    num_qubits = effective["num_qubits"]
    spec = AnnealSpec(
        driver=transverse_driver(num_qubits),
        target=objective,
        t_final=effective["t_final"],
        n_steps=effective["n_steps"],
        snapshot_stride=effective["n_steps"],
    )
    final = evolve_adiabatic(spec, uniform_state(num_qubits)).states[-1]
    probabilities = np.abs(final) ** 2
    order = np.argsort(values)
    bins = [
        {
            "w": float(values[i]),
            "bitstring": report_bitstring(int(i), num_qubits),
            "probability": float(probabilities[i]),
        }
        for i in order
    ]
    bin_width = 0.5**num_qubits
    out.json("histogram.json", {"variable": variable, "bin_width": bin_width, "bins": bins})
    top = int(np.argmax(probabilities))
    return {
        "top_bin_w": float(values[top]),
        "top_bin_probability": float(probabilities[top]),
        "top_bitstring": report_bitstring(top, num_qubits),
        "bin_width": bin_width,
        # argmin over ascending w, so ties go to the smallest w
        "objective_minimum_w": float(values[order[np.argmin(objective[order])]]),
    }


def _run_nn_toy(effective, out: _Output):
    net = _network(effective)
    # the probe is the training rows, already forwarded, then the grid
    headline, _, classes = _network_headline(
        effective,
        out,
        net,
        grid_probe(effective["grid_probe_side"]),
        leading_outputs=net.weightspace.train_outputs,
    )
    out.dataset("dataset.csv", net.train, {"dataset": effective["dataset"], "seed": effective["seed"]})
    top = classes[0]
    return headline | {
        "top_class_bitstring": top.bitstring,
        "top_class_degeneracy": top.degeneracy,
        "top_class_train_accuracy": float(net.weightspace.train_accuracy[top.representative_index]),
    }


def _run_nn_binary(effective, out: _Output):
    net = _network(effective)
    headline, probabilities, _ = _network_headline(effective, out, net, pixel_images().features)
    out.dataset("train.csv", net.train, {"split_seed": effective["split_seed"]})
    out.dataset("test.csv", net.test, {"split_seed": effective["split_seed"]})
    top_state = int(np.argmax(np.round(probabilities, PROBABILITY_DECIMALS)))
    return headline | {
        "top_state_bitstring": report_bitstring(top_state, net.table.total_qubits),
        "top_state_probability": float(probabilities[top_state]),
        "top_state_train_accuracy": float(net.weightspace.train_accuracy[top_state]),
        "top_state_test_accuracy": float(net.weightspace.test_accuracy[top_state]),
        "perfect_fraction": net.weightspace.perfect_fraction(),
    }


def _run_spectrum(effective, out: _Output):
    _, _, objective = _paulispin_objective(effective)
    s_values = np.linspace(0.0, 1.0, effective["s_points"])
    driver = transverse_driver(effective["num_qubits"])
    curves = instantaneous_spectrum(driver, objective, s_values, effective["k_lowest"])
    columns = ("s",) + tuple(f"e{k}" for k in range(curves.shape[1]))
    out.csv("spectrum.csv", columns, ((s, *row) for s, row in zip(s_values.tolist(), curves.tolist())))
    gaps = curves[:, 1] - curves[:, 0]
    tightest = int(np.argmin(gaps))
    return {
        "min_gap": float(gaps[tightest]),
        "s_at_min_gap": float(s_values[tightest]),
        "final_ground_energy": float(curves[-1, 0]),
    }


def _run_mass_scan(effective, out: _Output):
    truncation = MomentumTruncation(effective["num_qubits"])
    cosine = Potential(VarPolynomial.constant(1.0), 1.0)
    problems = [SchrodingerProblem(cosine, mass, truncation) for mass in effective["masses"]]
    # the potential matrix does not depend on the mass; each mass adds its kinetic diagonal
    potential = problems[0].potential_matrix()
    sectors = problems[0].sectors()
    rows = []
    peaks = []
    for problem in problems:
        hamiltonian = potential.copy()
        hamiltonian.reshape(-1)[:: truncation.dim + 1] += problem.kinetic_energies()
        _, vector = ground_state(hamiltonian, sectors)
        w, density = momentum_to_position(vector, effective["grid_points"])
        peak = int(np.argmax(density))
        rows.append((problem.mass, float(w[peak]), float(density[peak])))
        peaks.append(float(density[peak]))
    out.csv("scan.csv", ("mass", "peak_w", "peak_density"), rows)
    return {
        "exponent": mass_scaling_exponent(effective["masses"], peaks),
        "harmonic_exponent": 0.25,
    }


def _run_classical_pool(effective, out: _Output):
    net = _network(effective)
    weights, binary, pinned, train_acc, test_acc = _classical_pool(
        effective, net, effective["n_runs"], effective["n_steps"]
    )
    columns = ("seed", *net.model.variable_names, "train_accuracy", "test_accuracy")
    seeds = range(effective["first_seed"], effective["first_seed"] + len(binary))
    rows = zip(seeds, binary.tolist(), train_acc.tolist(), test_acc.tolist())
    out.csv("pool.csv", columns, [(seed, *bits, ta, va) for seed, bits, ta, va in rows])
    distance = np.minimum(np.abs(weights), np.abs(weights - 1.0))
    return {
        "mean_train_accuracy": float(train_acc.mean()),
        "mean_test_accuracy": float(test_acc.mean()),
        "max_train_accuracy": float(train_acc.max()),
        "near_binary_fraction": float(np.mean(distance <= 0.1)),
        "pinned_fraction": pinned,
    }


def _run_accuracy_curves(effective, out: _Output):
    net = _network(effective)
    probabilities = _nn_anneal(net.weightspace.losses, effective)
    _, q_train, q_test = sample_pool(probabilities, net.weightspace, effective["pool"], effective["seed"])
    _, _, pinned, c_train, c_test = _classical_pool(
        effective, net, effective["pool"], effective["train_steps"]
    )

    columns = ("n", "train_mean", "train_std", "test_mean", "test_std")
    n_values = effective["n_values"]
    quantum = accuracy_vs_runs(q_train, q_test, n_values, effective["repetitions"], effective["seed"])
    classical = accuracy_vs_runs(c_train, c_test, n_values, effective["repetitions"], effective["seed"])
    out.csv("curves_quantum.csv", columns, quantum)
    out.csv("curves_classical.csv", columns, classical)

    ordering = all(
        q[1] > c[1] for q, c, n in zip(quantum, classical, n_values) if n >= 2
    )
    by_n = {int(n): float(row[1]) for n, row in zip(n_values, quantum)}
    return {
        "optimum_probability": _optimum_probability(net.weightspace.losses, probabilities),
        "quantum_pool_train_mean": float(np.mean(q_train)),
        "classical_pool_train_mean": float(np.mean(c_train)),
        "quantum_train_mean_n8": by_n.get(8),
        "classical_plateau_train_mean": float(classical[-1][1]),
        "quantum_above_classical_from_n2": bool(ordering),
        "pinned_fraction": pinned,
    }


def _run_enumerate(effective, out: _Output):
    net = _network(effective)
    weightspace, n = net.weightspace, net.table.total_qubits
    columns = weightspace.losses, weightspace.train_accuracy, weightspace.test_accuracy
    rows = [
        (index, report_bitstring(index, n), *values)
        for index, values in enumerate(zip(*(column.tolist() for column in columns)))
    ]
    out.csv(
        "weightspace.csv",
        ("index", "bitstring", "loss", "train_accuracy", "test_accuracy"),
        rows,
        extra_header={"loss_kind": net.loss_kind},
    )
    optimum = weightspace.optimum_index()
    return {
        "n_configurations": 2**n,
        "optimum_index": optimum,
        "optimum_bitstring": report_bitstring(optimum, n),
        "optimum_loss": float(weightspace.losses[optimum]),
        "optimum_train_accuracy": float(weightspace.train_accuracy[optimum]),
        "optimum_test_accuracy": float(weightspace.test_accuracy[optimum]),
        "perfect_fraction": weightspace.perfect_fraction(),
    }


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
    out = _Output(Path(out_dir), effective["kind"], config_hash(effective))
    out.path.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    headline = _RUNNERS[out.kind](effective, out)
    wall = time.perf_counter() - start

    summary = {
        "experiment": out.kind,
        "config_hash": out.cfg_hash,
        "effective_config": effective,
        "headline": headline,
        "files": sorted(out.files),
        "wall_time_s": round(wall, 3),
    }
    write_json(out.path / "summary.json", summary)
    return ExperimentResult(out.kind, out.cfg_hash, summary, tuple(sorted(out.files + ["summary.json"])))

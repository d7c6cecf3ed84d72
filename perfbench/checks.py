"""Correctness checks on one config run's output files, run after the timed pass.

Each check reads what the program wrote and recomputes what it can from an
independent path (a fresh weight-space enumeration for the network runs).
Byte digests are not compared: a change of propagator may move data files
at the 1e-14 level without being wrong.

Reference headlines (``reference.json``) hold the numeric headline values
of the shipped configs.  They apply to every run whose generated config is
the shipped one (all runs of an unseeded config, seed 0 of a seeded one).
Floats must agree within ``REL_TOL`` relative plus ``ABS_TOL`` absolute,
far above the 1e-14 shift a different but exact propagator gives, far
below any change of physics.
The tilted well is compared with its measured window mass (0.658), not
with the 0.80 the acceptance test asks for.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from aqtrain import datasets, nn
from aqtrain.encodings import index_of_report_bitstring
from aqtrain.experiments import config_hash, validate_config

REL_TOL = 1e-9
ABS_TOL = 1e-12
#: probabilities written by a run sum to one within this
SUM_TOL = 1e-9
#: a class energy equals an enumerated loss within this (compile vs numeric)
ENERGY_TOL = 1e-9


def _rows(path: Path) -> list:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def _fresh_weightspace(effective: dict):
    """Enumerate the run's weight space again from the public aqtrain API."""
    kind = effective["kind"]
    if kind == "nn-toy" or (kind == "enumerate" and effective["model"] == "toy"):
        if effective["dataset"] == "circle":
            data = datasets.circle_dataset(effective["n_points"], effective["seed"])
        else:
            data = datasets.band_dataset(effective["n_points"], effective["seed"], effective["band_rule"])
        model = nn.toy_two_layer_model()
        table = nn.model_encoding_table(model, "spin-pm1")
        return nn.enumerate_weightspace(model, table, data, data, "mse")
    train, test = datasets.balanced_pixel_split(effective["split_seed"])
    model = nn.binary_pixel_model()
    table = nn.model_encoding_table(model, "binary01")
    return nn.enumerate_weightspace(model, table, train, test, "linear-binary")


def _check_nn(effective, headline, out: Path, problems: list) -> float:
    classes = json.loads((out / "classes.json").read_text())["classes"]
    total = sum(c["probability"] for c in classes)
    if abs(total - 1.0) > SUM_TOL:
        problems.append(f"class probabilities sum to {total!r}")
    weightspace = _fresh_weightspace(effective)
    optimum = float(weightspace.losses.min())
    if not _close(headline["optimum_loss"], optimum):
        problems.append(f"optimum_loss {headline['optimum_loss']!r} != enumerated {optimum!r}")
    for c in classes:
        enumerated = weightspace.losses[index_of_report_bitstring(c["bitstring"])]
        if abs(c["energy"] - enumerated) > ENERGY_TOL:
            problems.append(f"class {c['bitstring']} energy {c['energy']!r} != loss {enumerated!r}")
            break
    if headline["term_bounds_ok"] is not True:
        problems.append("term_bounds_ok is false")
    best = headline["optimum_loss"]
    return sum(c["probability"] for c in classes if abs(c["energy"] - best) <= ENERGY_TOL)


def _check_density(out: Path, name: str, problems: list):
    rows = _rows(out / name)
    w = np.array([float(r["w"]) for r in rows])
    density = np.array([float(r["density"]) for r in rows])
    mass = float(np.trapezoid(density, w))
    if abs(mass - 1.0) > SUM_TOL:
        problems.append(f"{name} integrates to {mass!r}")


def _check_kind(effective, headline, out: Path, problems: list):
    """Kind-specific checks; returns the run's success probability or None."""
    kind = effective["kind"]
    if kind in ("nn-toy", "nn-binary"):
        return _check_nn(effective, headline, out, problems)
    if kind == "anneal-matrix":
        _check_density(out, "density_final.csv", problems)
        overlap = headline["ground_overlap"]
        if not 0.0 <= overlap <= 1.0 + SUM_TOL:
            problems.append(f"ground_overlap {overlap!r} outside [0, 1]")
        return overlap
    if kind == "tunnel":
        _check_density(out, "density_final.csv", problems)
    elif kind == "anneal-paulispin":
        bins = json.loads((out / "histogram.json").read_text())["bins"]
        total = sum(b["probability"] for b in bins)
        if abs(total - 1.0) > SUM_TOL:
            problems.append(f"histogram probabilities sum to {total!r}")
    elif kind == "spectrum":
        for row in _rows(out / "spectrum.csv"):
            levels = [float(v) for k, v in row.items() if k != "s"]
            if levels != sorted(levels):
                problems.append(f"spectrum row at s={row['s']} is not ascending")
                break
    elif kind == "mass-scan":
        if len(_rows(out / "scan.csv")) != len(effective["masses"]) or not math.isfinite(headline["exponent"]):
            problems.append("mass scan incomplete")
    elif kind == "classical-pool":
        rows = _rows(out / "pool.csv")
        train = np.array([float(r["train_accuracy"]) for r in rows])
        if len(rows) != effective["n_runs"]:
            problems.append(f"pool has {len(rows)} runs, expected {effective['n_runs']}")
        elif not _close(headline["mean_train_accuracy"], float(train.mean())):
            problems.append("mean_train_accuracy does not match pool.csv")
        # no anneal here: the classical counterpart is the chance that one
        # binarized run labels one training image correctly
        return headline["mean_train_accuracy"]
    elif kind == "enumerate":
        rows = _rows(out / "weightspace.csv")
        losses = np.array([float(r["loss"]) for r in rows])
        fresh = _fresh_weightspace(effective)
        if len(rows) != headline["n_configurations"] or not np.allclose(losses, fresh.losses, rtol=REL_TOL, atol=ABS_TOL):
            problems.append("weightspace.csv does not match a fresh enumeration")
        elif not _close(headline["optimum_loss"], float(losses.min())):
            problems.append("optimum_loss is not the table minimum")
    return None


def _check_reference(headline: dict, reference: dict, problems: list):
    for key, expected in reference.items():
        value = headline.get(key)
        if isinstance(expected, float):
            ok = isinstance(value, (int, float)) and _close(float(value), expected)
        else:
            ok = value == expected
        if not ok:
            problems.append(f"headline {key} = {value!r}, reference {expected!r}")


def check_run(config: dict, out: Path, reference) -> dict:
    """Check one run; ``reference`` is its headline reference or None."""
    problems: list = []
    success = None
    try:
        summary = json.loads((out / "summary.json").read_text())
        effective = validate_config(config).effective
        if summary["effective_config"] != effective or summary["config_hash"] != config_hash(effective):
            problems.append("summary does not carry the run's effective config")
        missing = [f for f in summary["files"] if not (out / f).is_file()]
        if missing:
            problems.append(f"missing data files {missing}")
        else:
            success = _check_kind(effective, summary["headline"], out, problems)
        if reference is not None:
            _check_reference(summary["headline"], reference, problems)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return {"ok": not problems, "problems": problems, "success_prob": success}


def headline_reference(summary: dict) -> dict:
    """Numeric headline values of one run, the form ``reference.json`` stores."""
    return {
        k: v
        for k, v in sorted(summary["headline"].items())
        if isinstance(v, (bool, int, float))
    }

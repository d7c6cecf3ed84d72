"""The benchmark's workloads and the configs each one generates from a seed.

A workload is a list of shipped configs (``configs/<name>.json``) run once
per sample, in order.  The workload seed replaces the configs' seed-like
fields, so the program receives only the generated configs:

- ``toy-compile``: the toy dataset ``seed``.
- ``classical-pool``: the classical ``first_seed`` (``seed * n_runs``, so
  pools of different seeds share no training run).
- ``binary-anneal`` and the pixel ``split_seed`` everywhere: none.  The
  split decides how hard the task is.  Over split seeds 0-9 the anneal's
  final-state probability on the optimum ranges from 0.12 to 0.98 and the
  classical pool's mean training accuracy from 0.60 to 0.68, so a seeded
  split would bury any change of the program under the spread between
  seeds.  Every workload runs the shipped split.
- ``matrix-suite``: none; these configs have no seeded input.

Seed 0 reproduces the shipped configs exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = {
    "binary-anneal": ("nn_binary",),
    "toy-compile": ("nn_toy_circle", "nn_toy_band"),
    "matrix-suite": (
        "anneal_matrix_cosine",
        "anneal_matrix_tilted",
        "tunnel_cosine",
        "mass_scan",
        "spectrum_quartic",
        "anneal_paulispin_quartic",
    ),
    "classical-pool": ("classical_pool", "enumerate_binary"),
}

#: every shipped config, for the one-off traced pass of ``--report``
ALL_CONFIGS = (
    "accuracy_curves",
    "anneal_matrix_cosine",
    "anneal_matrix_tilted",
    "anneal_paulispin_quartic",
    "classical_pool",
    "enumerate_binary",
    "mass_scan",
    "nn_binary",
    "nn_toy_band",
    "nn_toy_circle",
    "spectrum_quartic",
    "tunnel_cosine",
)

SEEDED_WORKLOADS = ("toy-compile", "classical-pool")


def config_names(workload: str) -> tuple:
    return ALL_CONFIGS if workload == "all-configs" else WORKLOADS[workload]


def seeded(workload: str) -> bool:
    return workload in SEEDED_WORKLOADS


def generate(workload: str, seed: int, config_dir: Path) -> dict:
    """Configs of one workload for one seed, keyed by config name."""
    configs = {}
    for name in config_names(workload):
        config = json.loads((config_dir / f"{name}.json").read_text())
        if seeded(workload):
            if config["kind"] == "nn-toy":
                config["seed"] = seed
            if config["kind"] == "classical-pool":
                config["first_seed"] = seed * config["n_runs"]
        configs[name] = config
    return configs

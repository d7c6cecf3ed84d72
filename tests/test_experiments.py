"""Tests for the experiment harness and the command-line front end.

Every kind runs end to end on a deliberately tiny config; determinism is
checked at the byte level since reproducible data files are part of the
contract.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from aqtrain import cli, experiments, nn
from aqtrain.encodings import index_of_report_bitstring
from aqtrain.engine import AnnealSpec, basis_state, chebyshev_degree, evolve_adiabatic
from aqtrain.experiments import (
    CHEBYSHEV_TERM_OVERHEAD,
    EXPERIMENT_KINDS,
    LIMITS,
    DENSE_STEP_OVERHEAD,
    LOSS_RANGE_BOUND,
    LOWER_BOUNDS,
    MODEL_PARAMETERS,
    POTENTIAL_PARAMETERS,
    SCHEMAS,
    SNAPSHOT_OVERHEAD_BYTES,
    SPECTRUM_POINT_OVERHEAD,
    SPLIT_STEP_OVERHEAD,
    CSV_CHUNK_ROWS,
    atomic_write_text,
    config_hash,
    run_experiment,
    validate_config,
    write_csv,
)
from aqtrain.matrix_method import MomentumTruncation, Potential, SchrodingerProblem, ground_state
from aqtrain.pauli import PauliPolynomial
from aqtrain.varpoly import VarPolynomial

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def limit(name: str) -> int:
    """The value of one row of the limits table."""
    return LIMITS[name][0]


def chebyshev_terms(reach: float) -> int:
    """Terms the exact anneal step keeps at ``reach``."""
    return chebyshev_degree(reach) + 1


#: smallest config per kind that still exercises the full runner
SMALL = {
    "tunnel": {
        "kind": "tunnel",
        "num_qubits": 4,
        "t_total": 0.5,
        "dt": 0.05,
        "snapshot_stride": 2,
        "grid_points": 128,
    },
    "anneal-matrix": {
        "kind": "anneal-matrix",
        "num_qubits": 4,
        "t_final": 5.0,
        "n_steps": 5,
        "grid_points": 129,
    },
    "anneal-paulispin": {
        "kind": "anneal-paulispin",
        "num_qubits": 4,
        "t_final": 5.0,
        "n_steps": 20,
    },
    "nn-toy": {
        "kind": "nn-toy",
        "n_points": 16,
        "seed": 3,
        "t_final": 5.0,
        "n_steps": 5,
        "grid_probe_side": 5,
    },
    "nn-binary": {"kind": "nn-binary", "t_final": 3.0, "n_steps": 3},
    "spectrum": {"kind": "spectrum", "num_qubits": 4, "s_points": 5, "k_lowest": 3},
    "mass-scan": {
        "kind": "mass-scan",
        "masses": [25.0, 50.0],
        "num_qubits": 5,
        "grid_points": 256,
    },
    "classical-pool": {"kind": "classical-pool", "n_runs": 4, "n_steps": 5},
    "accuracy-curves": {
        "kind": "accuracy-curves",
        "pool": 16,
        "repetitions": 8,
        "n_values": [1, 2],
        "t_final": 3.0,
        "n_steps": 3,
        "train_steps": 5,
    },
    "enumerate": {
        "kind": "enumerate",
        "model": "toy",
        "dataset": "circle",
        "n_points": 12,
        "seed": 1,
    },
}


#: rerun configs beyond SMALL: an anneal that writes density_snapshots.csv
RERUN = {"anneal-matrix-snapshots": dict(SMALL["anneal-matrix"], n_steps=40, snapshot_stride=3)}


#: (kind, name) of every parameter whose default is a number or a list of numbers
NUMERIC = [
    (kind, name)
    for kind, schema in SCHEMAS.items()
    for name, default in schema.items()
    if not isinstance(default, str)
]

#: the config hash of each shipped config; a change that moves one on purpose
#: updates this table and lists each old -> new hash
SHIPPED_HASHES = {
    "accuracy_curves": "1e050fb8f198377f",
    "anneal_matrix_cosine": "6d9c744832af1744",
    "anneal_matrix_tilted": "b0cbc15552a121ad",
    "anneal_paulispin_quartic": "416cc1ed8d5d57d2",
    "classical_pool": "ef19f06788752f91",
    "enumerate_binary": "9ae37cb8df01dc99",
    "mass_scan": "d0a0c0cff16eb731",
    "nn_binary": "b575e97ccd8a1dd5",
    "nn_toy_band": "3d6cfc3c6ee3b04d",
    "nn_toy_circle": "49f85b5ebb462317",
    "spectrum_quartic": "c9d10d2dd2766f7f",
    "tunnel_cosine": "853e0011fb82f552",
}


def reading(kind: str, name: str) -> dict:
    """The default config of ``kind`` whose effective config lists ``name``."""
    config = {"kind": kind}
    if kind in ("tunnel", "anneal-matrix") and name in POTENTIAL_PARAMETERS:
        config["potential"] = POTENTIAL_PARAMETERS[name]
    if kind == "enumerate" and name in MODEL_PARAMETERS:
        config["model"] = MODEL_PARAMETERS[name]
    return config


def read_csv(path):
    """Header comments, column names, and float rows of an output file."""
    header, columns, rows = {}, None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            header[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


def test_kind_tables_share_keys_and_order():
    assert EXPERIMENT_KINDS == tuple(experiments.DESCRIPTIONS) == tuple(experiments._RUNNERS)


class TestValidation:
    def test_defaults_filled_and_reported(self):
        # the band dataset reads every nn-toy parameter
        report = validate_config({"kind": "nn-toy", "dataset": "band"})
        assert report.ok
        assert set(report.effective) == set(SCHEMAS["nn-toy"]) | {"kind"}
        assert any("seed defaulted to 0" in note for note in report.notes)

    def test_unknown_kind_rejected(self):
        report = validate_config({"kind": "warp-drive"})
        assert not report.ok
        assert "unknown kind" in report.errors[0]
        assert "unknown kind" in validate_config({"kind": ["nn-toy"]}).errors[0]

    def test_missing_kind_rejected(self):
        assert not validate_config({"mass": 5.0}).ok
        assert not validate_config("not a dict").ok

    def test_unknown_parameter_rejected(self):
        report = validate_config({"kind": "mass-scan", "massez": [1, 2]})
        assert not report.ok
        assert "massez" in report.errors[0]
        # the model fixes each network kind's loss, so no config names it
        for kind in ("nn-toy", "nn-binary"):
            errors = validate_config({"kind": kind, "loss": "mse"}).errors
            assert errors == [f"unknown parameter 'loss' for kind {kind!r}"]
        # every anneal runs the linear ramp s = t / t_final, which no key selects
        for kind in ("anneal-matrix", "anneal-paulispin", "nn-toy", "nn-binary"):
            errors = validate_config({"kind": kind, "schedule": "linear"}).errors
            assert errors == [f"unknown parameter 'schedule' for kind {kind!r}"]

    def test_register_cap_rejected_with_message(self):
        report = validate_config({"kind": "anneal-matrix", "num_qubits": 30})
        assert not report.ok
        assert "cap" in report.errors[0]

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                {"kind": "classical-pool", "n_runs": 10**9},
                f"n_runs = {10**9} exceeds the classical memory cap of {limit('classical memory cap')} runs",
            ),
            (
                {"kind": "classical-pool", "n_runs": 10**5, "n_steps": 10**4},
                f"n_runs * n_steps + 60 * n_steps = {(10**5 + 60) * 10**4} "
                f"exceeds the classical time budget of {limit('classical time budget')} run-steps",
            ),
            (
                {"kind": "accuracy-curves", "pool": 10**9},
                f"pool = {10**9} exceeds the classical memory cap of {limit('classical memory cap')} runs",
            ),
            (
                {"kind": "accuracy-curves", "pool": 10**4, "train_steps": 10**4},
                f"pool * train_steps + 60 * train_steps = {(10**4 + 60) * 10**4} "
                "exceeds the classical time budget",
            ),
        ],
        ids=["pool-memory-cap", "pool-time-budget", "curves-memory-cap", "curves-time-budget"],
    )
    def test_classical_work_capped_before_running(self, config, message, monkeypatch, tmp_path):
        def never(*args, **kwargs):
            raise AssertionError("an oversized pool must not start training")

        monkeypatch.setattr(experiments, "train_pool", never)
        assert message in " ".join(validate_config(config).errors)
        with pytest.raises(ValueError, match="exceeds the classical"):
            run_experiment(config, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "config,message",
        [
            (
                {"kind": "accuracy-curves", "repetitions": 10**9},
                f"repetitions * max(n_values) = {128 * 10**9} exceeds the curve memory cap "
                f"of {limit('curve memory cap')} draws",
            ),
            (
                {"kind": "accuracy-curves", "repetitions": 10**4, "n_values": [1000] * 101},
                f"repetitions * sum(n_values) = {101 * 10**7} exceeds the curve time budget "
                f"of {limit('curve time budget')} draws",
            ),
            (
                {"kind": "nn-toy", "n_points": 10**9},
                f"n_points = {10**9} exceeds the toy-data memory cap of {limit('toy-data memory cap')} rows",
            ),
            (
                {"kind": "enumerate", "model": "toy", "n_points": 10**9},
                f"n_points = {10**9} exceeds the toy-data memory cap of {limit('toy-data memory cap')} rows",
            ),
            (
                {"kind": "nn-toy", "grid_probe_side": 10**6},
                f"grid_probe_side**2 = {10**12} exceeds the toy-data memory cap "
                f"of {limit('toy-data memory cap')} rows",
            ),
            (
                {"kind": "nn-toy", "n_steps": 10**9},
                f"n_steps * (chebyshev_degree(60.5 * t_final / n_steps) + 1) * (2**6 + "
                f"{CHEBYSHEV_TERM_OVERHEAD}) = {10**9 * chebyshev_terms(60.5 * 10.0 / 10**9) * (2**6 + CHEBYSHEV_TERM_OVERHEAD)} "
                f"exceeds the Krylov step budget of {limit('Krylov step budget')}",
            ),
            (
                {"kind": "nn-binary", "n_steps": 10**9},
                f"n_steps * (chebyshev_degree(5 * t_final / n_steps) + 1) * (2**10 + "
                f"{CHEBYSHEV_TERM_OVERHEAD}) = {10**9 * chebyshev_terms(5.0 * 15.0 / 10**9) * (2**10 + CHEBYSHEV_TERM_OVERHEAD)} "
                f"exceeds the Krylov step budget of {limit('Krylov step budget')}",
            ),
            (
                {"kind": "accuracy-curves", "n_steps": 10**9},
                f"n_steps * (chebyshev_degree(5 * t_final / n_steps) + 1) * (2**10 + "
                f"{CHEBYSHEV_TERM_OVERHEAD}) = {10**9 * chebyshev_terms(5.0 * 20.0 / 10**9) * (2**10 + CHEBYSHEV_TERM_OVERHEAD)} "
                f"exceeds the Krylov step budget of {limit('Krylov step budget')}",
            ),
            # one run still pays the fixed cost of every training step
            (
                {
                    "kind": "classical-pool",
                    "split_seed": 0,
                    "n_runs": 1,
                    "first_seed": 0,
                    "n_steps": 50_000_000,
                },
                f"n_runs * n_steps + 60 * n_steps = {61 * 50_000_000} exceeds the classical "
                f"time budget of {limit('classical time budget')} run-steps",
            ),
            (
                {"kind": "accuracy-curves", "pool": 1, "train_steps": 50_000_000},
                f"pool * train_steps + 60 * train_steps = {61 * 50_000_000} exceeds the "
                f"classical time budget of {limit('classical time budget')} run-steps",
            ),
            # one amplitude still pays the fixed cost of every split step
            (
                {"kind": "anneal-paulispin", "num_qubits": 1, "n_steps": 2**25},
                f"n_steps * 2**num_qubits + {SPLIT_STEP_OVERHEAD} * n_steps = "
                f"{2**25 * (2 + SPLIT_STEP_OVERHEAD)} exceeds the split step budget "
                f"of {limit('split step budget')}",
            ),
            # and a 2 x 2 eigvalsh the fixed cost of every s point
            (
                {"kind": "spectrum", "num_qubits": 1, "s_points": 4_000_000_000},
                f"s_points * 8**num_qubits + {SPECTRUM_POINT_OVERHEAD} * s_points = "
                f"{4_000_000_000 * (8 + SPECTRUM_POINT_OVERHEAD)} exceeds the dense "
                f"decomposition budget of {limit('dense decomposition budget')}",
            ),
        ],
        ids=[
            "curves-curve-memory-cap",
            "curves-curve-time-budget",
            "nn-toy-toy-data-cap",
            "enumerate-toy-data-cap",
            "nn-toy-grid-toy-data-cap",
            "nn-toy-krylov-budget",
            "nn-binary-krylov-budget",
            "curves-krylov-budget",
            "pool-1-run-time-budget",
            "curves-1-run-time-budget",
            "paulispin-split-budget",
            "spectrum-decomp-budget",
        ],
    )
    def test_data_size_capped_before_running(self, config, message, monkeypatch, tmp_path):
        def never(*args, **kwargs):
            raise AssertionError("an oversized config must not start its runner")

        monkeypatch.setitem(experiments._RUNNERS, config["kind"], never)
        assert message in " ".join(validate_config(config).errors)
        with pytest.raises(ValueError, match="exceeds the"):
            run_experiment(config, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "config,message",
        [
            (
                {"kind": "anneal-matrix", "num_qubits": 10, "n_steps": 10**9},
                f"n_steps * 4**num_qubits + {DENSE_STEP_OVERHEAD} * n_steps = "
                f"{10**9 * (4**10 + DENSE_STEP_OVERHEAD)} exceeds the dense step budget "
                f"of {limit('dense step budget')}",
            ),
            (
                # 10**12 steps at the default stride of 10 keep 10**11 + 1 states
                {"kind": "tunnel", "t_total": 1e9, "dt": 1e-3},
                "(1 + ceil(round(t_total / dt) / snapshot_stride)) * 4**num_qubits = "
                f"{(10**11 + 1) * 4**5} exceeds the real-time step budget of "
                f"{limit('real-time step budget')}",
            ),
            (
                {"kind": "tunnel", "t_total": 3000.0, "snapshot_stride": 1},
                "(1 + ceil(round(t_total / dt) / snapshot_stride)) * "
                f"(16 * 2**num_qubits + {SNAPSHOT_OVERHEAD_BYTES}) = "
                f"{300_001 * (16 * 2**5 + SNAPSHOT_OVERHEAD_BYTES)} exceeds the snapshot memory "
                f"cap of {limit('snapshot memory cap')} B",
            ),
            (
                # a grid well within its cap still writes a row per point and snapshot
                {"kind": "anneal-matrix", "n_steps": 40, "snapshot_stride": 1, "grid_points": 2**17},
                f"(1 + ceil(n_steps / snapshot_stride)) * grid_points = {41 * 2**17} exceeds the "
                f"snapshot row cap of {limit('snapshot row cap')} rows",
            ),
            (
                {"kind": "anneal-matrix", "n_steps": 1000, "snapshot_stride": 1},
                f"(1 + ceil(n_steps / snapshot_stride)) * grid_points = {1001 * 1025} exceeds the "
                f"snapshot row cap of {limit('snapshot row cap')} rows",
            ),
        ]
        + [
            (
                {"kind": kind, "grid_points": 10**9},
                f"grid_points = {10**9} exceeds the grid point cap of {limit('grid point cap')} points",
            )
            for kind in ("anneal-matrix", "tunnel", "mass-scan")
        ]
        + [
            (
                {"kind": "spectrum", "s_points": 10**9},
                f"s_points * 8**num_qubits + {SPECTRUM_POINT_OVERHEAD} * s_points = "
                f"{10**9 * (8**7 + SPECTRUM_POINT_OVERHEAD)} exceeds the dense decomposition "
                f"budget of {limit('dense decomposition budget')}",
            ),
            (
                {"kind": "spectrum", "num_qubits": 12, "s_points": 41},
                f"s_points * 8**num_qubits + {SPECTRUM_POINT_OVERHEAD} * s_points = "
                f"{41 * (8**12 + SPECTRUM_POINT_OVERHEAD)} exceeds the dense decomposition "
                f"budget of {limit('dense decomposition budget')}",
            ),
            (
                {"kind": "mass-scan", "num_qubits": 12, "masses": [1.0] * 10**5, "grid_points": 1024},
                f"len(masses) * 8**num_qubits = {10**5 * 8**12} exceeds the dense decomposition "
                f"budget of {limit('dense decomposition budget')}",
            ),
            (
                # reach t_final / n_steps * |V| of about 4e4 a step: one eigh per step
                {"kind": "anneal-matrix", "num_qubits": 10, "n_steps": 476, "t_final": 1e7},
                f"min(n_steps, 13 * ceil(t_final / n_steps * 2)) * 8**num_qubits = {476 * 8**10} "
                f"exceeds the dense decomposition budget of {limit('dense decomposition budget')}",
            ),
            (
                {"kind": "anneal-paulispin", "num_qubits": 16, "n_steps": 10**9},
                f"n_steps * 2**num_qubits + {SPLIT_STEP_OVERHEAD} * n_steps = "
                f"{10**9 * (2**16 + SPLIT_STEP_OVERHEAD)} exceeds the split step budget "
                f"of {limit('split step budget')}",
            ),
            (
                # one kept state past the budget at 10 qubits
                {
                    "kind": "tunnel",
                    "num_qubits": 10,
                    "t_total": limit("real-time step budget") // 4**10 * 0.01,
                    "snapshot_stride": 1,
                },
                "(1 + ceil(round(t_total / dt) / snapshot_stride)) * 4**num_qubits = "
                f"{(limit('real-time step budget') // 4**10 + 1) * 4**10} "
                f"exceeds the real-time step budget of {limit('real-time step budget')}",
            ),
            (
                # a small register still pays each step's fixed time and memory
                {"kind": "anneal-matrix", "num_qubits": 1, "n_steps": 125_000_000},
                f"n_steps * 4**num_qubits + {DENSE_STEP_OVERHEAD} * n_steps = "
                f"{125_000_000 * (4 + DENSE_STEP_OVERHEAD)} exceeds the dense step budget "
                f"of {limit('dense step budget')}",
            ),
        ],
        ids=[
            "matrix-step-budget",
            "tunnel-step-budget",
            "tunnel-snapshot-mem",
            "matrix-wide-grid-rows",
            "matrix-snapshot-rows",
            "matrix-grid-cap",
            "tunnel-grid-cap",
            "mass-scan-grid-cap",
            "spectrum-decomp",
            "spectrum-12q-decomp",
            "mass-scan-decomp",
            "matrix-decomp-budget",
            "paulispin-16q-split",
            "tunnel-10q-realtime",
            "matrix-1q-step-budget",
        ],
    )
    def test_dense_sizes_capped_before_running(self, config, message, monkeypatch, tmp_path):
        def never(*args, **kwargs):
            raise AssertionError("an oversized config must not start its runner")

        monkeypatch.setitem(experiments._RUNNERS, config["kind"], never)
        assert message in " ".join(validate_config(config).errors)
        with pytest.raises(ValueError, match="exceeds the"):
            run_experiment(config, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_dense_size_caps_are_inclusive(self):
        at_budget = limit("dense step budget") // (4**5 + DENSE_STEP_OVERHEAD)
        assert validate_config({"kind": "anneal-matrix", "n_steps": at_budget}).ok
        assert not validate_config({"kind": "anneal-matrix", "n_steps": at_budget + 1}).ok
        # a tunnel run pays per kept state, not per step: the initial state and
        # one state per step, up to the budget at 10 qubits
        most = limit("real-time step budget") // 4**10
        tunnel = {"kind": "tunnel", "num_qubits": 10, "t_total": (most - 1) * 0.01, "snapshot_stride": 1}
        assert validate_config(tunnel).ok
        tunnel["t_total"] = most * 0.01
        assert not validate_config(tunnel).ok
        # one step more than the budget once charged per step, but two kept states
        steps = limit("real-time step budget") // 4**5 + 1
        tunnel = {"kind": "tunnel", "t_total": steps * 0.5, "dt": 0.5, "snapshot_stride": steps}
        assert validate_config(tunnel).ok
        # initial state plus one snapshot per step: the most the memory cap keeps
        most = limit("snapshot memory cap") // (16 * 2**5 + SNAPSHOT_OVERHEAD_BYTES)
        tunnel = {"kind": "tunnel", "t_total": (most - 1) * 0.01, "snapshot_stride": 1}
        assert validate_config(tunnel).ok
        tunnel["t_total"] = most * 0.01
        assert not validate_config(tunnel).ok
        # tunnel snapshots read no density, so the grid does not price them
        tunnel["t_total"] = (most - 1) * 0.01
        tunnel["grid_points"] = limit("grid point cap")
        assert validate_config(tunnel).ok
        # a default anneal-matrix keeping every step: 501 * 1025 snapshot rows
        assert validate_config({"kind": "anneal-matrix", "snapshot_stride": 1}).ok
        assert validate_config({"kind": "tunnel", "t_total": 200.0, "snapshot_stride": 1}).ok
        # the decomposition budget holds 32 decompositions at 10 qubits, 2**14 at 7,
        # and a little fewer spectrum points, which pay a fixed cost each
        most = limit("dense decomposition budget") // (8**7 + SPECTRUM_POINT_OVERHEAD)
        assert validate_config({"kind": "spectrum", "s_points": most}).ok
        assert not validate_config({"kind": "spectrum", "s_points": most + 1}).ok
        most = limit("dense decomposition budget") // 8**7
        assert validate_config({"kind": "mass-scan", "masses": [1.0] * most}).ok
        assert not validate_config({"kind": "mass-scan", "masses": [1.0] * (most + 1)}).ok
        most = limit("dense decomposition budget") // 8**10
        anneal = {"kind": "anneal-matrix", "num_qubits": 10, "n_steps": most, "t_final": 1e7}
        assert validate_config(anneal).ok
        anneal["n_steps"] = most + 1
        assert not validate_config(anneal).ok
        # the most steps the step budget allows at 10 qubits, short enough for one panel
        assert validate_config({"kind": "anneal-matrix", "num_qubits": 10, "n_steps": 476}).ok
        most = limit("split step budget") // (2**16 + SPLIT_STEP_OVERHEAD)
        paulispin = {"kind": "anneal-paulispin", "num_qubits": 16, "n_steps": most}
        assert validate_config(paulispin).ok
        paulispin["n_steps"] = most + 1
        assert not validate_config(paulispin).ok

    @pytest.mark.parametrize(
        "config",
        [SMALL["anneal-matrix"], RERUN["anneal-matrix-snapshots"], SMALL["tunnel"]],
        ids=["anneal-matrix-stride-0", "anneal-matrix-stride-3", "tunnel"],
    )
    def test_snapshot_memory_charged_for_the_states_kept(self, config, monkeypatch, tmp_path):
        # at stride 0 an anneal still keeps its initial and final states
        kept = []
        for name in ("evolve_adiabatic", "evolve_real_time"):

            def keep(*args, original=getattr(experiments, name), **kwargs):
                result = original(*args, **kwargs)
                kept.append(len(result.states))
                return result

            monkeypatch.setattr(experiments, name, keep)
        run_experiment(config, tmp_path)
        effective = validate_config(config).effective
        charged = {name: value for _, value, name in experiments._sizes(effective)}
        dim = 2 ** effective["num_qubits"]
        assert charged["snapshot memory cap"] == kept[0] * (16 * dim + SNAPSHOT_OVERHEAD_BYTES)
        # rows are charged only where density_snapshots.csv is written
        assert ("snapshot row cap" in charged) == (tmp_path / "density_snapshots.csv").exists()

    @pytest.mark.parametrize("kind", ["anneal-matrix", "tunnel", "mass-scan"])
    def test_grid_point_cap_is_inclusive(self, kind):
        cap = limit("grid point cap")
        assert validate_config({"kind": kind, "grid_points": cap}).ok
        errors = validate_config({"kind": kind, "grid_points": cap + 1}).errors
        assert errors == [f"grid_points = {cap + 1} exceeds the grid point cap of {cap} points"]

    def test_tunnel_keeping_few_of_many_steps_runs(self, tmp_path):
        # 12 million steps of 1e-6 keep 13 states, each one dim**2 product
        config = {"kind": "tunnel", "dt": 1e-6, "snapshot_stride": 1_000_000}
        assert validate_config(config).ok
        run_experiment(config, tmp_path)
        rows = (tmp_path / "timeseries.csv").read_text().splitlines()[3:]
        assert [float(row.split(",")[0]) for row in rows] == pytest.approx(np.arange(13.0))

    def test_data_size_caps_are_inclusive(self):
        rows = limit("toy-data memory cap")
        assert validate_config({"kind": "nn-toy", "n_points": rows}).ok
        assert validate_config({"kind": "nn-toy", "grid_probe_side": 200}).ok
        assert not validate_config({"kind": "nn-toy", "grid_probe_side": 201}).ok
        widest = {"kind": "accuracy-curves", "repetitions": limit("curve memory cap") // 128}
        assert validate_config(widest).ok
        # the toy-row cap does not apply where the binary model ignores n_points
        assert validate_config({"kind": "enumerate", "n_points": 10**9}).ok
        # the priced half-width: the larger of the driver's and the loss bound's
        assert max(6, LOSS_RANGE_BOUND["toy"]) / 2 == 60.5
        assert max(10, LOSS_RANGE_BOUND["binary"]) / 2 == 5.0
        # at dt = 1 every step is priced at the same number of terms
        priced = (("nn-toy", 6, 60.5), ("nn-binary", 10, 5.0), ("accuracy-curves", 10, 5.0))
        for kind, qubits, half_width in priced:
            per_step = chebyshev_terms(half_width) * (2**qubits + CHEBYSHEV_TERM_OVERHEAD)
            most = limit("Krylov step budget") // per_step
            assert validate_config({"kind": kind, "n_steps": most, "t_final": float(most)}).ok
            longer = {"kind": kind, "n_steps": most + 1, "t_final": float(most + 1)}
            assert not validate_config(longer).ok

    def test_krylov_budget_grows_with_the_time_step(self, tmp_path):
        # 15 steps of dt = 133: each keeps about 900 series terms
        config = {"kind": "nn-binary", "t_final": 2000.0, "n_steps": 15}
        assert validate_config(config).ok
        assert run_experiment(config, tmp_path).kind == "nn-binary"
        classes = json.loads((tmp_path / "classes.json").read_text())["classes"]
        assert sum(row["probability"] for row in classes) == pytest.approx(1.0, abs=1e-12)
        # the same steps, 1000 times as long, cost 1000 times the terms
        errors = validate_config(dict(config, t_final=2e6)).errors
        assert any("Krylov step budget" in error for error in errors)
        # and a reach past the float range fails the budget rather than raising
        errors = validate_config({"kind": "nn-binary", "t_final": 1e308, "n_steps": 1}).errors
        assert any("Krylov step budget" in error for error in errors)

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda path: path.stem)
    def test_shipped_configs_within_limits(self, path):
        assert validate_config(json.loads(path.read_text())).ok

    def test_shipped_config_hashes_are_pinned(self):
        hashes = {
            path.stem: config_hash(validate_config(json.loads(path.read_text())).effective)
            for path in sorted(CONFIG_DIR.glob("*.json"))
        }
        assert hashes == SHIPPED_HASHES

    def test_every_choice_offers_two_values(self):
        # a key with one allowed value selects nothing
        for (kind, name), values in experiments.CHOICES.items():
            assert name in SCHEMAS[kind] and len(values) >= 2, (kind, name)

    def test_choice_parameters_checked(self):
        assert not validate_config({"kind": "nn-toy", "band_rule": "sometimes"}).ok
        assert not validate_config({"kind": "nn-toy", "dataset": "band", "band_rule": "sometimes"}).ok
        # a key the model leaves out is still checked
        assert not validate_config({"kind": "enumerate", "model": "binary", "band_rule": "sometimes"}).ok
        assert not validate_config({"kind": "enumerate", "model": "binary", "n_points": 0}).ok
        assert not validate_config({"kind": "nn-toy", "dataset": "spiral"}).ok
        assert validate_config({"kind": "nn-toy", "band_rule": "max"}).ok

    #: values each parameter takes in the sweep below, fixed before it ran
    SWEEP_VALUES = [
        0, 1, -1, 2, 0.5, 1.5, 1e-300, 1e-9, 1e9, 1e300, -1e300, 10**400, 2**63, 2**64,
        True, "x", None, [], [1e300],
    ]

    def test_every_rejection_names_the_swept_parameter(self):
        # one parameter of one kind at a time off its default; validate must
        # not raise, and a rejected config must name the parameter it moved
        unnamed = []
        for kind, schema in SCHEMAS.items():
            for name in schema:
                named = re.compile(rf"(?<!\w){re.escape(name)}(?!\w)")
                for value in self.SWEEP_VALUES:
                    errors = validate_config({**reading(kind, name), name: value}).errors
                    if errors and not any(named.search(error) for error in errors):
                        unnamed.append((kind, name, value, errors))
        assert not unnamed

    @pytest.mark.parametrize("kind, name", NUMERIC, ids=[f"{kind}-{name}" for kind, name in NUMERIC])
    def test_numeric_parameter_rule(self, kind, name):
        default = SCHEMAS[kind][name]
        listed = isinstance(default, list)
        scalar = default[0] if listed else default

        def check(value):
            """The report of the config that sets ``name`` (a list's first entry) to ``value``."""
            return validate_config({**reading(kind, name), name: [value, *default[1:]] if listed else value})

        integer = isinstance(scalar, int)
        # JSON admits NaN and Infinity, which no size can be computed from
        finite = "an integer" if integer else "finite"
        cases = [(math.inf, finite), (math.nan, finite), (True, "an integer" if integer else "a number")]
        if name in LOWER_BOUNDS:
            least, allowed = LOWER_BOUNDS[name]
            # the first value past the bound: the bound itself, or the next value below it
            past = least - 1 if integer else math.nextafter(least, -1)
            cases.append((past if allowed else least, ""))
            if allowed:
                # another parameter may still rule the config out (spectrum k_lowest at 1 qubit)
                assert not [error for error in check(least).errors if error.startswith(f"{name} ")]
        for value, words in cases:
            errors = check(value).errors
            assert len(errors) == 1 and errors[0].startswith(f"{name} must be {words}"), (value, errors)
        # an integral float is an integer; an integer is a float
        other = float(scalar) if integer else int(scalar) if scalar.is_integer() else scalar
        report = check(other)
        assert report.ok and report.effective[name] == default
        assert type(report.effective[name][0] if listed else report.effective[name]) is type(scalar)

    def test_every_numeric_parameter_is_bounded(self):
        # so a new numeric key cannot go unbounded unnoticed; tilt may be negative
        assert {name for _, name in NUMERIC} - {"tilt"} == set(LOWER_BOUNDS)
        # "at least N" reads right only for a bound that admits N
        assert all(allowed or least == 0 for least, allowed in LOWER_BOUNDS.values())

    def test_numeric_coercion(self):
        assert not validate_config({"kind": "nn-toy", "n_steps": 2.5}).ok
        assert not validate_config({"kind": "nn-toy", "seed": "zero"}).ok
        # the one upper bound outside the lower-bounds table
        errors = validate_config({"kind": "tunnel", "packet_center": 1.0}).errors
        assert errors == ["packet_center must lie in [0, 1), got 1.0"]
        # a step count past the float range fails the step budget rather than raising
        overflow = validate_config({"kind": "tunnel", "t_total": 1e308, "dt": 1e-10})
        assert "real-time step budget" in overflow.errors[0]

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"kind": "tunnel", "mass": 10**400}, "mass must be finite, got an integer of 1329 bits"),
            (
                {"kind": "nn-toy", "n_steps": 10**400},
                "n_steps * (chebyshev_degree(60.5 * t_final / n_steps) + 1) * (2**6 + "
                f"{CHEBYSHEV_TERM_OVERHEAD}) = {10**400 * (2**6 + CHEBYSHEV_TERM_OVERHEAD)} "
                f"exceeds the Krylov step budget of {limit('Krylov step budget')}",
            ),
            (
                {"kind": "anneal-matrix", "n_steps": 10**400},
                f"n_steps * 4**num_qubits + {DENSE_STEP_OVERHEAD} * n_steps = "
                f"{10**400 * (4**5 + DENSE_STEP_OVERHEAD)} exceeds the dense step budget "
                f"of {limit('dense step budget')}",
            ),
        ],
        ids=["tunnel-mass", "nn-toy-n_steps", "anneal-matrix-n_steps"],
    )
    def test_integer_past_the_float_range_rejected(self, config, message, tmp_path, capsys):
        # JSON reads 10**400 as an int, which no float division can convert
        assert validate_config(config).errors == [message]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["validate", str(path)]) == 2
        assert f"error: {message}\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                {"kind": "anneal-matrix", "t_final": 1e307, "n_steps": 1},
                "t_final / n_steps = 1e+307 / 1 times the bound 50.53 + 0 on |H| overflows",
            ),
            (
                {"kind": "tunnel", "t_total": 1e307, "dt": 1e307},
                "t_total 1e+307 at dt 1e+307 ends at 1e+307, which times the bound 505.3 + 2 "
                "on |H| overflows",
            ),
            (
                {"kind": "tunnel", "t_total": 1.0, "dt": 1e307},
                "t_total 1 at dt 1e+307 ends at 1e+307, which times the bound 505.3 + 2 "
                "on |H| overflows",
            ),
            (
                {"kind": "tunnel", "mass": 1e-306},
                "t_total 12 at dt 0.01 ends at 12, which times the bound inf + 2 on |H| overflows",
            ),
            (
                {"kind": "anneal-matrix", "potential": "quartic", "scale": 1e308},
                "t_final / n_steps = 50 / 500 times the bound 50.53 + nan on |H| overflows",
            ),
        ],
        ids=["anneal-one-step", "tunnel-one-step", "tunnel-step-past-t_total", "tunnel-light-mass",
             "anneal-nan-potential"],
    )
    def test_dense_phase_overflow_rejected(self, config, message, tmp_path):
        # each ran to NaN headlines or a failed eigensolver before validate rejected it
        assert validate_config(config).errors == [message]
        with pytest.raises(ValueError, match="on \\|H\\| overflows"):
            run_experiment(config, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "config",
        [
            {"kind": "anneal-matrix", "t_final": 3e306, "n_steps": 1},
            # s = 1/2 at most: 7e307 * (0.79 + 2 / 2) is finite, 7e307 * 2.79 is not
            {"kind": "anneal-matrix", "num_qubits": 2, "t_final": 1.4e308, "n_steps": 2, "grid_points": 16},
            {"kind": "tunnel", "t_total": 3e305, "dt": 1e305},
        ],
        ids=["anneal-one-step", "anneal-two-steps", "tunnel"],
    )
    def test_dense_phase_check_is_inclusive(self, config, tmp_path):
        assert validate_config(config).ok
        headline = run_experiment(config, tmp_path).summary["headline"]
        assert all(np.isfinite(v) for v in headline.values() if isinstance(v, float))

    @pytest.mark.parametrize(
        "config, name",
        [
            ({"kind": "spectrum", "num_qubits": 2, "k_lowest": 50, "s_points": 3}, "k_lowest"),
            ({"kind": "spectrum", "num_qubits": 2, "k_lowest": 5, "s_points": 3}, "k_lowest"),
            ({"kind": "tunnel", "packet_width": 5.0}, "packet_width"),
            ({"kind": "tunnel", "packet_width": 27.6}, "packet_width"),
        ],
        ids=["k_lowest-50", "k_lowest-one-past", "packet_width-5", "packet_width-one-past"],
    )
    def test_config_its_runner_cannot_build_rejected(self, config, name, tmp_path):
        errors = validate_config(config).errors
        assert len(errors) == 1 and errors[0].startswith(f"{name} ")
        with pytest.raises(ValueError, match=name):
            run_experiment(config, tmp_path)

    def test_construction_checks_are_inclusive(self, tmp_path):
        spectrum = {"kind": "spectrum", "num_qubits": 2, "k_lowest": 4, "s_points": 3}
        run_experiment(spectrum, tmp_path / "spectrum")
        _, columns, _ = read_csv(tmp_path / "spectrum" / "spectrum.csv")
        assert columns == ["s", "e0", "e1", "e2", "e3"]
        # exp(-27.64 / 2) = 9.97e-7 is within the overlap limit of 1e-6
        tunnel = dict(SMALL["tunnel"], packet_width=27.64)
        assert validate_config(tunnel).ok
        run_experiment(tunnel, tmp_path / "tunnel")

    @pytest.mark.parametrize(
        "config",
        [
            {
                "kind": "anneal-paulispin",
                "num_qubits": 3,
                "potential": "1e308*w^2",
                "n_steps": 4,
                "t_final": 1.0,
            },
            {"kind": "spectrum", "num_qubits": 3, "potential": "w^2 - 1e308*w", "s_points": 3},
        ],
        ids=["paulispin-inf-coefficient", "spectrum-inf-times-zero"],
    )
    def test_non_finite_objective_rejected(self, config, tmp_path):
        # 1e308 * scale overflows to inf, and inf * 0 is NaN at w = 0
        errors = validate_config(config).errors
        assert len(errors) == 1
        assert errors[0].startswith(f"potential {config['potential']!r} ")
        assert "not finite" in errors[0]
        with pytest.raises(ValueError, match="not finite"):
            run_experiment(config, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_objective_times_step_overflow_rejected(self, tmp_path):
        # 1.7e306 * 50 is finite on the grid, but 25 times that is not
        config = {
            "kind": "anneal-paulispin",
            "num_qubits": 3,
            "potential": "1.7e306*w^2",
            "n_steps": 4,
            "t_final": 100.0,
        }
        errors = validate_config(config).errors
        assert errors == [
            "potential '1.7e306*w^2' times scale 50 times t_final / n_steps = 100 / 4 overflows"
        ]
        with pytest.raises(ValueError, match="t_final / n_steps = 100 / 4 overflows"):
            run_experiment(config, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_objective_times_step_check_is_inclusive(self, tmp_path):
        # 2.5 times the grid's largest value, 7.4e307, stays finite
        config = {
            "kind": "anneal-paulispin",
            "num_qubits": 3,
            "potential": "1.7e306*w^2",
            "n_steps": 4,
            "t_final": 10.0,
        }
        assert validate_config(config).ok
        headline = run_experiment(config, tmp_path).summary["headline"]
        assert all(np.isfinite(v) for v in headline.values() if isinstance(v, float))

    @pytest.mark.parametrize("kind", ["anneal-paulispin", "spectrum"])
    def test_finite_objective_check_is_inclusive(self, kind, tmp_path):
        # 1e300 * 50 is finite, and so is the objective on every grid point
        config = {"kind": kind, "num_qubits": 3, "potential": "1e300*w^2"}
        config.update({"n_steps": 4, "t_final": 1.0} if kind != "spectrum" else {"s_points": 3})
        assert validate_config(config).ok
        headline = run_experiment(config, tmp_path).summary["headline"]
        assert all(np.isfinite(v) for v in headline.values() if isinstance(v, float))

    @pytest.mark.parametrize(
        "base, runs",
        [(SMALL["classical-pool"], "n_runs"), (SMALL["accuracy-curves"], "pool")],
        ids=["classical-pool", "accuracy-curves"],
    )
    def test_seeds_past_uint64_rejected(self, base, runs, monkeypatch, tmp_path):
        def never(*args, **kwargs):
            raise AssertionError("a pool of unseedable runs must not start training")

        monkeypatch.setattr(experiments, "train_pool", never)
        config = dict(base, first_seed=2**64 - base[runs] + 1)
        errors = validate_config(config).errors
        assert errors == [f"first_seed + {runs} - 1 = {2**64} exceeds the largest seed 2**64 - 1"]
        with pytest.raises(ValueError, match="first_seed"):
            run_experiment(config, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_largest_seed_runs(self, monkeypatch, tmp_path):
        pools, original = [], experiments.train_pool

        def recording(*args, **kwargs):
            pools.append(original(*args, **kwargs))
            return pools[-1]

        monkeypatch.setattr(experiments, "train_pool", recording)
        config = dict(SMALL["classical-pool"], first_seed=2**64 - SMALL["classical-pool"]["n_runs"])
        assert validate_config(config).ok
        run_experiment(config, tmp_path)
        initial = pools[0][0]
        assert np.array_equal(initial[-1], np.random.default_rng(2**64 - 1).uniform(0, 1, 10))
        _, _, rows = read_csv(tmp_path / "pool.csv")
        assert int(rows[-1][0]) == 2**64 - 1

    def test_polynomial_objectives_parsed(self):
        assert validate_config({"kind": "anneal-paulispin", "potential": "3*w^2 - w"}).ok

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"kind": "anneal-paulispin", "potential": "w + v"}, "times scale 50 must use exactly one"),
            ({"kind": "spectrum", "potential": "+"}, "does not parse: dangling sign"),
            # the quartic's coefficients times 1e-300 vanish, leaving no variable
            ({"kind": "spectrum", "scale": 1e-300}, "times scale 1e-300 must use exactly one"),
        ],
        ids=["two-variables", "dangling-sign", "vanishing-scale"],
    )
    def test_objective_not_in_one_variable_rejected(self, config, message, tmp_path):
        errors = validate_config(config).errors
        potential = config.get("potential", "quartic")
        assert len(errors) == 1 and errors[0].startswith(f"potential {potential!r} {message}")
        with pytest.raises(ValueError, match="potential"):
            run_experiment(config, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_effective_config_lists_only_parameters_the_potential_reads(self):
        cosine = validate_config({"kind": "anneal-matrix", "potential": "cosine"})
        assert cosine.ok
        assert "scale" not in cosine.effective and "tilt" not in cosine.effective
        assert not any("scale" in note or "tilt" in note for note in cosine.notes)
        tilted = validate_config({"kind": "anneal-matrix", "potential": "tilted-cosine"}).effective
        assert tilted["tilt"] == 0.02 and "scale" not in tilted
        quartic = validate_config({"kind": "tunnel", "potential": "quartic"}).effective
        assert quartic["scale"] == 4.0
        assert "scale" not in validate_config({"kind": "tunnel"}).effective

    @pytest.mark.parametrize(
        "config, name, reader",
        [
            ({"kind": "anneal-matrix", "potential": "cosine", "scale": 8.0}, "scale", "quartic"),
            ({"kind": "anneal-matrix", "potential": "tilted-cosine", "scale": 8.0}, "scale", "quartic"),
            ({"kind": "anneal-matrix", "tilt": 0.05}, "tilt", "tilted-cosine"),
            ({"kind": "anneal-matrix", "potential": "quartic", "tilt": 0.05}, "tilt", "tilted-cosine"),
            ({"kind": "tunnel", "scale": 4.0}, "scale", "quartic"),
        ],
    )
    def test_parameter_the_potential_ignores_rejected(self, config, name, reader):
        report = validate_config(config)
        assert not report.ok
        assert report.errors == [
            f"{name} has no effect with potential {config.get('potential', 'cosine')!r}; "
            f"only potential {reader!r} reads it"
        ]

    def test_effective_config_lists_only_parameters_the_model_reads(self):
        # band_rule too, with dataset "band" (see the next test)
        toy_keys = {"dataset", "n_points", "seed"}
        binary = validate_config({"kind": "enumerate", "model": "binary"})
        assert set(binary.effective) == {"kind", "model", "split_seed"}
        assert binary.notes == ["split_seed defaulted to 0"]
        toy = validate_config({"kind": "enumerate", "model": "toy"})
        assert set(toy.effective) == {"kind", "model"} | toy_keys
        # a key the model ignores is noted and left out, so it cannot move the hash
        ignored = validate_config({"kind": "enumerate", "band_rule": "max", "seed": 5})
        assert ignored.ok
        assert ignored.effective == binary.effective
        assert "band_rule has no effect with model 'binary'; left out" in ignored.notes
        assert "seed has no effect with model 'binary'; left out" in ignored.notes
        ignored = validate_config({"kind": "enumerate", "model": "toy", "split_seed": 3})
        assert ignored.ok and ignored.effective == toy.effective
        assert "split_seed has no effect with model 'toy'; left out" in ignored.notes

    @pytest.mark.parametrize("base", [{"kind": "nn-toy"}, {"kind": "enumerate", "model": "toy"}])
    def test_band_rule_left_out_without_the_band_dataset(self, base):
        # only the band dataset reads band_rule, so with circle it cannot move the hash
        circle = validate_config(base)
        assert circle.effective["dataset"] == "circle" and "band_rule" not in circle.effective
        ignored = validate_config({**base, "band_rule": "max"})
        assert ignored.ok and ignored.effective == circle.effective
        assert "band_rule has no effect with dataset 'circle'; left out" in ignored.notes
        band = validate_config({**base, "dataset": "band"})
        band_max = validate_config({**base, "dataset": "band", "band_rule": "max"})
        assert (band.effective["band_rule"], band_max.effective["band_rule"]) == ("min", "max")
        assert config_hash(band.effective) != config_hash(band_max.effective)

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"kind": "mass-scan", "masses": [25.0]}, "masses must list at least two"),
            ({"kind": "mass-scan", "masses": []}, "masses must be a non-empty list"),
            ({"kind": "mass-scan", "masses": 25.0}, "masses must be a non-empty list"),
            ({"kind": "mass-scan", "masses": [25.0, math.inf]}, "masses must be finite"),
            ({"kind": "mass-scan", "masses": [True, 100.0]}, "masses must be a number"),
            ({"kind": "accuracy-curves", "n_values": []}, "n_values must be a non-empty list"),
            ({"kind": "accuracy-curves", "n_values": [1, 2.5]}, "n_values must be an integer"),
        ],
        ids=["one-mass", "no-mass", "bare-mass", "inf-mass", "true-mass", "no-n", "fractional-n"],
    )
    def test_list_parameters_checked(self, config, message, tmp_path):
        errors = validate_config(config).errors
        assert len(errors) == 1 and errors[0].startswith(message)
        with pytest.raises(ValueError, match=f"invalid config: {message}"):
            run_experiment(config, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_hash_independent_of_default_spelling(self):
        implicit = validate_config({"kind": "mass-scan"}).effective
        explicit = validate_config(
            {"kind": "mass-scan", **{k: v for k, v in SCHEMAS["mass-scan"].items()}}
        ).effective
        assert config_hash(implicit) == config_hash(explicit)
        changed = validate_config({"kind": "mass-scan", "num_qubits": 6}).effective
        assert config_hash(changed) != config_hash(implicit)


class TestRunners:
    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_runs_and_writes_declared_files(self, kind, tmp_path):
        result = run_experiment(SMALL[kind], tmp_path)
        assert result.kind == kind
        assert result.summary["headline"]
        assert sorted(path.name for path in tmp_path.iterdir()) == list(result.files)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config_hash"] == result.config_hash
        assert summary["effective_config"]["kind"] == kind
        assert sorted(summary["files"] + ["summary.json"]) == list(result.files)
        # every data file carries the run's stamp: a CSV (dataset CSVs too) in
        # its "#" header, a JSON file as keys
        stamp = {"experiment": kind, "config_hash": result.config_hash}
        for name in summary["files"]:
            path = tmp_path / name
            fields = json.loads(path.read_text()) if name.endswith(".json") else read_csv(path)[0]
            assert {key: fields.get(key) for key in stamp} == stamp, name

    def test_invalid_config_raises(self, tmp_path):
        with pytest.raises(ValueError, match="masses"):
            run_experiment({"kind": "mass-scan", "masses": [5.0]}, tmp_path)

    @pytest.mark.parametrize(
        "name", ["mass-scan", "enumerate", "anneal-paulispin", "tunnel", "anneal-matrix-snapshots"]
    )
    def test_rerun_is_byte_identical(self, name, tmp_path):
        config = RERUN.get(name) or SMALL[name]
        first, second = tmp_path / "a", tmp_path / "b"
        run_experiment(config, first)
        run_experiment(config, second)
        for name in sorted(p.name for p in first.iterdir()):
            if name == "summary.json":
                one = json.loads((first / name).read_text())
                two = json.loads((second / name).read_text())
                one.pop("wall_time_s")
                two.pop("wall_time_s")
                assert one == two
            else:
                assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_csv_headers_carry_config_hash(self, tmp_path):
        result = run_experiment(SMALL["mass-scan"], tmp_path)
        header, columns, rows = read_csv(tmp_path / "scan.csv")
        assert header["config_hash"] == result.config_hash
        assert header["experiment"] == "mass-scan"
        assert columns == ["mass", "peak_w", "peak_density"]
        assert len(rows) == 2

    def test_no_leftover_temp_files(self, tmp_path):
        run_experiment(SMALL["enumerate"], tmp_path)
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_dataset_write_leaves_no_temp_file(self, monkeypatch, tmp_path):
        original = experiments.write_dataset_csv

        def failing(path, dataset, header=None):
            original(path, dataset, header)
            raise OSError("disk full")

        monkeypatch.setattr(experiments, "write_dataset_csv", failing)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(SMALL["nn-toy"], tmp_path)
        assert not list(tmp_path.glob("dataset.csv*"))

    def test_tunnel_masses_partition_density(self, tmp_path):
        run_experiment(SMALL["tunnel"], tmp_path)
        _, columns, rows = read_csv(tmp_path / "timeseries.csv")
        assert columns == ["time", "mass_left", "mass_right"]
        for row in rows:
            assert abs(float(row[1]) + float(row[2]) - 1.0) < 1e-6

    def test_enumerate_table_matches_summary(self, tmp_path):
        result = run_experiment(SMALL["enumerate"], tmp_path)
        _, _, rows = read_csv(tmp_path / "weightspace.csv")
        assert len(rows) == 64
        losses = np.array([float(row[2]) for row in rows])
        assert losses.min() == pytest.approx(result.summary["headline"]["optimum_loss"])

    def test_classical_pool_rows(self, tmp_path):
        run_experiment(SMALL["classical-pool"], tmp_path)
        _, columns, rows = read_csv(tmp_path / "pool.csv")
        assert len(rows) == 4
        assert columns[0] == "seed" and columns[-2:] == ["train_accuracy", "test_accuracy"]
        for row in rows:
            assert all(cell in ("0", "1") for cell in row[1:-2])
            assert 0.0 <= float(row[-2]) <= 1.0

    def test_snapshot_request_adds_file(self, tmp_path):
        config = dict(SMALL["anneal-matrix"], snapshot_stride=2)
        result = run_experiment(config, tmp_path)
        assert "density_snapshots.csv" in result.files

    def test_atomic_write_replaces_existing(self, tmp_path):
        target = tmp_path / "file.csv"
        atomic_write_text(target, "first\n")
        atomic_write_text(target, "second\n")
        assert target.read_text() == "second\n"
        assert not (tmp_path / "file.csv.tmp").exists()


class TestWriteCsv:
    @pytest.mark.parametrize(
        "value, text",
        [
            (True, "1"),
            (np.bool_(False), "0"),
            (7, "7"),
            (np.int64(-3), "-3"),
            (0.1, "0.10000000000000001"),
            (np.float64(2.5), "2.5"),
            ("0101", "0101"),
        ],
        ids=["bool", "np.bool_", "int", "np.int64", "float", "np.float64", "str"],
    )
    def test_cell_types(self, value, text, tmp_path):
        write_csv(tmp_path / "t.csv", "test", "0", ("a", "b"), [(value, 1), (value, 2)])
        header, columns, rows = read_csv(tmp_path / "t.csv")
        assert header == {"experiment": "test", "config_hash": "0"}
        assert columns == ["a", "b"]
        assert rows == [[text, "1"], [text, "2"]]

    def test_float_kinds_share_a_column(self, tmp_path):
        write_csv(tmp_path / "t.csv", "test", "0", ("x",), [(0.5,), (np.float64(1.0),)])
        assert read_csv(tmp_path / "t.csv")[2] == [["0.5"], ["1"]]

    @pytest.mark.parametrize(
        "rows",
        [
            [(1, 0.5), (2.5, 0.5)],
            [(1, 0.5), (2, 3)],
            [(1, "a"), (2, 0.5)],
            [(1, 0.5), (2,)],
            # their cells line up with the template's twice
            [(1, 0.5), (2,), (0.5, 3, 0.5)],
        ],
        ids=["float-under-int", "int-under-float", "float-under-str", "short-row", "short-then-long-row"],
    )
    def test_row_off_the_template_raises(self, rows, tmp_path):
        target = tmp_path / "t.csv"
        with pytest.raises(TypeError):
            write_csv(target, "test", "0", ("a", "b"), rows)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [(2.5, 0.5), (2, 3), (2,)], ids=["float-under-int", "int-under-float", "short-row"])
    @pytest.mark.parametrize("chunk", [1, 2], ids=["last-of-first-chunk", "in-second-chunk"])
    def test_row_off_the_template_raises_in_every_chunk(self, bad, chunk, tmp_path):
        rows = [(k, 0.5) for k in range(chunk * CSV_CHUNK_ROWS + 5)]
        rows[chunk * CSV_CHUNK_ROWS - 1] = bad
        with pytest.raises(TypeError):
            write_csv(tmp_path / "t.csv", "test", "0", ("a", "b"), iter(rows))
        assert list(tmp_path.iterdir()) == []

    def test_chunks_write_what_one_row_at_a_time_writes(self, tmp_path):
        # a float and an np.float64 share the %.17g column across chunk edges
        count = 2 * CSV_CHUNK_ROWS + 3
        rows = [(k, np.float64(k / 7) if k % 3 else k / 7) for k in range(count)]
        write_csv(tmp_path / "t.csv", "test", "0", ("a", "b"), (row for row in rows))
        expected = "".join("%d,%.17g\n" % row for row in rows)
        assert (tmp_path / "t.csv").read_text().split("a,b\n", 1)[1] == expected

    def test_no_rows_writes_the_header(self, tmp_path):
        write_csv(tmp_path / "t.csv", "test", "0", ("a",), iter(()))
        assert (tmp_path / "t.csv").read_text() == "# experiment = test\n# config_hash = 0\na\n"


def test_pool_indices_match_report_bitstrings():
    rng = np.random.default_rng(8)
    rows = np.vstack([np.zeros(10), np.ones(10), rng.integers(0, 2, size=(50, 10))])
    expected = [index_of_report_bitstring("".join(str(int(b)) for b in row)) for row in rows]
    table = nn.model_encoding_table(nn.binary_pixel_model(), "binary01")
    indices = table.index_of(dict(zip(table.names, rows.T)))
    assert indices.dtype == np.int64
    assert indices.tolist() == expected
    assert expected[:2] == [2**10 - 1, 0]


def test_dense_anneal_with_huge_reach_runs(monkeypatch, tmp_path):
    # a reach t_final / n_steps * |T - D| of 1.5e308 panels; validate accepts the
    # config, and the anneal caps its panel count at its step count
    finals = []

    def keep(*args, **kwargs):
        result = evolve_adiabatic(*args, **kwargs)
        finals.append(result.states[-1])
        return result

    evolve_adiabatic = experiments.evolve_adiabatic
    config = {
        "kind": "anneal-matrix",
        "num_qubits": 2,
        "t_final": 1e308,
        "n_steps": 1,
        "grid_points": 16,
    }
    assert validate_config(config).ok
    monkeypatch.setattr(experiments, "evolve_adiabatic", keep)
    run_experiment(config, tmp_path)
    assert abs(np.linalg.norm(finals[0]) - 1.0) <= 1e-12


@pytest.mark.parametrize("split_seed", [0, 2])
def test_binary_optimum_probability_sums_the_enumerated_optimal_set(split_seed, tmp_path):
    config = dict(json.loads((CONFIG_DIR / "nn_binary.json").read_text()), split_seed=split_seed)
    headline = run_experiment(config, tmp_path).summary["headline"]
    effective = validate_config(config).effective
    losses = experiments._network(effective).weightspace.losses
    probabilities = experiments._nn_anneal(losses, effective)
    optimum = float(losses.min())
    direct = sum(p for loss, p in zip(losses.tolist(), probabilities.tolist()) if loss <= optimum + 1e-9)
    assert headline["optimum_loss"] == optimum
    assert headline["optimum_probability"] == pytest.approx(direct, abs=1e-12)
    if split_seed == 0:
        # the shipped split's top class is its optimal set
        assert headline["optimum_probability"] == pytest.approx(headline["top_class_probability"], abs=1e-12)
        assert headline["top_matches_optimum"] and headline["top_class_energy"] == optimum
    else:
        # here the most probable class sits one unit above the optimum
        assert headline["optimum_probability"] == pytest.approx(0.13657, abs=1e-5)
        assert headline["top_class_probability"] == pytest.approx(0.74171, abs=1e-5)
        assert not headline["top_matches_optimum"] and headline["top_class_energy"] == optimum + 1


def test_every_network_headline_reports_optimum_probability(tmp_path):
    kinds = ("nn-toy", "nn-binary", "accuracy-curves")
    heads = {kind: run_experiment(SMALL[kind], tmp_path / kind).summary["headline"] for kind in kinds}
    assert all(0.0 < head["optimum_probability"] <= 1.0 for head in heads.values())
    # the small curves config anneals nn-binary's loss on nn-binary's schedule
    assert heads["accuracy-curves"]["optimum_probability"] == heads["nn-binary"]["optimum_probability"]


def test_runs_compile_from_enumerated_losses(monkeypatch, tmp_path):
    # the symbolic compiler is a test oracle only; no run may reach it
    def refuse(*args, **kwargs):
        raise AssertionError("a run compiled symbolically")

    monkeypatch.setattr(nn, "build_loss", refuse)
    monkeypatch.setattr(VarPolynomial, "substitute_encodings", refuse)
    for kind in ("nn-toy", "nn-binary", "anneal-paulispin"):
        headline = run_experiment(SMALL[kind], tmp_path / kind).summary["headline"]
        assert headline.get("term_bounds_ok", True) is True


def test_runs_build_no_pauli_polynomial(monkeypatch, tmp_path):
    # the engine takes the loss or objective vector and the driver's fields
    # as they are; a Pauli sum is the symbolic compiler's output and an oracle
    def refuse(self, *args, **kwargs):
        raise AssertionError("a run built a PauliPolynomial")

    monkeypatch.setattr(PauliPolynomial, "__init__", refuse)
    for kind in ("nn-binary", "nn-toy", "accuracy-curves", "anneal-paulispin", "spectrum"):
        assert run_experiment(SMALL[kind], tmp_path / kind).summary["headline"]


def test_period_half_runs_decompose_half_registers(monkeypatch, tmp_path):
    # the cosine runs solve their even and odd blocks apart; the tilted well
    # couples every mode, so it still decomposes its whole register
    sizes = []
    for name in ("eigh", "eigvalsh"):
        def recording(a, *args, _original=getattr(np.linalg, name), **kwargs):
            sizes.append(np.shape(a)[-1])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    for name, half in (("anneal_matrix_cosine", True), ("mass_scan", True), ("anneal_matrix_tilted", False)):
        config = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        sizes.clear()
        run_experiment(config, tmp_path / name)
        assert max(sizes) == 2 ** (config["num_qubits"] - half), name


class TestParityBlockAnneal:
    """The cosine anneal runs in mode 0's block; the full-pair anneal is its oracle."""

    @pytest.mark.parametrize("num_qubits", [1, 2, 4])
    def test_states_match_the_full_pair_anneal(self, num_qubits, monkeypatch, tmp_path):
        config = {
            "kind": "anneal-matrix", "num_qubits": num_qubits, "mass": 100.0, "t_final": 5.0,
            "n_steps": 40, "snapshot_stride": 3, "grid_points": 65,
        }
        read = []
        original = experiments.momentum_to_position

        def recording(amplitudes, grid_points):
            read.append(np.array(amplitudes))
            return original(amplitudes, grid_points)

        monkeypatch.setattr(experiments, "momentum_to_position", recording)
        headline = run_experiment(config, tmp_path).summary["headline"]

        truncation = MomentumTruncation(num_qubits)
        problem = SchrodingerProblem(Potential(VarPolynomial.constant(1.0), 1.0), 100.0, truncation)
        spec = AnnealSpec(problem.kinetic_matrix(), problem.hamiltonian(), 5.0, 40, snapshot_stride=3)
        oracle = evolve_adiabatic(spec, basis_state(num_qubits, truncation.index_of(0)))
        # the final state is read first, then the snapshots a chunk at a time
        final, snapshots = read[0], np.concatenate(read[1:])
        assert np.max(np.abs(final - oracle.states[-1])) <= 1e-12
        assert snapshots.shape == oracle.states.shape
        assert np.max(np.abs(snapshots - oracle.states)) <= 1e-12
        odd = problem.sectors()[1]
        assert not final[odd].any() and not snapshots[:, odd].any()
        _, ground = ground_state(problem.hamiltonian())
        overlap = abs(np.vdot(ground, oracle.states[-1])) ** 2
        assert headline["ground_overlap"] == pytest.approx(overlap, abs=1e-12)

    def test_snapshots_are_embedded_a_chunk_at_a_time(self, monkeypatch, tmp_path):
        # a stack of snapshots is never embedded in the full register at once
        monkeypatch.setattr(experiments, "CHUNK_BYTES", 16 * 65 * 4)
        embedded = []
        original = experiments._embedded

        def recording(states, block, dim):
            embedded.append(np.shape(states)[0] if np.ndim(states) == 2 else 1)
            return original(states, block, dim)

        monkeypatch.setattr(experiments, "_embedded", recording)
        config = {
            "kind": "anneal-matrix", "num_qubits": 3, "t_final": 1.0, "n_steps": 10,
            "snapshot_stride": 1, "grid_points": 65,
        }
        run_experiment(config, tmp_path)
        assert embedded == [1, 4, 4, 3]


def test_perfbench_tracer_wraps_a_run(monkeypatch, tmp_path):
    # the benchmark's tracer wraps aqtrain names and reads AnnealSpec fields;
    # a rename it does not follow fails here, before a benchmark run does
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    traced = tracer.Tracer()
    traced.install()
    try:
        run_experiment(SMALL["nn-binary"], tmp_path / "nn-binary")
        # the tracer binds train_pool's seeds and n_steps by name
        run_experiment(SMALL["classical-pool"], tmp_path / "classical-pool")
    finally:
        traced.uninstall()
    metrics = traced.layer_metrics()
    assert metrics["classical.adam_steps"] == 4 * 5
    assert metrics["engine.evolve_adiabatic.calls"] == 1
    assert metrics["engine.evolve_adiabatic.steps"] == 3
    assert metrics["engine.evolve_adiabatic.amp_steps"] == 3 * 1024
    assert traced.calls["nn.term_stats"] == 1
    assert metrics["pauli.diagonal.calls"] == 0
    assert metrics["pauli.to_matrix.calls"] == 0


class TestCli:
    def write_config(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"kind": "mass-scan"})
        assert cli.main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "effective config" in out
        assert "defaulted" in out
        assert "config_hash" in out

    def test_validate_rejects_unknown_parameter(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"kind": "mass-scan", "wrong": 1})
        assert cli.main(["validate", path]) == 2
        assert "error:" in capsys.readouterr().out

    def test_validate_rejects_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["validate", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().out

    def test_validate_rejects_an_integer_too_long_to_read(self, tmp_path, capsys):
        # JSON has no limit on an integer's digits; the interpreter reads 4300
        path = tmp_path / "long.json"
        path.write_text('{"kind": "tunnel", "mass": 1' + "0" * 5000 + "}")
        assert cli.main(["validate", str(path)]) == 2
        assert "cannot read config" in capsys.readouterr().out

    def test_run_writes_summary(self, tmp_path, capsys):
        path = self.write_config(tmp_path, SMALL["mass-scan"])
        out_dir = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out_dir)]) == 0
        assert (out_dir / "summary.json").exists()
        assert "exponent" in capsys.readouterr().out

    def test_run_rejects_invalid_config(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"kind": "tunnel", "dt": -1})
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 2

    def test_seed_override_changes_outputs(self, tmp_path):
        config = dict(SMALL["nn-toy"])
        path = self.write_config(tmp_path, config)
        assert cli.main(["run", path, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["run", path, "--out", str(tmp_path / "b"), "--seed", "7"]) == 0
        first = (tmp_path / "a" / "dataset.csv").read_bytes()
        second = (tmp_path / "b" / "dataset.csv").read_bytes()
        assert first != second

    def test_seed_override_echoed_by_validate(self, tmp_path, capsys):
        path = self.write_config(tmp_path, SMALL["nn-toy"])
        assert cli.main(["validate", path, "--seed", "7"]) == 0
        assert "seed            = 7" in capsys.readouterr().out

    def test_band_prob_flag_echoed(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"kind": "nn-toy", "dataset": "band"})
        assert cli.main(["validate", path, "--band-prob", "max"]) == 0
        assert "'max'" in capsys.readouterr().out

    def test_irrelevant_overrides_warn(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"kind": "mass-scan"})
        assert cli.main(["validate", path, "--seed", "3", "--band-prob", "max"]) == 0
        out = capsys.readouterr().out
        assert "warning: --seed has no effect" in out
        assert "warning: --band-prob has no effect" in out

    @pytest.mark.parametrize("config", [{"kind": "nn-toy"}, {"kind": "enumerate", "model": "toy"}])
    def test_band_prob_without_the_band_dataset_warns(self, tmp_path, capsys, config):
        path = self.write_config(tmp_path, config)
        assert cli.main(["validate", path]) == 0
        plain = capsys.readouterr().out
        assert cli.main(["validate", path, "--band-prob", "max"]) == 0
        out = capsys.readouterr().out
        assert "note: band_rule has no effect with dataset 'circle'; left out" in out
        assert "band_rule " not in out.split("effective config:")[1]
        # the ignored flag leaves the hash as it is without the flag
        assert out.splitlines()[-1] == plain.splitlines()[-1]

    def test_band_prob_on_a_binary_enumerate_warns(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"kind": "enumerate", "model": "binary"})
        assert cli.main(["validate", path]) == 0
        plain = capsys.readouterr().out
        assert cli.main(["validate", path, "--band-prob", "max", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "warning: --band-prob has no effect for kind 'enumerate' with model 'binary'" in out
        assert "band_rule" not in out
        assert "split_seed = 4" in out
        # the ignored flag leaves the hash as it is without the flag
        with_seed = self.write_config(tmp_path, {"kind": "enumerate", "model": "binary", "split_seed": 4})
        assert cli.main(["validate", with_seed]) == 0
        assert out.splitlines()[-1] == capsys.readouterr().out.splitlines()[-1]
        assert plain.splitlines()[-1] != out.splitlines()[-1]

    def test_config_that_is_not_an_object_rejected(self, tmp_path, capsys):
        for config in ([1], {"kind": ["nn-toy"]}):
            path = self.write_config(tmp_path, config)
            assert cli.main(["validate", path, "--seed", "3"]) == 2
            assert "error:" in capsys.readouterr().out

    def test_list_experiments(self, capsys):
        assert cli.main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for kind in EXPERIMENT_KINDS:
            assert kind in out

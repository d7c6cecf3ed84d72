"""Tests for the experiment harness and the command-line front end.

Every kind runs end to end on a deliberately tiny config; determinism is
checked at the byte level since reproducible data files are part of the
contract.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from aqtrain import cli, experiments, nn
from aqtrain.classical import ClassicalRun
from aqtrain.encodings import index_of_report_bitstring
from aqtrain.engine import chebyshev_degree
from aqtrain.experiments import (
    CHEBYSHEV_TERM_OVERHEAD,
    EXPERIMENT_KINDS,
    LIMITS,
    DENSE_STEP_OVERHEAD,
    LOSS_RANGE_BOUND,
    SCHEMAS,
    SNAPSHOT_OVERHEAD_BYTES,
    SPECTRUM_POINT_OVERHEAD,
    SPLIT_STEP_OVERHEAD,
    atomic_write_text,
    config_hash,
    run_experiment,
    validate_config,
    write_csv,
)
from aqtrain.varpoly import VarPolynomial

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


class TestValidation:
    def test_defaults_filled_and_reported(self):
        report = validate_config({"kind": "nn-toy"})
        assert report.ok
        assert set(report.effective) == set(SCHEMAS["nn-toy"]) | {"kind"}
        assert any("seed defaulted to 0" in note for note in report.notes)

    def test_unknown_kind_rejected(self):
        report = validate_config({"kind": "warp-drive"})
        assert not report.ok
        assert "unknown kind" in report.errors[0]

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
                f"snapshots * 4**num_qubits = {(10**11 + 1) * 4**5} exceeds the real-time "
                f"step budget of {limit('real-time step budget')}",
            ),
            (
                {"kind": "tunnel", "t_total": 3000.0, "snapshot_stride": 1},
                f"snapshots * (16 * 2**num_qubits + {SNAPSHOT_OVERHEAD_BYTES}) = "
                f"{300_001 * (16 * 2**5 + SNAPSHOT_OVERHEAD_BYTES)} exceeds the snapshot memory "
                f"cap of {limit('snapshot memory cap')} B",
            ),
            (
                # a grid well within its cap still writes a row per point and snapshot
                {"kind": "anneal-matrix", "n_steps": 40, "snapshot_stride": 1, "grid_points": 2**17},
                f"snapshots * grid_points = {41 * 2**17} exceeds the snapshot row cap "
                f"of {limit('snapshot row cap')} rows",
            ),
            (
                {"kind": "anneal-matrix", "n_steps": 1000, "snapshot_stride": 1},
                f"snapshots * grid_points = {1001 * 1025} exceeds the snapshot row cap "
                f"of {limit('snapshot row cap')} rows",
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
                f"snapshots * 4**num_qubits = {(limit('real-time step budget') // 4**10 + 1) * 4**10} "
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

    def test_choice_parameters_checked(self):
        assert not validate_config({"kind": "nn-toy", "band_rule": "sometimes"}).ok
        assert not validate_config({"kind": "nn-toy", "dataset": "spiral"}).ok
        assert validate_config({"kind": "nn-toy", "band_rule": "max"}).ok

    def test_numeric_coercion(self):
        report = validate_config({"kind": "nn-toy", "t_final": 10, "n_steps": 2.0})
        assert report.ok
        assert report.effective["t_final"] == 10.0
        assert report.effective["n_steps"] == 2
        assert not validate_config({"kind": "nn-toy", "n_steps": 2.5}).ok
        assert not validate_config({"kind": "nn-toy", "t_final": -1.0}).ok
        assert not validate_config({"kind": "nn-toy", "seed": "zero"}).ok
        # JSON admits NaN and Infinity, which no size can be computed from
        for value in (float("nan"), float("inf")):
            assert "must be finite" in validate_config({"kind": "tunnel", "t_total": value}).errors[0]
        # a step count past the float range fails the step budget rather than raising
        overflow = validate_config({"kind": "tunnel", "t_total": 1e308, "dt": 1e-10})
        assert "real-time step budget" in overflow.errors[0]

    def test_polynomial_objectives_parsed(self):
        assert validate_config({"kind": "anneal-paulispin", "potential": "3*w^2 - w"}).ok
        two_vars = validate_config({"kind": "anneal-paulispin", "potential": "w + v"})
        assert not two_vars.ok
        assert not validate_config({"kind": "spectrum", "potential": "+"}).ok

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

    def test_list_parameters_checked(self):
        assert not validate_config({"kind": "mass-scan", "masses": [25.0]}).ok
        assert not validate_config({"kind": "mass-scan", "masses": [25.0, -1.0]}).ok
        assert not validate_config({"kind": "accuracy-curves", "n_values": []}).ok
        assert not validate_config({"kind": "accuracy-curves", "n_values": [1, 0]}).ok

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
        [[(1, 0.5), (2.5, 0.5)], [(1, 0.5), (2, 3)], [(1, "a"), (2, 0.5)], [(1, 0.5), (2,)]],
        ids=["float-under-int", "int-under-float", "float-under-str", "short-row"],
    )
    def test_row_off_the_template_raises(self, rows, tmp_path):
        target = tmp_path / "t.csv"
        with pytest.raises(TypeError):
            write_csv(target, "test", "0", ("a", "b"), rows)
        assert list(tmp_path.iterdir()) == []

    def test_no_rows_writes_the_header(self, tmp_path):
        write_csv(tmp_path / "t.csv", "test", "0", ("a",), iter(()))
        assert (tmp_path / "t.csv").read_text() == "# experiment = test\n# config_hash = 0\na\n"


def test_pool_indices_match_report_bitstrings():
    rng = np.random.default_rng(8)
    rows = np.vstack([np.zeros(10), np.ones(10), rng.integers(0, 2, size=(50, 10))])
    runs = [ClassicalRun(seed, row, row) for seed, row in enumerate(rows)]
    expected = [index_of_report_bitstring("".join(str(int(b)) for b in row)) for row in rows]
    indices = experiments._binary_pool_indices(runs)
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


def test_runs_compile_from_enumerated_losses(monkeypatch, tmp_path):
    # the symbolic compiler is a test oracle only; no run may reach it
    def refuse(*args, **kwargs):
        raise AssertionError("a run compiled symbolically")

    monkeypatch.setattr(nn, "build_loss", refuse)
    monkeypatch.setattr(VarPolynomial, "substitute_encodings", refuse)
    for kind in ("nn-toy", "nn-binary", "anneal-paulispin"):
        headline = run_experiment(SMALL[kind], tmp_path / kind).summary["headline"]
        assert headline.get("term_bounds_ok", True) is True


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

    def test_list_experiments(self, capsys):
        assert cli.main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for kind in EXPERIMENT_KINDS:
            assert kind in out

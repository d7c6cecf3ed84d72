"""End-to-end acceptance runs over the shipped experiment configs.

Each test executes one of the configs in configs/ at full size, checks the
headline numbers against their expected windows, and prints a single
PASS/FAIL line so the whole gate can be read off the terminal at a glance.
These are the slow tests; the per-module suites stay fast.
"""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from aqtrain import experiments
from aqtrain.experiments import run_experiment
from aqtrain.matrix_method import (
    MomentumTruncation,
    Potential,
    SchrodingerProblem,
    ground_state,
    momentum_to_position,
)
from aqtrain.varpoly import VarPolynomial
from quadrature_reference import potential_value

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"

#: module files that carry the fast property suites (algebra oracles,
#: round-trips, exhaustive truth tables, convergence and gradient checks)
PROPERTY_FILES = (
    "tests/test_pauli.py",
    "tests/test_nn.py",
    "tests/test_engine.py",
    "tests/test_classical.py",
)


def run_config(name, tmp_path_factory, **overrides):
    config = json.loads((CONFIG_DIR / name).read_text())
    config.update(overrides)
    out = tmp_path_factory.mktemp(Path(name).stem)
    return run_experiment(config, out)


@pytest.fixture(scope="module")
def emit(request):
    """One-line PASS/FAIL reporter that bypasses output capture."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    capture = request.config.pluginmanager.get_plugin("capturemanager")

    def line(label, passed, detail):
        text = "ACCEPTANCE[%s] %s — %s" % (label, "PASS" if passed else "FAIL", detail)
        if reporter is not None and capture is not None:
            # the reporter writes to the captured file descriptor; lift capture
            with capture.global_and_fixture_disabled():
                reporter.ensure_newline()
                # under -q the progress dots carry no path, so ensure_newline
                # leaves them open; break the line after them
                if reporter._tw.width_of_current_line:
                    reporter.line("")
                reporter.write_line(text)
        else:
            print(text)

    return line


@pytest.fixture(scope="module")
def circle_run(tmp_path_factory):
    return run_config("nn_toy_circle.json", tmp_path_factory)


@pytest.fixture(scope="module")
def band_run(tmp_path_factory):
    return run_config("nn_toy_band.json", tmp_path_factory)


@pytest.fixture(scope="module")
def binary_run(tmp_path_factory):
    return run_config("nn_binary.json", tmp_path_factory)


@pytest.fixture(scope="module")
def curves_run(tmp_path_factory):
    return run_config("accuracy_curves.json", tmp_path_factory)


def test_circle_run_recovers_boundary_with_expected_probability(circle_run, emit):
    head = circle_run.summary["headline"]
    effective = circle_run.summary["effective_config"]
    seconds = circle_run.summary["wall_time_s"]
    ok = (
        head["top_class_train_accuracy"] == 1.0
        and abs(head["top_class_probability"] - 0.93) <= 0.05
        and seconds < 10.0
    )
    emit(
        "circle-toy",
        ok,
        "top class p=%.4f (0.93±0.05), boundary accuracy %.3f, P(opt)=%.4f, %.1fs"
        % (
            head["top_class_probability"],
            head["top_class_train_accuracy"],
            head["optimum_probability"],
            seconds,
        ),
    )
    assert len(head["top_class_bitstring"]) == 6
    assert effective["n_steps"] == 10 and effective["t_final"] == 10.0
    assert head["top_class_train_accuracy"] == 1.0
    assert head["top_class_probability"] == pytest.approx(0.93, abs=0.05)
    assert seconds < 10.0


def test_band_run_matches_enumeration_optimum(band_run, emit):
    head = band_run.summary["headline"]
    seconds = band_run.summary["wall_time_s"]
    ok = (
        head["top_matches_optimum"]
        and abs(head["top_class_probability"] - 0.89) <= 0.05
        and seconds < 10.0
    )
    emit(
        "band-toy",
        ok,
        "top class p=%.4f (0.89±0.05), matches optimum=%s, P(opt)=%.4f, %.1fs"
        % (
            head["top_class_probability"],
            head["top_matches_optimum"],
            head["optimum_probability"],
            seconds,
        ),
    )
    assert head["top_matches_optimum"]
    assert head["top_class_probability"] == pytest.approx(0.89, abs=0.05)
    assert seconds < 10.0


def test_binary_run_top_state_is_perfect_and_rare(binary_run, emit):
    head = binary_run.summary["headline"]
    seconds = binary_run.summary["wall_time_s"]
    ok = (
        head["top_state_train_accuracy"] == 1.0
        and head["top_state_test_accuracy"] == 1.0
        and abs(head["top_state_probability"] - 0.18) <= 0.05
        and abs(head["perfect_fraction"] - 2 / 1024) <= 1 / 1024
        and seconds < 60.0
    )
    emit(
        "binary-pixel",
        ok,
        "top state p=%.4f (0.18±0.05), train/test %.2f/%.2f, "
        "perfect fraction %.6f, P(opt)=%.4f, %.1fs"
        % (
            head["top_state_probability"],
            head["top_state_train_accuracy"],
            head["top_state_test_accuracy"],
            head["perfect_fraction"],
            head["optimum_probability"],
            seconds,
        ),
    )
    assert len(head["top_state_bitstring"]) == 10
    assert head["top_state_train_accuracy"] == 1.0
    assert head["top_state_test_accuracy"] == 1.0
    assert head["top_state_probability"] == pytest.approx(0.18, abs=0.05)
    assert head["perfect_fraction"] == pytest.approx(2 / 1024, abs=1 / 1024)
    assert seconds < 60.0


def test_quantum_pool_beats_classical_training(curves_run, emit):
    head = curves_run.summary["headline"]
    ok = (
        head["quantum_train_mean_n8"] >= 0.99
        and 0.75 <= head["classical_plateau_train_mean"] <= 0.90
        and head["quantum_above_classical_from_n2"]
        and head["pinned_fraction"] == 0.948
    )
    emit(
        "accuracy-curves",
        ok,
        "quantum best-of-8 %.4f (>=0.99), classical plateau %.4f (0.75..0.90), "
        "quantum above classical for n>=2: %s, classical pinned fraction %.3f (the "
        "classical-pool's 0.948)"
        % (
            head["quantum_train_mean_n8"],
            head["classical_plateau_train_mean"],
            head["quantum_above_classical_from_n2"],
            head["pinned_fraction"],
        ),
    )
    assert head["quantum_train_mean_n8"] >= 0.99
    assert 0.75 <= head["classical_plateau_train_mean"] <= 0.90
    assert head["quantum_above_classical_from_n2"]
    assert head["pinned_fraction"] == 0.948


#: capture window of the deeper well of the tilted cosine: |w - 0.25| < 0.1
DEEP_WELL_CENTER = 0.25
DEEP_WELL_HALFWIDTH = 0.1

#: the tilted config's mass raised until the bias between the wells is at
#: least twice their tunnelling splitting; nothing else changes
SELECTION_MASS = 140.0


#: sha256 of the shipped classical pool's (1000, 10) float64 binarized weights
CLASSICAL_POOL_BINARY_SHA256 = "7feeaf2d78a7f19f73ef8f9970b366257e758e4cfded204f37a9339868e528fb"


def test_shipped_classical_pool_is_pinned(tmp_path_factory, monkeypatch, emit):
    # the headline and every binarized weight of the shipped pool, exactly:
    # one run that rounds the other way fails here
    pools = []

    def keep(*args, **kwargs):
        pools.append(train_pool(*args, **kwargs))
        return pools[-1]

    train_pool = experiments.train_pool
    monkeypatch.setattr(experiments, "train_pool", keep)
    head = run_config("classical_pool.json", tmp_path_factory).summary["headline"]
    binary = np.where(pools[0][1] >= 0.5, 1.0, 0.0)
    digest = hashlib.sha256(binary.tobytes()).hexdigest()
    expected = {
        "mean_train_accuracy": 0.5958,
        "mean_test_accuracy": 0.72825,
        "max_train_accuracy": 0.8,
        "near_binary_fraction": 1.0,
        # 948 runs end at their initial weights rounded at 1/2
        "pinned_fraction": 0.948,
    }
    ok = head == expected and binary.shape == (1000, 10) and digest == CLASSICAL_POOL_BINARY_SHA256
    emit(
        "classical-pool",
        ok,
        "headline %s, binarized weights sha256 %s..." % (head, digest[:12]),
    )
    assert head == expected
    assert binary.shape == (1000, 10) and binary.dtype == np.float64
    assert digest == CLASSICAL_POOL_BINARY_SHA256


def deep_well_window_mass(amplitudes, grid_points):
    """Trapezoid mass of a momentum-basis state's density in the deep-well window."""
    w, density = momentum_to_position(amplitudes, grid_points)
    inside = np.abs(w - DEEP_WELL_CENTER) < DEEP_WELL_HALFWIDTH
    return float(np.trapezoid(np.where(inside, density, 0.0), w))


def tilted_cosine(tilt):
    """The tilted-cosine well 1 + tilt * w + cos(4 pi w)."""
    return Potential(1.0 + tilt * VarPolynomial.variable("w"), 1.0)


def exact_ground_window_mass(tilt, mass, num_qubits, grid_points):
    """Window mass of the exact ground state of the tilted-cosine Hamiltonian."""
    problem = SchrodingerProblem(tilted_cosine(tilt), mass, MomentumTruncation(num_qubits))
    _, ground = ground_state(problem.hamiltonian())
    return deep_well_window_mass(ground, grid_points)


def tunnelling_splitting(mass, num_qubits):
    """Gap between the two lowest levels of the untilted cosine well pair."""
    cosine = Potential(VarPolynomial.constant(1.0), 1.0)
    problem = SchrodingerProblem(cosine, mass, MomentumTruncation(num_qubits))
    levels = np.linalg.eigvalsh(problem.hamiltonian())
    return float(levels[1] - levels[0])


def test_cosine_anneal_symmetry_and_tilted_well_selection(tmp_path_factory, emit):
    """The cosine anneal is symmetric; the tilted anneal selects the deeper well
    as far as its Hamiltonian allows.

    An anneal can promise no more than the ground state of its Hamiltonian.
    In the shipped tilted config (mass 100, tilt 0.02) the tunnelling
    splitting of the well pair exceeds the bias between the wells, so the
    exact ground state itself keeps only about 0.66 of its mass in the
    window: there the run is checked against that ground state.  Well
    selection (window mass >= 0.80) is checked on the same config at the
    mass where the bias is at least twice the splitting.
    """
    cosine = run_config("anneal_matrix_cosine.json", tmp_path_factory)
    tilted = run_config("anneal_matrix_tilted.json", tmp_path_factory)
    selecting = run_config("anneal_matrix_tilted.json", tmp_path_factory, mass=SELECTION_MASS)
    rel_diff = cosine.summary["headline"]["peak_height_rel_diff"]
    cosine_window = cosine.summary["headline"]["mass_near_true_minimum"]

    # tunnelling regime: the shipped run lands on its exact ground state
    config = tilted.summary["effective_config"]
    window_mass = tilted.summary["headline"]["mass_near_true_minimum"]
    overlap = tilted.summary["headline"]["ground_overlap"]
    oracle_window = exact_ground_window_mass(
        config["tilt"], config["mass"], config["num_qubits"], config["grid_points"]
    )
    # |<P>_run - <P>_ground| <= trace distance = sqrt(1 - overlap), for 0 <= P <= 1
    distance_bound = np.sqrt(max(0.0, 1.0 - overlap))

    # selection regime: the bias beats tunnelling, so the deeper well wins
    potential = tilted_cosine(config["tilt"])
    bias = float(potential_value(potential, 0.75) - potential_value(potential, 0.25))
    bias_ratio = bias / tunnelling_splitting(SELECTION_MASS, config["num_qubits"])
    selected_window = selecting.summary["headline"]["mass_near_true_minimum"]

    ok = (
        rel_diff <= 0.01
        and overlap >= 0.999
        and abs(window_mass - oracle_window) <= distance_bound
        and window_mass > cosine_window
        and bias_ratio >= 2.0
        and selected_window >= 0.80
    )
    emit(
        "matrix-anneal-wells",
        ok,
        "peak height rel diff %.2e (<=0.01); mass %g: tilted window %.4f vs exact ground "
        "state %.4f (within %.4f), overlap %.5f (>=0.999), cosine window %.4f; "
        "mass %g: eps/Delta %.2f (>=2), window %.4f (>=0.80)"
        % (
            rel_diff,
            config["mass"],
            window_mass,
            oracle_window,
            distance_bound,
            overlap,
            cosine_window,
            SELECTION_MASS,
            bias_ratio,
            selected_window,
        ),
    )
    assert rel_diff <= 0.01
    assert overlap >= 0.999
    assert abs(window_mass - oracle_window) <= distance_bound
    assert window_mass > cosine_window
    assert bias_ratio >= 2.0
    assert selected_window >= 0.80


def test_peak_density_scales_with_quarter_power_of_mass(tmp_path_factory, emit):
    result = run_config("mass_scan.json", tmp_path_factory)
    exponent = result.summary["headline"]["exponent"]
    ok = abs(exponent - 0.25) <= 0.05
    emit("mass-scaling", ok, "fitted exponent %.4f (0.25±0.05)" % exponent)
    assert exponent == pytest.approx(0.25, abs=0.05)


def test_quartic_histogram_peaks_at_global_minimum(tmp_path_factory, emit):
    result = run_config("anneal_paulispin_quartic.json", tmp_path_factory)
    head = result.summary["headline"]
    ok = abs(head["top_bin_w"] - 0.8) <= head["bin_width"]
    emit(
        "quartic-histogram",
        ok,
        "argmax bin w=%.7f, |w-0.8|=%.7f within one bin width %.7f"
        % (head["top_bin_w"], abs(head["top_bin_w"] - 0.8), head["bin_width"]),
    )
    assert abs(head["top_bin_w"] - 0.8) <= head["bin_width"]


def test_property_suites_pass_within_budget(emit):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *PROPERTY_FILES],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and elapsed < 300.0
    emit(
        "property-suites",
        ok,
        "exit code %d in %.1fs (<300s)" % (proc.returncode, elapsed),
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert elapsed < 300.0


def test_shipped_networks_respect_term_counts(circle_run, band_run, binary_run, emit):
    runs = {"circle": circle_run, "band": band_run, "binary": binary_run}
    counts = {
        name: run.summary["headline"]["hamiltonian_term_count"]
        for name, run in runs.items()
    }
    ok = all(run.summary["headline"]["term_bounds_ok"] for run in runs.values())
    emit(
        "term-bounds",
        ok,
        "canonical term counts %s all within generic and diagonal bounds: %s"
        % (counts, ok),
    )
    for name, run in runs.items():
        assert run.summary["headline"]["term_bounds_ok"], name


def test_matrix_headlines_match_perfbench_reference(tmp_path_factory, monkeypatch, emit):
    # a roundoff shift of a propagator or read-out that leaves the benchmark's
    # tolerance fails here, before a benchmark run does; the configs, the
    # reference and the comparison are the benchmark's own
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import checks
    import workloads

    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    names = workloads.config_names("matrix-suite")
    misses = []
    for name in names:
        headline = run_config(f"{name}.json", tmp_path_factory).summary["headline"]
        problems = []
        checks._check_reference(headline, reference[name], problems)
        misses += [f"{name}: {problem}" for problem in problems]
    emit(
        "matrix-reference",
        not misses,
        "%d matrix-suite configs against perfbench/reference.json: %s"
        % (len(names), "; ".join(misses) or "every headline within %g rel + %g abs" % (checks.REL_TOL, checks.ABS_TOL)),
    )
    assert not misses

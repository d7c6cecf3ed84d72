"""Outside-in tracing of aqtrain's layers.

The tracer wraps public functions and methods of the aqtrain modules (and
numpy's dense eigensolvers, the kernel under every dense step) from the
benchmark's own code; nothing under ``src/`` is edited.  A function that
other modules imported by name is replaced in every aqtrain namespace that
holds it, so ``from .engine import evolve_adiabatic`` call sites are traced
too.

Each wrapped call is a span.  A layer's ``seconds`` and ``calls`` count only
its outermost spans (a call nested inside another call of the same layer is
part of the outer one), so ``seconds`` is inclusive time.  A span's self
time is its duration minus the durations of the spans it directly contains.
Totals are kept in memory and read once, when the pass is over.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.maxima = defaultdict(int)
        self.runs_with = defaultdict(int)
        self.config_seconds = {}
        self._depth = defaultdict(int)
        self._stack = []  # per open span: [seconds covered by its direct child spans]
        self._run_layers = None  # layers entered inside the current run_experiment
        self._undo = []

    # -- wrapping --------------------------------------------------------------------

    def _span(self, layer, original, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._run_layers is not None:
                tracer._run_layers.add(layer)
            outermost = tracer._depth[layer] == 0
            tracer._depth[layer] += 1
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer._depth[layer] -= 1
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer.self_seconds[layer] += elapsed - frame[0]
                if outermost:
                    tracer.seconds[layer] += elapsed
                    tracer.calls[layer] += 1
            if after is not None:
                after(args, kwargs)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _counter(self, layer, original):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    def _replace_everywhere(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _replace_method(self, cls, name, wrapper, original):
        setattr(cls, name, wrapper)
        self._undo.append((cls, name, original))

    def install(self):
        """Wrap every traced layer; ``uninstall`` restores the originals."""
        import numpy as np

        from aqtrain import classical, datasets, engine, experiments, matrix_method, nn
        from aqtrain.pauli import PauliPolynomial
        from aqtrain.varpoly import VarPolynomial

        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("aqtrain") and m]

        functions = [
            ("engine.evolve_adiabatic", engine.evolve_adiabatic, self._after_adiabatic),
            ("engine.evolve_real_time", engine.evolve_real_time, None),
            ("engine.instantaneous_spectrum", engine.instantaneous_spectrum, None),
            ("nn.build_loss", nn.build_loss, None),
            ("nn.compile_hamiltonian", nn.compile_hamiltonian, None),
            ("nn.term_stats", nn.term_stats, None),
            ("nn.enumerate_weightspace", nn.enumerate_weightspace, None),
            ("nn.group_degenerate", nn.group_degenerate, None),
            ("nn.forward_configs", nn.forward_configs, None),
            ("matrix_method.ground_state", matrix_method.ground_state, None),
            ("matrix_method.momentum_to_position", matrix_method.momentum_to_position, None),
            ("classical.train_pool", classical.train_pool, self._after_train_pool(classical.train_pool)),
            ("datasets.build", datasets.circle_dataset, None),
            ("datasets.build", datasets.band_dataset, None),
            ("datasets.build", datasets.balanced_pixel_split, None),
            ("datasets.build", datasets.pixel_images, None),
            ("experiments.write", experiments.write_csv, self._after_write),
            ("experiments.write", experiments.write_json, self._after_write),
            ("experiments.write", datasets.write_dataset_csv, self._after_write),
            ("experiments.validate_config", experiments.validate_config, None),
        ]
        for layer, original, after in functions:
            self._replace_everywhere(modules, original, self._span(layer, original, after))

        run = experiments.run_experiment
        self._replace_everywhere(modules, run, self._run_span(run))

        for layer, name in (("kernel.eigh", "eigh"), ("kernel.eigvalsh", "eigvalsh")):
            original = getattr(np.linalg, name)
            self._replace_method(
                np.linalg, name, self._span(layer, original, self._after_dense(layer)), original
            )

        methods = [
            ("varpoly.substitute_encodings", VarPolynomial, "substitute_encodings"),
            ("pauli.diagonal", PauliPolynomial, "diagonal"),
            ("pauli.to_matrix", PauliPolynomial, "to_matrix"),
            ("matrix_method.hamiltonian", matrix_method.SchrodingerProblem, "hamiltonian"),
        ]
        for layer, cls, name in methods:
            original = vars(cls)[name]
            self._replace_method(cls, name, self._span(layer, original), original)
        mul = vars(VarPolynomial)["__mul__"]
        self._replace_method(VarPolynomial, "__mul__", self._counter("varpoly.mul", mul), mul)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- per-layer counters -------------------------------------------------------------

    def _run_span(self, original):
        span = self._span("experiments.run_experiment", original)
        tracer = self

        def wrapper(config, out_dir, *args, **kwargs):
            outer = tracer._run_layers
            tracer._run_layers = set()
            start = time.perf_counter()
            try:
                return span(config, out_dir, *args, **kwargs)
            finally:
                tracer.config_seconds[Path(out_dir).name] = time.perf_counter() - start
                for layer in tracer._run_layers:
                    tracer.runs_with[layer] += 1
                tracer._run_layers = outer

        wrapper.__wrapped__ = original
        return wrapper

    def _after_adiabatic(self, args, kwargs):
        spec = args[0] if args else kwargs["spec"]
        self.counters["engine.evolve_adiabatic.steps"] += spec.n_steps
        self.counters["engine.evolve_adiabatic.amp_steps"] += spec.n_steps * 2**spec.num_qubits

    def _after_dense(self, layer):
        def after(args, kwargs):
            dim = (args[0] if args else kwargs["a"]).shape[-1]
            self.counters["kernel.dense.n3"] += dim**3
            self.maxima[f"{layer}.dim_max"] = max(self.maxima[f"{layer}.dim_max"], dim)

        return after

    def _after_train_pool(self, train_pool):
        signature = inspect.signature(train_pool)

        def after(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            steps = bound.arguments["n_steps"] * len(list(bound.arguments["seeds"]))
            self.counters["classical.adam_steps"] += steps

        return after

    def _after_write(self, args, kwargs):
        self.counters["experiments.write.bytes"] += os.path.getsize(args[0])

    # -- read-out ---------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-pass figures keyed by per-layer metric name (see BENCHMARK.json)."""
        s, calls, counters = self.seconds, self.calls, self.counters

        def per_run(layer):
            runs = self.runs_with[layer]
            return calls[layer] / runs if runs else 0.0

        def per_unit_us(seconds, units):
            return seconds / units * 1e6 if units else 0.0

        steps = counters["engine.evolve_adiabatic.steps"]
        adam_steps = counters["classical.adam_steps"]
        out = {
            "engine.evolve_adiabatic.s": s["engine.evolve_adiabatic"],
            "engine.evolve_adiabatic.calls": calls["engine.evolve_adiabatic"],
            "engine.evolve_adiabatic.steps": steps,
            "engine.evolve_adiabatic.amp_steps": counters["engine.evolve_adiabatic.amp_steps"],
            "engine.step_us": per_unit_us(s["engine.evolve_adiabatic"], steps),
            "engine.evolve_real_time.s": s["engine.evolve_real_time"],
            "engine.instantaneous_spectrum.s": s["engine.instantaneous_spectrum"],
            "kernel.eigh.calls": calls["kernel.eigh"],
            "kernel.eigh.s": s["kernel.eigh"],
            "kernel.eigh.dim_max": self.maxima["kernel.eigh.dim_max"],
            "kernel.eigvalsh.calls": calls["kernel.eigvalsh"],
            "kernel.eigvalsh.s": s["kernel.eigvalsh"],
            "kernel.dense.n3": counters["kernel.dense.n3"],
            "nn.build_loss.s": s["nn.build_loss"],
            "nn.build_loss.calls": calls["nn.build_loss"],
            "nn.build_loss.calls_per_run": per_run("nn.build_loss"),
            "varpoly.mul.calls": calls["varpoly.mul"],
            "nn.compile_hamiltonian.s": s["nn.compile_hamiltonian"],
            "nn.compile_hamiltonian.calls_per_run": per_run("nn.compile_hamiltonian"),
            "varpoly.substitute_encodings.s": s["varpoly.substitute_encodings"],
            "varpoly.substitute_encodings.calls": calls["varpoly.substitute_encodings"],
            "nn.term_stats.s": s["nn.term_stats"],
            "pauli.diagonal.s": s["pauli.diagonal"],
            "pauli.diagonal.calls": calls["pauli.diagonal"],
            "pauli.to_matrix.s": s["pauli.to_matrix"],
            "pauli.to_matrix.calls": calls["pauli.to_matrix"],
            "nn.enumerate_weightspace.s": s["nn.enumerate_weightspace"],
            "nn.group_degenerate.s": s["nn.group_degenerate"],
            "nn.forward_configs.s": s["nn.forward_configs"],
            "nn.forward_configs.calls": calls["nn.forward_configs"],
            "matrix_method.hamiltonian.s": s["matrix_method.hamiltonian"],
            "matrix_method.ground_state.s": s["matrix_method.ground_state"],
            "matrix_method.momentum_to_position.s": s["matrix_method.momentum_to_position"],
            "matrix_method.momentum_to_position.calls": calls["matrix_method.momentum_to_position"],
            "classical.train_pool.s": s["classical.train_pool"],
            "classical.adam_steps": adam_steps,
            "classical.adam_step_us": per_unit_us(s["classical.train_pool"], adam_steps),
            "datasets.build.s": s["datasets.build"],
            "experiments.write.s": s["experiments.write"],
            "experiments.write.bytes": counters["experiments.write.bytes"],
            "experiments.self_s": self.self_seconds["experiments.run_experiment"],
            "experiments.validate_config.s": s["experiments.validate_config"],
        }
        return {name: float(value) for name, value in out.items()}

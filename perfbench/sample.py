"""One benchmark sample: a fresh interpreter that sets up and runs a workload once.

Usage: ``python3 perfbench/sample.py PLAN.json``, with ``src/`` of the
checkout on ``PYTHONPATH``.  The plan names the generated config files, the
output directory, and whether to trace, to stop after set-up (and whether
to warm the probe up then), and to compare headlines with the references.
The sample prints one JSON object:

- ``setup_s``: importing aqtrain plus loading and validating the configs,
  timed from before the first aqtrain or numpy import;
- ``wall_s``: from the first ``run_experiment`` call to the last return,
  file output included; ``config_s`` per config;
- ``speed_s``: :func:`probe_s` run just before the pass plus just after it,
  untimed by ``wall_s``; the runner divides ``wall_s`` by it;
- ``peak_rss_mb``: ``ru_maxrss`` of this process at the end of the pass;
- ``checks``: per config, from :mod:`checks`, run after the timed pass
  (untraced);
- ``layers``: per-layer figures of the pass, when traced.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

#: the probe's matrix size and call count, about 0.13 s on the reference machine
PROBE_DIM = 192
PROBE_CALLS = 12


def probe_s(eigh) -> float:
    """Seconds a fixed job takes on this machine right now: dense complex
    ``eigh`` calls on the pinned BLAS threads, the kernel every anneal steps with.

    The host this runs on slows down by up to a factor of two in phases of a
    few seconds, for reasons outside the benchmark.  On series of samples of
    every workload, dividing ``wall_s`` by this job's time steadied the
    medians more than dividing by the time of a dict-and-small-array
    interpreter job.  It calls no aqtrain code, so a
    change to aqtrain cannot move it.  ``eigh`` is ``numpy.linalg.eigh`` as
    bound before tracing, so that a traced sample does not count the
    probe's calls.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    h = rng.standard_normal((PROBE_DIM, PROBE_DIM)) + 1j * rng.standard_normal((PROBE_DIM, PROBE_DIM))
    h = h + h.conj().T
    start = time.perf_counter()
    for _ in range(PROBE_CALLS):
        eigh(h)
    return time.perf_counter() - start


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["src"]).resolve()

    import aqtrain.experiments as experiments
    import numpy as np

    eigh = np.linalg.eigh

    if src not in Path(experiments.__file__).resolve().parents:
        print(f"aqtrain was imported from {experiments.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer, setup_start = None, _START
    if plan["trace"]:
        from tracer import Tracer
        from workloads import ALL_CONFIGS

        tracer = Tracer()
        tracer.install()
        setup_start = time.perf_counter()
    configs = {}
    for name in plan["configs"]:
        config = json.loads((Path(plan["config_dir"]) / f"{name}.json").read_text())
        report = experiments.validate_config(config)
        if not report.ok:
            print(f"{name}: {'; '.join(report.errors)}", file=sys.stderr)
            return 2
        configs[name] = config
    setup_s = time.perf_counter() - setup_start
    if plan["setup_only"]:
        if plan["warm_up"]:
            probe_s(eigh)  # pages LAPACK in before the first timed probe
        print(json.dumps({"setup_s": setup_s}))
        return 0

    speed_s = probe_s(eigh)
    out = Path(plan["out_dir"])
    config_s, errors = {}, {}
    start = time.perf_counter()
    for name, config in configs.items():
        began = time.perf_counter()
        try:
            experiments.run_experiment(config, out / name)
        except Exception:  # a failing run is counted, not fatal to the sample
            errors[name] = traceback.format_exc()
        config_s[name] = time.perf_counter() - began
    wall_s = time.perf_counter() - start
    speed_s += probe_s(eigh)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        for name in ALL_CONFIGS:
            layers[f"experiments.run_experiment.{name}.s"] = tracer.config_seconds.get(name, 0.0)

    from checks import check_run

    references = plan["references"]
    checks = {}
    for name, config in configs.items():
        if name in errors:
            checks[name] = {"ok": False, "problems": [errors[name]], "success_prob": None}
        else:
            checks[name] = check_run(config, out / name, references.get(name))

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "speed_s": speed_s,
                "config_s": config_s,
                "peak_rss_mb": peak_rss_mb,
                "checks": checks,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""Outside-in benchmark of aqtrain: end-to-end figures of CLI-like runs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload binary-anneal --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --report

A run generates its workload's configs from ``--seed`` (see
:mod:`workloads`), then starts one fresh interpreter per sample, one at a
time, each with the BLAS thread count pinned to ``BLAS_THREADS`` (capped at
the usable cores).  A new sample starts while less than ``--seconds`` have
gone by, so there is always at least one and the last one may run past
``--seconds``.  Before them, one untimed interpreter compiles bytecode and
warms the file cache, and ``SETUP_SAMPLES`` more measure set-up alone.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, as medians
over the samples:

- ``wall_norm_s``: ``wall_s`` (first ``run_experiment`` call to last
  return, files included) at the reference machine speed: each sample's
  ``wall_s`` times ``SPEED_REF_S`` over that sample's ``speed_s``, the time
  a fixed probe job took in the same process just before and just after
  the pass (see ``sample.probe_s``).  The host slows down by up to a factor
  of two in phases of seconds to minutes, so medians of raw ``wall_s``
  over 20 s runs spread by up to 29% between runs of the same code; the
  probe follows those phases and the ratio far less (on binary-anneal,
  35 runs over an hour and a half spread 7% divided, 13% raw).  The raw
  ``wall_s`` median and the tails of both are printed above the result
  line and kept in the results record;
- ``setup_s``: importing aqtrain plus loading and validating the configs;
- ``peak_rss_mb``: the sample process's ``ru_maxrss``;
- ``success_prob``: the lowest, over the workload's anneal runs, of the
  final-state probability on the exact optimum (summed class probability at
  the enumerated optimum loss for network runs, ``ground_overlap`` for
  matrix anneals).  classical-pool has no anneal; there it is the pool's
  mean binarized training accuracy, the chance that one classical run labels
  one training image correctly;
- ``ok_frac``: the share of config runs passing :mod:`checks`.

``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of BENCHMARK.json (medians over traced passes), the
tracing overhead (traced minus untraced ``wall_norm_s``) and whether a traced
sample's data files are byte-identical to an untraced one's.

``--report`` runs every workload both ways plus one traced pass of all
twelve shipped configs (``accuracy_curves`` included), prints the
end-to-end table and writes the per-layer table and each config's time to
``.perfbench/report.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
environment included, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

BLAS_THREADS = 2
#: the median ``speed_s`` over ten-seed runs of every workload on the machine
#: the bounds were set on (2 vCPUs of an Intel Xeon at 2.1 GHz), so that
#: ``wall_norm_s`` reads close to the raw ``wall_s`` there
SPEED_REF_S = 0.26
SETUP_SAMPLES = 7
#: a run stops its samples by this many seconds after it starts
RUN_LIMIT_S = 170


class BenchmarkError(Exception):
    """The checkout cannot be benchmarked (missing sources or configs)."""


def blas_threads() -> int:
    return max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def environment() -> dict:
    """Interpreter, numpy and BLAS versions, pinned threads, cores and caches."""
    probe = (
        "import json, numpy as np\n"
        "blas = np.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'numpy': np.__version__, 'blas': blas.get('name'),"
        " 'blas_version': blas.get('version')}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, timeout=60
    )
    env = json.loads(done.stdout) if done.returncode == 0 else {}
    # glibc's _SC_LEVEL*_CACHE_SIZE numbers, which os.sysconf_names lacks
    caches = {}
    for label, number in (("l1d", 188), ("l2", 191), ("l3", 194)):
        try:
            caches[label] = os.sysconf(number)
        except (ValueError, OSError):
            caches[label] = None
    env.update(
        python=platform.python_version(),
        blas_threads=blas_threads(),
        nproc=len(os.sched_getaffinity(0)),
        cpu_count=os.cpu_count(),
        machine=platform.machine(),
        cache_bytes=caches,
        pythonhashseed="0",
    )
    return env


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- samples --------------------------------------------------------------------------


class Samples:
    """Plans and runs the sample interpreters of one benchmark run."""

    def __init__(self, workload: str, seed: int, work: Path):
        config_dir = ROOT / "configs"
        if not (ROOT / "src" / "aqtrain" / "experiments.py").is_file():
            raise BenchmarkError(f"no aqtrain sources under {ROOT / 'src'}")
        missing = [n for n in workloads.config_names(workload) if not (config_dir / f"{n}.json").is_file()]
        if missing:
            raise BenchmarkError(f"missing shipped configs {missing} under {config_dir}")
        self.work = work
        self.generated = work / "configs"
        self.generated.mkdir(parents=True)
        self.names = list(workloads.config_names(workload))
        # a reference headline applies where the generated config is the shipped one
        references = json.loads((HERE / "reference.json").read_text())
        self.references = {}
        for name, config in workloads.generate(workload, seed, config_dir).items():
            (self.generated / f"{name}.json").write_text(json.dumps(config, indent=2) + "\n")
            if config == json.loads((config_dir / f"{name}.json").read_text()):
                self.references[name] = references[name]
        self.env = child_env()
        self.count = 0
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def run(self, trace=False, setup_only=False, warm_up=False) -> dict:
        """One fresh interpreter; returns its record, with ``crashed`` set if it failed."""
        self.count += 1
        out_dir = self.work / f"sample{self.count}"
        plan = {
            "src": str(ROOT / "src"),
            "config_dir": str(self.generated),
            "configs": self.names,
            "out_dir": str(out_dir),
            "trace": trace,
            "setup_only": setup_only,
            "warm_up": warm_up,
            "references": self.references,
        }
        plan_path = self.work / f"plan{self.count}.json"
        plan_path.write_text(json.dumps(plan))
        began = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "sample.py"), str(plan_path)],
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - began),
            )
            record = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else None
            error = done.stderr[-2000:]
        except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
            record, error = None, repr(exc)
        if record is None:
            record = {"crashed": error}
        record["out_dir"] = out_dir
        record["elapsed_s"] = time.perf_counter() - began
        return record


def _tail(values: list) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p / 100 * n))
    return {"percentile": p, "value": sorted(values)[rank - 1]}


def _normed(record: dict) -> float:
    """A sample's ``wall_s`` at the reference machine speed."""
    return record["wall_s"] * SPEED_REF_S / record["speed_s"]


def _data_files(out_dir: Path) -> dict:
    """Every file a sample wrote; summary.json without ``wall_time_s``, the one
    value a rerun may change."""
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "summary.json":
                summary = json.loads(data)
                summary.pop("wall_time_s", None)
                data = json.dumps(summary, sort_keys=True).encode()
            files[str(path.relative_to(out_dir))] = data
    return files


def _sample_loop(samples: Samples, seconds: float, kinds: list) -> list:
    """Run samples, cycling through ``kinds``, while less than ``seconds`` went by.

    Every kind runs at least once.
    """
    records, began = [], time.perf_counter()
    while True:
        trace = kinds[len(records) % len(kinds)]
        record = samples.run(trace=trace)
        record["traced"] = trace
        records.append(record)
        now = time.perf_counter()
        if len(records) >= len(kinds) and (now - began >= seconds or now > samples.deadline):
            return records


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record, result line included."""
    spec = load_spec()
    work = OUT / "work" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        samples = Samples(workload, seed, work)
        samples.run(setup_only=True, warm_up=True)  # bytecode and file cache, not timed
        setups = [] if trace else [samples.run(setup_only=True) for _ in range(SETUP_SAMPLES)]
        records = _sample_loop(samples, seconds, [False, True] if trace else [False])
        untraced = [r for r in records if not r["traced"]]
        traced = [r for r in records if r["traced"]]
        neutral = None
        if trace:
            neutral = all(
                _data_files(untraced[0]["out_dir"]) == _data_files(r["out_dir"]) for r in traced
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    success = []
    for record in records:
        for name in samples.names:
            attempted += 1
            check = (record.get("checks") or {}).get(name)
            if not check or not check["ok"]:
                failed += 1
            elif check["success_prob"] is not None:
                success.append(check["success_prob"])

    ok = [r for r in untraced if "crashed" not in r]
    walls = [r["wall_s"] for r in ok]
    normed = [_normed(r) for r in ok]
    setup_values = [r["setup_s"] for r in setups + ok if "setup_s" in r]
    if trace:
        traced_ok = [r for r in traced if "crashed" not in r]
        layers = [r["layers"] for r in traced_ok]
        figures = {name: statistics.median(l[name] for l in layers) for name in layers[0]} if layers else {}
        traced_normed = [_normed(r) for r in traced_ok]
        figures["trace.overhead_s"] = (
            statistics.median(traced_normed) - statistics.median(normed) if normed and traced_normed else math.nan
        )
        declared = spec["per_layer"]
    else:
        figures = {
            "wall_norm_s": statistics.median(normed) if normed else math.nan,
            "setup_s": statistics.median(setup_values) if setup_values else math.nan,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok) if ok else math.nan,
            "success_prob": min(success) if success else math.nan,
            "ok_frac": (attempted - failed) / attempted,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": figures.get(m["name"], math.nan), "unit": m["unit"]} for m in declared}
    crashed = [r["crashed"] for r in records if "crashed" in r]
    result = {
        "correct": failed == 0 and not crashed and neutral is not False,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {
        "config_s": {n: statistics.median(r["config_s"][n] for r in ok) for n in samples.names} if ok else {},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "seeded_inputs": workloads.seeded(workload),
        "samples": len(walls),
        "traced_samples": len(records) - len(untraced),
        "wall_s_samples": walls,
        "wall_s_median": statistics.median(walls) if walls else math.nan,
        "wall_s_tail": _tail(walls),
        "speed_s_samples": [r["speed_s"] for r in ok],
        "wall_norm_s_samples": normed,
        "wall_norm_s_tail": _tail(normed),
        "setup_s_samples": setup_values,
        "tracing_neutral": neutral,
        "problems": {
            name: problems
            for r in records
            for name, check in (r.get("checks") or {}).items()
            if (problems := check["problems"])
        },
        "crashed": crashed,
        "result": result,
    }


# -- output ---------------------------------------------------------------------------


def _write_record(record: dict, env: dict) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    path.write_text(json.dumps({**record, "environment": env}, indent=2, sort_keys=True) + "\n")
    return path


def _print_summary(record: dict):
    tag = "traced" if record["trace"] else "untraced"
    print(f"{record['workload']} seed={record['seed']} {tag}: {record['samples']} untraced samples", end="")
    print(f", {record['traced_samples']} traced" if record["trace"] else "")
    for name, metric in record["result"]["metrics"].items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    if not record["trace"]:
        print(f"  {'wall_s (raw, not normalised)':48s} {record['wall_s_median']:.6g} s")
        for name in ("wall_norm_s", "wall_s"):
            tail = record[f"{name}_tail"]
            print(
                f"  {name} p{tail['percentile']} {tail['value']:.6g} s" if tail
                else f"  {name} tail: fewer than 11 samples ({record['samples']}), no percentile has ten beyond it"
            )
    else:
        print(f"  data files identical traced vs untraced: {record['tracing_neutral']}")
    for name, problems in record["problems"].items():
        print(f"  CHECK FAILED {name}: {problems[0]}")
    for crash in record["crashed"]:
        print(f"  SAMPLE CRASHED: {crash.strip().splitlines()[-1] if crash.strip() else '?'}")


def report(seed: int, seconds: float):
    """Every workload untraced and traced, plus a traced pass of all shipped configs."""
    env = environment()
    spec = load_spec()
    records = {}
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            record = run_workload(workload, seed, seconds, trace)
            _write_record(record, env)
            _print_summary(record)
            records[workload, trace] = record
    work = OUT / "work" / f"all-configs-{os.getpid()}"
    try:
        every = Samples("all-configs", 0, work).run(trace=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = [
        "# aqtrain per-layer table",
        "",
        f"seed {seed}, {seconds} s per run, {env.get('blas')} with {env['blas_threads']} threads, "
        f"Python {env['python']}, numpy {env.get('numpy')}, nproc {env['nproc']}",
        "",
        "| metric | unit | " + " | ".join(workloads.WORKLOADS) + " |",
        "| --- | --- | " + " | ".join("---:" for _ in workloads.WORKLOADS) + " |",
    ]
    for group, trace in (("end_to_end", False), ("per_layer", True)):
        for metric in spec[group]:
            cells = [
                f"{records[w, trace]['result']['metrics'][metric['name']]['value']:.6g}"
                for w in workloads.WORKLOADS
            ]
            lines.append(f"| {metric['name']} | {metric['unit']} | " + " | ".join(cells) + " |")
    lines += [
        "",
        "## One traced pass of every shipped config, in a fresh interpreter",
        "",
        "| config | s | checks |",
        "| --- | ---: | --- |",
    ]
    for name in workloads.ALL_CONFIGS:
        check = (every.get("checks") or {}).get(name, {})
        verdict = "ok" if check.get("ok") else "; ".join(check.get("problems", ["crashed"]))[:200]
        lines.append(f"| {name} | {every.get('config_s', {}).get(name, math.nan):.4g} | {verdict} |")
        print(f"all-configs traced {lines[-1]}")
    OUT.mkdir(exist_ok=True)
    (OUT / "report.md").write_text("\n".join(lines) + "\n")
    print(f"per-layer table written to {OUT / 'report.md'}")


def _exit_on_term(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the sample
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_term)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        if args.report:
            report(args.seed, seconds)
            return 0
        if args.workload is None:
            parser.error("--workload is required without --report")
        record = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except (BenchmarkError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment()
    _write_record(record, env)
    _print_summary(record)
    print(f"  environment {json.dumps(env, sort_keys=True)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

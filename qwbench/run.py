"""qwscatter benchmark: three closed-loop workloads, one client, checked results.

    python3 qwbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0
    python3 qwbench/run.py --smoke

Run from the root of a checkout.  Each workload runs in fresh worker
processes (``worker.py``) with single-threaded BLAS.  ``--trace 0``
times whole passes with nothing installed in the package; ``--trace 1``
repeats the passes with every public function of every module wrapped
(``tracing.py``) and reports per-layer figures.  The last line of
standard output is the result object; the line before it carries the
quartiles, sample counts, failures, known-defect probes, seed and
environment.  ``--smoke`` runs every workload at tiny sizes, checks that
every metric is printed with its unit, and that a corrupted reference is
reported as a failure.  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sweep-small", "large-interior", "zgrid-cli")

# Fresh set-up processes per run; one more runs first, untimed, so the
# byte-code cache and the page cache are warm for all of them.
SETUP_SAMPLES = 9
# Everything in one run must end within this many seconds.
DEADLINE_S = 170.0
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "wall_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


def _per_layer():
    units = {}
    for name in ("coins.eval_coins", "walk.assemble", "spectral.eigen_decompose",
                 "scattering.scattering_matrix.resolvent",
                 "scattering.scattering_matrix.expansion",
                 "scattering.generalized_eigenfunction", "scattering.pole_block",
                 "scattering.oracle_direct_solve", "cli.main"):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["line.line_to_graph.self_s"] = "s"
    units["modelfile.family_from_file.self_s"] = "s"
    units["spectral.eigen_decompose.n0_max"] = "count"
    units["spectral.biorth_resid_max"] = "1"
    units["spectral.eig_cond_max"] = "1"
    units["scattering.raised"] = "count"
    units["scattering.err_max.resolvent"] = "1"
    units["scattering.err_max.expansion"] = "1"
    units["scattering.unitarity_resid_max"] = "1"
    for table in ("width_table", "tunneling_table", "comfort_table",
                  "discrepancy_table", "remainder_table"):
        units[f"asymptotics.{table}.self_s"] = "s"
    units["asymptotics.peak_width.calls"] = "count"
    units["asymptotics.peak_width.smatrix_calls"] = "count"
    units["asymptotics.smatrix_per_width"] = "ratio"
    units["asymptotics.track_resonances.walk_calls"] = "count"
    units["cli.bytes_out"] = "B"
    for layer in ("coins", "graph", "walk", "models", "modelfile", "line",
                  "spectral", "scattering", "asymptotics", "cli", "bench"):
        units[f"layer.{layer}.self_s"] = "s"
    units["probe.failed"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


PER_LAYER = _per_layer()


class BenchError(RuntimeError):
    pass


def worker(deadline, workload, seed, mode, seconds=0.0, smoke=False, corrupt=False):
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--seconds", repr(float(seconds))]
    if smoke:
        argv.append("--smoke")
    if corrupt:
        argv.append("--corrupt")
    env = dict(os.environ, **PINNED_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker timed out") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {mode} worker printed nothing")
    return json.loads(lines[-1])


def _spread(values):
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(workload, seed, seconds, trace, smoke=False, corrupt=False):
    """One benchmark run; returns (details, result) as printed."""
    deadline = time.monotonic() + DEADLINE_S
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        base = worker(deadline, workload, seed, "run", seconds / 2, smoke, corrupt)
        traced = worker(deadline, workload, seed, "traced", seconds / 2, smoke, corrupt)
        runs = (base, traced)
        layers = traced["layers"]
        layers["trace.overhead_frac"] = (
            statistics.median(traced["norm_s"]) / statistics.median(base["norm_s"]) - 1.0)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        details["pass_s"] = {"untraced": _spread(base["pass_s"]),
                             "traced": _spread(traced["pass_s"])}
        details["trace"] = {k: v for k, v in layers.items() if k not in PER_LAYER}
        details["spans_file"] = traced["spans_file"]
    else:
        samples = 1 if smoke else SETUP_SAMPLES
        worker(deadline, workload, seed, "setup", smoke=smoke)
        setups = [worker(deadline, workload, seed, "setup", smoke=smoke)["setup_s"]
                  for _ in range(samples)]
        main = worker(deadline, workload, seed, "run", seconds, smoke, corrupt)
        runs = (main,)
        values = {
            "wall_norm_s": statistics.median(main["norm_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main["peak_rss_mb"],
            "pass_frac": 1.0 - main["failed"] / main["attempted"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        details["wall_s"] = _spread(main["pass_s"])
        details["wall_norm_s"] = _spread(main["norm_s"])
        details["slice_s"] = _spread(main["slice_s"])
        details["setup_s"] = _spread(setups)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    details.update(
        attempted=attempted,
        failed=failed,
        fail_frac=failed / attempted,
        failures=runs[-1]["failures"],
        known_failures=runs[-1]["probes"],
        err_max=runs[-1]["err_max"],
        environment=runs[-1]["environment"],
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return details, result


def smoke() -> int:
    """Tiny sizes, every workload, both modes, plus a corrupted reference."""
    problems = []
    declared = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(declared):
        with open(declared, encoding="utf-8") as handle:
            spec = json.load(handle)
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            if listed != table:
                problems.append(f"BENCHMARK.json {key} differs from run.py")
        if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
            details, result = measure(workload, 1, 0.0, trace, smoke=True)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != table:
                problems.append(f"{workload} trace={trace}: metrics or units differ")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: {details['failures']}")
            if trace and abs(details["trace"]["trace.accounted_frac"] - 1.0) > 1e-6:
                problems.append(f"{workload}: self times do not account for the pass")
        _, corrupted = measure(workload, 1, 0.0, 0, smoke=True, corrupt=True)
        if corrupted["correct"] or not corrupted["failed"]:
            problems.append(f"{workload}: a corrupted reference was not caught "
                            f"({corrupted['failed']} of {corrupted['attempted']} failed)")
        print(f"smoke {workload}: checked", flush=True)
    for problem in problems:
        print(f"smoke FAIL: {problem}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qwscatter", "__init__.py")):
        sys.stderr.write("qwbench: no src/qwscatter here; run from a checkout of the "
                         "repository\n")
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        details, result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        sys.stderr.write(f"qwbench: {exc}\n")
        return 1
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one fresh interpreter: set up, warm up, time passes, check.

    python3 qwbench/worker.py --workload NAME --seed N --mode MODE [--seconds S]

``--mode setup`` stops once the inputs are built; ``run`` times passes
with no wrappers installed; ``traced`` installs the wrappers from
``tracing`` first and reports per-layer figures.  The result is one
JSON object on the last line of standard output.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (imports qwscatter)

SCRATCH = os.path.join(ROOT, ".qwbench")
ASYMPTOTIC_TABLES = ("width_table", "tunneling_table", "comfort_table",
                     "discrepancy_table", "remainder_table")


# A calibration slice runs before the first operation of a pass, after
# the last, and before any operation that starts this many seconds of
# operation time after the previous slice.
CAL_EVERY_S = 0.5
# Seconds a calibration slice typically takes inside a worker on a 2-core
# x86-64 KVM guest at 2.1 GHz.  wall_norm_s rescales every pass to the
# machine speed at which a slice takes this long, so on that guest it
# reads close to the raw pass time.
CAL_REF_S = 0.045
_CAL_A = (np.random.default_rng(0).standard_normal((16, 16))
          + 1j * np.random.default_rng(1).standard_normal((16, 16)))
_CAL_B = _CAL_A[:, :3].copy()
_CAL_EYE = np.eye(16)
_CAL_M = (np.random.default_rng(2).standard_normal((96, 96))
          + 1j * np.random.default_rng(3).standard_normal((96, 96)))


def calibration_slice():
    """Seconds taken by a fixed piece of work that shares no code with
    qwscatter.  The host this benchmark was written on runs everything up
    to 2x slower for minutes at a time; timing this slice between the
    operations of a pass measures the machine's speed at that moment.
    Its mix is that of the workloads: float formatting, JSON and CSV
    round trips, small complex solves and one dense eigendecomposition.
    The garbage collector is paused so that the slice never pays for
    scanning the package's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        rows = [{"re": repr(i * 1e-3), "im": repr(i * -2e-3), "v": [i, i * 0.5]}
                for i in range(3000)]
        writer = csv.writer(io.StringIO())
        for row in json.loads(json.dumps(rows)):
            writer.writerow([row["re"], row["im"], row["v"][1]])
        total = 0.0
        for i in range(300):
            x = np.linalg.solve(_CAL_A + (i * 1e-3) * _CAL_EYE, _CAL_B)
            total += float(np.abs(x).max()) + (_CAL_A @ x).sum().real
        np.linalg.eig(_CAL_M)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_pass(workload, tracer=None):
    """Run every operation once; returns (seconds, slice_s, outcomes).

    ``seconds`` is the operations' own time.  ``slice_s`` is the mean
    time of the calibration slices run between them (see
    ``calibration_slice``), which are not part of ``seconds``."""
    outcomes = []
    seconds = 0.0
    slices = []
    since_slice = CAL_EVERY_S
    for op in workload.ops:
        if since_slice >= CAL_EVERY_S:
            slices.append(calibration_slice())
            since_slice = 0.0
        if tracer is not None:
            tracer.op = op.name
        start = perf_counter()
        try:
            outcomes.append((op.run(), None))
        except Exception as exc:  # a failed operation is counted, never fatal
            outcomes.append((None, exc))
        elapsed = perf_counter() - start
        seconds += elapsed
        since_slice += elapsed
    slices.append(calibration_slice())
    return seconds, statistics.fmean(slices), outcomes


def check_pass(workload, outcomes, tally):
    for op, (result, exc) in zip(workload.ops, outcomes):
        if exc is not None:
            verdict = workloads.Verdict(False, cause=f"raised {type(exc).__name__}")
        else:
            try:
                verdict = op.check(result)
            except Exception as check_exc:
                verdict = workloads.Verdict(
                    False, cause=f"check raised {type(check_exc).__name__}: {check_exc}")
        bucket = tally["probes"] if op.probe else tally["gated"]
        entry = bucket.setdefault(op.name, {"attempted": 0, "failed": 0, "causes": []})
        entry["attempted"] += 1
        if not verdict.ok:
            entry["failed"] += 1
            if verdict.cause not in entry["causes"]:
                entry["causes"].append(verdict.cause)
        if not op.probe and verdict.ok and verdict.route is not None:
            key = verdict.route
            tally["err_max"][key] = max(tally["err_max"].get(key, 0.0), verdict.err)


def layer_metrics(spans, pass_s, workload, outcomes, workdir):
    """Per-layer figures of one traced pass, named as in BENCHMARK.json."""
    import tracing

    selfs = tracing.self_times(spans)
    calls, self_s = {}, {}
    layer_self = {m: 0.0 for m in tracing.MODULES}
    raised = 0
    in_width = tracing.inside(spans, "asymptotics.peak_width")
    in_track = tracing.inside(spans, "asymptotics.track_resonances")
    smatrix_in_width = walk_in_track = 0
    root_time = 0.0
    for i, s in enumerate(spans):
        name = s[tracing.NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        layer = tracing.layer_of(name)
        layer_self[layer] += selfs[i]
        parent = s[tracing.PARENT]
        if parent < 0:
            root_time += s[tracing.END] - s[tracing.START]
        if layer == "scattering" and s[tracing.RAISED] and (
                parent < 0 or tracing.layer_of(spans[parent][tracing.NAME]) != "scattering"):
            raised += 1
        if in_width[i] and name.startswith("scattering.scattering_matrix."):
            smatrix_in_width += 1
        if in_track[i] and name == "models.ModelFamily.walk":
            walk_in_track += 1

    out = {}

    def add(prefix, *, count=True, time=True):
        if count:
            out[f"{prefix}.calls"] = calls.get(prefix, 0)
        if time:
            out[f"{prefix}.self_s"] = self_s.get(prefix, 0.0)

    for name in ("coins.eval_coins", "walk.assemble", "spectral.eigen_decompose",
                 "scattering.scattering_matrix.resolvent",
                 "scattering.scattering_matrix.expansion",
                 "scattering.generalized_eigenfunction", "scattering.pole_block",
                 "scattering.oracle_direct_solve", "cli.main"):
        add(name)
    add("modelfile.family_from_file", count=False)
    for table in ASYMPTOTIC_TABLES:
        add(f"asymptotics.{table}", count=False)
    add("asymptotics.peak_width", time=False)
    out["asymptotics.peak_width.smatrix_calls"] = smatrix_in_width
    width_calls = calls.get("asymptotics.peak_width", 0)
    out["asymptotics.smatrix_per_width"] = smatrix_in_width / width_calls if width_calls else 0.0
    out["asymptotics.track_resonances.walk_calls"] = walk_in_track
    out["scattering.raised"] = raised
    bench_self = pass_s - root_time
    for layer, value in layer_self.items():
        out[f"layer.{layer}.self_s"] = value
    out["layer.bench.self_s"] = bench_self
    out["trace.accounted_frac"] = (sum(layer_self.values()) + bench_self) / pass_s
    out["trace.spans"] = len(spans)
    if workload.name == "zgrid-cli":
        out["cli.bytes_out"] = workloads.output_bytes(workload, workdir, outcomes)
    else:
        out["cli.bytes_out"] = 0
    return out


def environment():
    from importlib.metadata import PackageNotFoundError, version

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        blas = "unknown"
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = "not installed"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.recording = True
        tracer.op = "setup"

    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        rng = np.random.default_rng(args.seed)
        workload = workloads.BUILDERS[args.workload](rng, args.smoke, workdir, args.corrupt)
        setup_s = perf_counter() - _T0
        result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
                  "setup_s": setup_s}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        setup_line_to_graph = 0.0
        if tracer is not None:
            selfs = tracing.self_times(tracer.spans)
            setup_line_to_graph = sum(
                t for s, t in zip(tracer.spans, selfs) if s[tracing.NAME] == "line.line_to_graph")
            tracer.reset()
            tracer.diagnose = True

        # untimed warm-up pass; in a traced run it also gathers the
        # accuracy diagnostics, which are too costly to run while timing
        run_pass(workload, tracer)
        if tracer is not None:
            tracer.diagnose = False
            tracer.reset()

        tally = {"gated": {}, "probes": {}, "err_max": {}}
        pass_s, slice_s, layers = [], [], []
        started = perf_counter()
        # stop within half a pass of the requested measuring time
        while not pass_s or perf_counter() - started + pass_s[-1] / 2 < args.seconds:
            seconds, slice_seconds, outcomes = run_pass(workload, tracer)
            pass_s.append(seconds)
            slice_s.append(slice_seconds)
            if tracer is not None:
                tracer.recording = False
                layers.append(layer_metrics(tracer.spans, seconds, workload, outcomes,
                                            workdir))
                last_spans = tracer.spans
                tracer.reset()
            check_pass(workload, outcomes, tally)
            if tracer is not None:
                tracer.recording = True

        gated = tally["gated"].values()
        result.update(
            pass_s=pass_s,
            slice_s=slice_s,
            norm_s=[p * CAL_REF_S / c for p, c in zip(pass_s, slice_s)],
            attempted=sum(e["attempted"] for e in gated),
            failed=sum(e["failed"] for e in gated),
            failures={k: e for k, e in tally["gated"].items() if e["failed"]},
            probes=tally["probes"],
            err_max=tally["err_max"],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            environment=environment(),
        )
        if tracer is not None:
            metrics = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
            metrics["line.line_to_graph.self_s"] = setup_line_to_graph
            metrics["spectral.eigen_decompose.n0_max"] = tracer.n0_max
            metrics["spectral.biorth_resid_max"] = tracer.biorth_resid_max
            metrics["spectral.eig_cond_max"] = tracer.eig_cond_max
            metrics["scattering.unitarity_resid_max"] = tracer.unitarity_resid_max
            for route in ("resolvent", "expansion"):
                metrics[f"scattering.err_max.{route}"] = tally["err_max"].get(route, 0.0)
            metrics["probe.failed"] = sum(
                e["failed"] for e in tally["probes"].values()) / len(pass_s)
            result["layers"] = metrics
            spans_path = os.path.join(SCRATCH, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracing.write_spans(last_spans, spans_path)
            result["spans_file"] = os.path.relpath(spans_path, ROOT)
        print(json.dumps(result))
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

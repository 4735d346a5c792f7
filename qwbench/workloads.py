"""The three workloads: seeded inputs, a fixed list of operations, references.

Every workload is built from ``numpy.random.default_rng(seed)``; the
package only ever sees the generated inputs.  An operation is a
callable run inside the timed pass; its ``check`` runs after the pass
and compares the result with a reference that shares no code with the
route under test (closed forms, ``barrier_scattering``, the direct
solve).  Probes are operations on a known defect (ROADMAP item 2): they
run and are checked every pass, but are reported on their own instead
of in the gated failure count.

Functions are looked up on their modules at call time (``sc.scattering_matrix``
rather than a name imported once), so the tracer's wrappers see them.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qwscatter.asymptotics as asy
import qwscatter.cli as qcli
import qwscatter.graph as qgraph
import qwscatter.line as qline
import qwscatter.modelfile as qmf
import qwscatter.models as qmodels
import qwscatter.scattering as sc
import qwscatter.spectral as sp
import qwscatter.walk as qwalk

# Reference tolerance on a scattering-matrix entry: 256 rounding units per
# interior arc, 256 * 2.2e-16 * n0.  Over 40 seeds the routes stayed at
# least 2.4x inside it (worst 2.8e-12 on the n0 = 120 triple barrier,
# 1.2e-13 on cycle8), while the expansion route's silent O(eps^2) miss on
# ms at eps = 1e-6 (1.0e-12 against 3.4e-13) counts as a failure.
SIGMA_TOL_ULPS = 256
# Tracked resonance moduli and phases against their closed forms.
TRACK_TOL = 1e-10
# Closed-form resonances of barrier lines and cycles against resonance_set.
RESONANCE_TOL = 1e-9
# Unitarity residual any report on the circle must stay below.
UNITARITY_TOL = 1e-10
# Relative agreement of the comfort bound with its closed form.
BOUND_REL_TOL = 1e-6
# Added to every reference when the run is asked to corrupt them.
CORRUPTION = 1e-6


def sigma_tol(n0: int) -> float:
    return SIGMA_TOL_ULPS * np.finfo(float).eps * n0


@dataclass
class Verdict:
    ok: bool
    err: float = 0.0
    route: str | None = None
    cause: str = ""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    probe: bool = False


@dataclass
class Workload:
    name: str
    ops: list


def _verdict(err: float, tol: float, route=None, what="reference") -> Verdict:
    ok = bool(np.isfinite(err) and err <= tol)
    cause = "" if ok else f"{what} error {err:.3e} > {tol:.1e}"
    return Verdict(ok, float(err), route, cause)


def _flag(summary: dict, key: str) -> Verdict:
    if summary.get(key) is True:
        return Verdict(True)
    return Verdict(False, cause=f"summary flag {key} = {summary.get(key)!r}")


def _all(*verdicts) -> Verdict:
    worst = max((v.err for v in verdicts), default=0.0)
    for v in verdicts:
        if not v.ok:
            return Verdict(False, worst, v.route, v.cause)
    return Verdict(True, worst, verdicts[0].route if verdicts else None)


# ---------------------------------------------------------------------------
# sweep-small


def _ms_modulus(eps):
    return math.sqrt(1.0 - 2.0 * eps * eps)


def _cycle_modulus(strengths, eps):
    tau = math.prod(math.sqrt(1.0 - (c * eps) ** 2) for c in strengths)
    return tau ** (1.0 / len(strengths))


def _track_check(rows, modulus, direction, offset) -> Verdict:
    """Tracked lambda_eps, read back from width_predicted = 2(1 - |lambda|)."""
    worst = 0.0
    seen = 0
    for row in rows:
        if row.quantity != "width_predicted":
            continue
        seen += 1
        got = 1.0 - row.value / 2.0
        worst = max(worst, abs(got - (modulus(row.eps) + offset)),
                    abs(row.z - direction))
    if not seen:
        return Verdict(False, cause="no width_predicted rows")
    return _verdict(worst, TRACK_TOL, what="tracked resonance")


def _line_power(spec, z) -> np.ndarray:
    """|Sigma|^2 of a barrier line: reflection on the diagonal, transmission off it."""
    out = qline.barrier_scattering(spec, z)
    t, r = out.transmission, out.reflection
    return np.array([[r, t], [t, r]])


def _crossing_discrepancy(strength, eps) -> float:
    """||Sigma(eps) - Sigma(0)|| for the crossing family's constant rotation."""
    ce = strength * eps
    return math.hypot(1.0 - math.sqrt(1.0 - ce * ce), ce)


def _sigma_check(got, want, n0, route) -> Verdict:
    return _verdict(float(np.max(np.abs(got - want))), sigma_tol(n0), route)


def sweep_small(rng, smoke: bool, workdir: str, corrupt: bool) -> Workload:
    n_eps = 5 if smoke else 25
    n_z = 8 if smoke else 64
    lo = 1e-3 * math.exp(rng.uniform(-0.05, 0.05))
    hi = 1e-1 * math.exp(rng.uniform(-0.05, 0.05))
    grid = np.geomspace(lo, hi, n_eps)
    c4 = [float(c) for c in rng.uniform(0.95, 1.05, 4)]
    c8 = [float(c) for c in rng.uniform(0.95, 1.05, 8)]
    cross_c = 0.8
    ms = qmodels.matrix_schrodinger_family()
    cyc4 = qmodels.cycle_family(4, c4)
    cyc8 = qmodels.cycle_family(8, c8)
    cross = qmodels.crossing_family(cross_c)
    off = CORRUPTION if corrupt else 0.0

    def c4_mod(eps):
        return _cycle_modulus(c4, eps)

    def bound(m):
        return (1.0 + m) * m * m / (1.0 - m)

    def comfort_check(modulus):
        def check(out):
            rows, summary = out
            worst = 0.0
            for row in rows:
                if row.quantity == "comfort_bound":
                    want = bound(modulus(row.eps)) * (1.0 + off)
                    worst = max(worst, abs(row.value / want - 1.0))
            return _all(_flag(summary, "growth_band_pass"),
                        _verdict(worst, BOUND_REL_TOL, what="comfort bound"))
        return check

    def discrepancy_check(out):
        rows, summary = out
        worst = 0.0
        for row in rows:
            want = _crossing_discrepancy(cross_c, row.eps) + off
            worst = max(worst, abs(row.value - want))
        return _all(_flag(summary, "slope_in_band"),
                    _verdict(worst, sigma_tol(2), what="discrepancy"))

    def remainder_check(out):
        rows, summary = out
        if len(rows) != n_eps or summary.get("n_grid") != n_z:
            return Verdict(False, cause="remainder table has the wrong shape")
        return _flag(summary, "finite")

    ops = [
        Op("width:ms",
           lambda: asy.width_table(ms, 1j, (1,), grid),
           lambda out: _all(_flag(out[1], "width_band_pass"),
                            _track_check(out[0], _ms_modulus, 1j, off))),
        Op("width:cycle4",
           lambda: asy.width_table(cyc4, 1.0, (1, 2), grid),
           lambda out: _all(_flag(out[1], "width_band_pass"),
                            _track_check(out[0], c4_mod, 1.0, off))),
        Op("tunneling:ms",
           lambda: asy.tunneling_table(ms, 1j, (1,), grid),
           lambda out: _all(_flag(out[1], "peak_band_pass"),
                            _track_check(out[0], _ms_modulus, 1j, off))),
        Op("comfort:ms", lambda: asy.comfort_table(ms, 1j, grid),
           comfort_check(_ms_modulus)),
        Op("comfort:cycle4", lambda: asy.comfort_table(cyc4, 1.0, grid),
           comfort_check(c4_mod)),
        Op("discrepancy:crossing",
           lambda: asy.discrepancy_table(cross, 1j, grid), discrepancy_check),
        Op("remainder:ms:resolvent",
           lambda: asy.remainder_table(ms, grid, n_z, "resolvent"),
           remainder_check),
        Op("remainder:cycle8:expansion",
           lambda: asy.remainder_table(cyc8, grid, n_z, "expansion"),
           remainder_check),
    ]

    # Tiny-eps probes: the hidden ms resonances sit within 1e-8 of the
    # circle here, which the seed misclassifies as bound states.
    z_probe = (0.7 + 0.1j) / abs(0.7 + 0.1j)
    n0_ms = ms.graph.n_arcs
    for eps in (1e-4, 1e-6, 1e-8):
        for route in ("resolvent", "expansion"):
            def run(eps=eps, route=route):
                return sc.scattering_matrix(ms(eps), z_probe, route).matrix

            def check(got, eps=eps, route=route):
                want = qmodels.closed_form_sigma_ms(eps, z_probe) + off
                return _sigma_check(got, want, n0_ms, route)

            ops.append(Op(f"probe:smatrix:ms:{route}:eps={eps:g}", run, check, True))

    def tunneling_probe_check(report):
        eps = report.eps
        return _all(
            _verdict(abs(report.lambda_eps - 1j * (_ms_modulus(eps) + off)),
                     TRACK_TOL, what="tracked resonance"),
            Verdict(report.t_at_peak >= 1.0 - 10.0 * eps, cause="peak below band"),
        )

    ops.append(Op("probe:tunneling_check:ms:eps=1e-05",
                  lambda: asy.tunneling_check(ms, 1e-5, 1j, (1,)),
                  tunneling_probe_check, True))
    return Workload("sweep-small", ops)


# ---------------------------------------------------------------------------
# large-interior


def _rotation_spec(rng, positions):
    coins = tuple(qline.rotation_coin(float(r))
                  for r in rng.uniform(0.6, 0.9, len(positions)))
    return qline.BarrierSpec(tuple(positions), coins)


def _regular_digraph(rng, n_vertices: int, n_tails: int):
    """Random strongly connected 2-regular digraph with tails at distinct vertices.

    The arcs are v -> p(v) and v -> q(v) for two random permutations
    without fixed points and with p(v) != q(v); every vertex then has
    in- and out-degree 2, so n0 = 2 * n_vertices exactly.
    """
    names = [f"v{i}" for i in range(n_vertices)]
    while True:
        p = rng.permutation(n_vertices)
        q = rng.permutation(n_vertices)
        idx = np.arange(n_vertices)
        if np.any(p == idx) or np.any(q == idx) or np.any(p == q):
            continue
        if _strongly_connected(p, q):
            break
    arcs = [(names[v], names[int(t)]) for v in range(n_vertices) for t in (p[v], q[v])]
    anchors = rng.choice(n_vertices, size=n_tails, replace=False)
    tails = [(k + 1, names[int(v)], names[int(v)]) for k, v in enumerate(anchors)]
    graph = qgraph.build_graph(names, arcs, tails)
    coins = {v: _haar(rng, graph.degree(v)) for v in graph.vertices}
    return graph, coins


def _strongly_connected(p, q) -> bool:
    n = len(p)

    def reach(succ):
        seen = {0}
        todo = [0]
        while todo:
            v = todo.pop()
            for w in succ(v):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == n

    inv_p, inv_q = np.argsort(p), np.argsort(q)
    return reach(lambda v: (int(p[v]), int(q[v]))) and reach(
        lambda v: (int(inv_p[v]), int(inv_q[v])))


def _haar(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _matched(closed, values) -> float:
    values = np.asarray(values)
    return max((float(np.min(np.abs(values - c))) for c in closed), default=0.0)


def large_interior(rng, smoke: bool, workdir: str, corrupt: bool) -> Workload:
    x_a, x_b = (8, 16) if smoke else (40, 80)
    triple_at = (0, 6, 12) if smoke else (0, 30, 60)
    n_cycle = 16 if smoke else 64
    n_graph = 10 if smoke else 50
    n_z = 2 if smoke else 4
    off = CORRUPTION if corrupt else 0.0

    lines = {
        f"line{x_a}": _rotation_spec(rng, (0, x_a)),
        f"line{x_b}": _rotation_spec(rng, (0, x_b)),
        "triple": _rotation_spec(rng, triple_at),
    }
    # name -> (interior size n0, walk builder run inside the timed pass)
    builders = {}
    for name, spec in lines.items():
        graph, coins = qline.line_to_graph(spec)
        family = qmodels.ModelFamily(name, graph, coins, math.inf)
        builders[name] = (graph.n_arcs, lambda family=family: family.walk(0.0))
    c_cycle = [float(c) for c in rng.uniform(0.9, 1.1, n_cycle)]
    eps_cycle = float(rng.uniform(0.1, 0.3))
    cycle = qmodels.cycle_family(n_cycle, c_cycle)
    builders[f"cycle{n_cycle}"] = (cycle.graph.n_arcs, lambda: cycle.walk(eps_cycle))
    dg_graph, dg_coins = _regular_digraph(rng, n_graph, 4)
    builders["digraph"] = (dg_graph.n_arcs, lambda: qwalk.assemble(dg_graph, dg_coins))

    def lines_reference(spec, z, n0):
        def check(report):
            power = np.abs(report.matrix) ** 2
            return _sigma_check(power, _line_power(spec, z) + off, n0, report.route)
        return check

    def cycle_reference(z, n0):
        def check(report):
            want = qmodels.closed_form_sigma_cycle(n_cycle, c_cycle, eps_cycle, z) + off
            return _sigma_check(report.matrix, want, n0, report.route)
        return check

    def direct_reference(state, z, n0):
        def check(report):
            walk = state["walk"]
            want = np.zeros((walk.n_tails, walk.n_tails), dtype=complex)
            for k in range(walk.n_tails):
                amp = np.zeros(walk.n_tails, dtype=complex)
                amp[k] = 1.0
                want[:, k] = sc.oracle_direct_solve(walk, z, amp)[1]
            return _sigma_check(report.matrix, want + off, n0, report.route)
        return check

    ops = []
    for name, (n0, build) in builders.items():
        state = {}
        if name in lines and len(lines[name].positions) == 2:
            closed = [v + off for v in qline.double_barrier(lines[name], 1j).resonances]
        elif name.startswith("cycle"):
            modulus = _cycle_modulus(c_cycle, eps_cycle)
            closed = [modulus * cmath.exp(2j * cmath.pi * k / n_cycle) + off
                      for k in range(n_cycle)]
        else:
            closed = []

        def run_resonances(build=build, state=state):
            state.clear()
            walk = build()
            resonances, system = sp.resonance_set(walk)
            state.update(walk=walk, system=system)
            return resonances

        def check_resonances(resonances, n0=n0, closed=closed):
            total = sum(r.multiplicity for r in resonances)
            if total != n0:
                return Verdict(False, cause=f"multiplicities sum to {total}, not {n0}")
            if any(r.on_unit_circle or abs(r.value) >= 1.0 for r in resonances):
                return Verdict(False, cause="resonance on or outside the circle")
            values = [r.value for r in resonances]
            return _verdict(_matched(closed, values), RESONANCE_TOL,
                            what="closed-form resonance")

        ops.append(Op(f"resonances:{name}", run_resonances, check_resonances))
        for k in range(n_z):
            z = cmath.exp(2j * cmath.pi * float(rng.random()))
            if name in lines:
                reference = lines_reference(lines[name], z, n0)
            elif name.startswith("cycle"):
                reference = cycle_reference(z, n0)
            else:
                reference = direct_reference(state, z, n0)

            def check(report, reference=reference):
                residual = report.unitarity_residual
                if residual is None or residual > UNITARITY_TOL:
                    return Verdict(False, route=report.route,
                                   cause=f"unitarity residual {residual}")
                return reference(report)

            for route in ("resolvent", "expansion"):
                def run(z=z, route=route, state=state):
                    if "system" not in state:
                        raise RuntimeError("no decomposition: resonance op failed")
                    return sc.scattering_matrix(state["walk"], z, route, state["system"])

                ops.append(Op(f"smatrix:{name}:{route}:{k}", run, check))
    return Workload("large-interior", ops)


# ---------------------------------------------------------------------------
# zgrid-cli


def _read_rows(path, fmt):
    """Header and rows of a CLI output file, which is then removed so a
    later pass cannot pass on a stale file."""
    with open(path, encoding="utf-8") as handle:
        if fmt == "json":
            document = json.load(handle)
            header, rows = document["columns"], document["rows"]
        else:
            reader = csv.reader(handle)
            header = next(reader)
            rows = list(reader)
    os.remove(path)
    return header, rows


def _matrices(path, fmt):
    """Parse smatrix output back into {z: (eps, Sigma)}."""
    header, rows = _read_rows(path, fmt)
    col = {name: i for i, name in enumerate(header)}
    out = {}
    for row in rows:
        z = complex(float(row[col["z_re"]]), float(row[col["z_im"]]))
        eps = float(row[col["eps"]])
        out.setdefault(z, (eps, {}))[1][(int(row[col["row"]]), int(row[col["col"]]))] = (
            complex(float(row[col["value_re"]]), float(row[col["value_im"]])))
    result = {}
    for z, (eps, entries) in out.items():
        n = max(r for r, _ in entries)
        sigma = np.zeros((n, n), dtype=complex)
        for (r, c), value in entries.items():
            sigma[r - 1, c - 1] = value
        result[z] = (eps, sigma)
    return result


def zgrid_cli(rng, smoke: bool, workdir: str, corrupt: bool) -> Workload:
    grids = (16, 32, 16, 32, 8) if smoke else (256, 1024, 128, 512, 64)
    n_eps = 5 if smoke else 25
    x_file = 6 if smoke else 20
    off = CORRUPTION if corrupt else 0.0
    eps = {
        "cycle16": float(rng.uniform(0.05, 0.3)),
        "ms": float(rng.uniform(0.05, 0.5)),
        "cycle8": float(rng.uniform(0.05, 0.3)),
        "crossing": float(rng.uniform(0.05, 0.9)),
    }
    lo = 1e-3 * math.exp(rng.uniform(-0.05, 0.05))
    hi = 1e-1 * math.exp(rng.uniform(-0.05, 0.05))
    spec = _rotation_spec(rng, (0, x_file))
    model_path = os.path.join(workdir, f"line{x_file}.json")
    qmf.save_model(*qline.line_to_graph(spec), model_path)
    cross_c = 0.8

    def out_path(tag):
        return os.path.join(workdir, f"{tag}.out")

    def invoke(argv):
        def run():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = qcli.main(argv)
            return code, stdout.getvalue()
        return run

    def smatrix_check(tag, fmt, n0, reference, count, route):
        def check(out):
            code, _ = out
            if code != 0:
                return Verdict(False, route=route, cause=f"exit code {code}")
            parsed = _matrices(out_path(tag), fmt)
            if len(parsed) != count:
                return Verdict(False, route=route, cause=f"{len(parsed)} z points, want {count}")
            worst = 0.0
            for z, (e, sigma) in parsed.items():
                worst = max(worst, float(np.max(np.abs(sigma - reference(e, z) - off))))
            return _verdict(worst, sigma_tol(n0), route)
        return check

    def line_check(out):
        code, _ = out
        if code != 0:
            return Verdict(False, route="resolvent", cause=f"exit code {code}")
        parsed = _matrices(out_path("modelfile"), "csv")
        if len(parsed) != grids[4]:
            return Verdict(False, route="resolvent", cause="wrong number of z points")
        worst = max(float(np.max(np.abs(np.abs(sigma) ** 2 - _line_power(spec, z) - off)))
                    for z, (e, sigma) in parsed.items())
        return _verdict(worst, sigma_tol(2 * x_file), "resolvent")

    def discrepancy_check(out):
        code, stdout = out
        if code != 0:
            return Verdict(False, cause=f"exit code {code}")
        summary = json.loads(stdout)
        header, rows = _read_rows(out_path("discrepancy"), "csv")
        if len(rows) != n_eps:
            return Verdict(False, cause=f"{len(rows)} rows, want {n_eps}")
        worst = 0.0
        for row in rows:
            want = _crossing_discrepancy(cross_c, float(row[header.index("eps")])) + off
            worst = max(worst, abs(float(row[header.index("value")]) - want))
        return _all(_flag(summary, "slope_in_band"),
                    _verdict(worst, sigma_tol(2), what="discrepancy"))

    def cycle_ref(n):
        return lambda e, z: qmodels.closed_form_sigma_cycle(n, [1.0] * n, e, z)

    ops = [
        Op("cli:smatrix:cycle16",
           invoke(["smatrix", "--model", "cycle", "--N", "16", "--eps", repr(eps["cycle16"]),
                   "--z-grid", str(grids[0]), "--out", out_path("cycle16")]),
           smatrix_check("cycle16", "csv", 16, cycle_ref(16), grids[0], "resolvent")),
        Op("cli:smatrix:ms:expansion",
           invoke(["smatrix", "--model", "ms", "--eps", repr(eps["ms"]),
                   "--z-grid", str(grids[1]), "--route", "expansion",
                   "--out", out_path("ms")]),
           smatrix_check("ms", "csv", 6, qmodels.closed_form_sigma_ms, grids[1], "expansion")),
        Op("cli:smatrix:cycle8:check-routes",
           invoke(["smatrix", "--model", "cycle", "--N", "8", "--eps", repr(eps["cycle8"]),
                   "--z-grid", str(grids[2]), "--check-routes", "--out", out_path("cycle8")]),
           smatrix_check("cycle8", "csv", 8, cycle_ref(8), grids[2], "resolvent")),
        Op("cli:smatrix:crossing:json",
           invoke(["smatrix", "--model", "crossing", "--c", repr(cross_c),
                   "--eps", repr(eps["crossing"]), "--z-grid", str(grids[3]),
                   "--format", "json", "--out", out_path("crossing")]),
           smatrix_check("crossing", "json", 2,
                         lambda e, z: qmodels.closed_form_sigma_crossing(e, z, cross_c),
                         grids[3], "resolvent")),
        Op("cli:sweep:discrepancy:crossing",
           invoke(["sweep", "discrepancy", "--model", "crossing", "--c", repr(cross_c),
                   "--z", "i", "--eps-grid", f"{lo!r}:{hi!r}:{n_eps}",
                   "--out", out_path("discrepancy")]),
           discrepancy_check),
        Op("cli:smatrix:modelfile",
           invoke(["smatrix", "--model", model_path, "--z-grid", str(grids[4]),
                   "--out", out_path("modelfile")]),
           line_check),
    ]
    return Workload("zgrid-cli", ops)


def output_bytes(workload: Workload, workdir: str, outcomes) -> int:
    """Bytes the CLI wrote in one pass: its output files plus captured stdout."""
    total = 0
    for name in os.listdir(workdir):
        if name.endswith(".out"):
            total += os.path.getsize(os.path.join(workdir, name))
    for result, exc in outcomes:
        if exc is None and isinstance(result, tuple) and len(result) == 2 \
                and isinstance(result[1], str):
            total += len(result[1].encode("utf-8"))
    return total


BUILDERS = {
    "sweep-small": sweep_small,
    "large-interior": large_interior,
    "zgrid-cli": zgrid_cli,
}

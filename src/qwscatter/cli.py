"""Command-line front end.

    qwscatter validate   --model model.json
    qwscatter resonances --model ms --eps 0.5
    qwscatter resonances --model ms --eps-grid 0.01:0.5:40 --track
    qwscatter smatrix    --model cycle --N 4 --c 1 --eps 0.3 --z-grid 16
    qwscatter sweep discrepancy --model ms --z 0.921+0.390i
    qwscatter sweep tunneling   --model ms --J 1
    qwscatter sweep width       --model cycle --N 4 --c 1 --J 1
    qwscatter sweep comfort     --model cycle --N 4 --c 1
    qwscatter barrier --r 0.8,0.8 --positions 0,1 --z-grid 720 --check-routes

Models are either builtin names (the keys of ``models.BUILTIN_FAMILIES``)
or paths to JSON model files.  Numbers print with 17 significant digits so CSV
output round-trips doubles losslessly; row order is deterministic (eps
ascending, then z by angle, then row-major matrix entries).

Exit codes: 0 success, 1 validation failure (any ``ValueError``), 2
numerical failure (any ``spectral.NumericalError``: tolerance breach),
3 usage error.
"""

from __future__ import annotations

import cmath
import csv
import io
import itertools
import json
import os
import sys

import click
import numpy as np

from . import asymptotics, modelfile
from .coins import eval_coins
from .line import BarrierSpec, barrier_scattering, line_to_graph, rotation_coin
from .models import BUILTIN_FAMILIES, ModelFamily
from .scattering import oracle_direct_solve, scattering_matrix
from .spectral import NumericalError, eigen_decompose, resonance_set
from .walk import assemble, free_routing_check

ROUTE_AGREEMENT_TOL = 1e-8


class RouteMismatch(NumericalError):
    """Independent scattering routes disagreed beyond tolerance."""


def _csv_field(text: str) -> str:
    """``text`` as one field of a CSV row, quoted by the csv module's rule."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, ""])
    return buffer.getvalue()[: -len(",\n")]


def _column_text(column) -> list:
    """The CSV cells of one column; each distinct value is formatted once.

    Floats print with 17 significant digits, so the CSV round-trips
    doubles; NaN marks an absent value (a unitarity residual off the
    circle) and prints as an empty cell.  Bools print as true/false and
    anything else as ``str``.  Distinct floats are found by bit pattern,
    not by value, so -0.0 keeps its sign.
    """
    column = np.asarray(column)
    floats = column.dtype == np.float64
    distinct, spread = np.unique(
        column.view(np.uint64) if floats else column, return_inverse=True
    )
    if floats:
        values = distinct.view(np.float64).tolist()
        text = ["" if v != v else format(v, ".17g") for v in values]
    elif column.dtype == bool:
        text = ["true" if v else "false" for v in distinct.tolist()]
    else:
        text = [_csv_field(str(v)) for v in distinct.tolist()]
    return np.array(text, dtype=object)[spread].tolist()


def _json_column(column) -> list:
    """One column as Python values; NaN (an absent value) becomes None."""
    return [None if v != v else v for v in np.asarray(column).tolist()]


def _write(chunks, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit(table, summary, out_path, fmt):
    """Write ``table``, a dict of equal-length columns keyed by header name.

    CSV goes column by column through :func:`_column_text`; JSON rows are
    built from Python values, so both read as a row-by-row writer would.
    """
    if fmt == "json":
        document = {
            "columns": list(table),
            "rows": [list(row) for row in zip(*map(_json_column, table.values()))],
        }
        if summary is not None:
            document["summary"] = summary
        _write([json.dumps(document, indent=2, sort_keys=True), "\n"], out_path)
        return
    rows = zip(*map(_column_text, table.values()))
    lines = itertools.chain([map(_csv_field, table)], rows)
    _write((",".join(cells) + "\n" for cells in lines), out_path)
    if summary is not None:
        text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        # keep a bare-stdout CSV stream machine-readable: the summary goes
        # to stderr unless the CSV went to a file
        (sys.stdout if out_path else sys.stderr).write(text)


def parse_complex_value(text: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("I", "i").replace("j", "i")
    if not cleaned:
        raise click.UsageError("empty complex number")
    try:
        return complex(cleaned.replace("i", "j"))
    except ValueError:
        raise click.UsageError(
            f"cannot parse complex number {text!r}; write e.g. 0.921+0.390i"
        )


def parse_eps_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError("--eps-grid wants START:STOP:COUNT (geometric)")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        return asymptotics.geometric_grid(start, stop, count)
    except ValueError as exc:
        raise click.UsageError(f"bad --eps-grid value: {exc}")


def parse_split(text: str) -> tuple:
    try:
        channels = tuple(sorted({int(part) for part in text.split(",") if part}))
    except ValueError:
        raise click.UsageError("--J wants a comma-separated list of channel numbers")
    if not channels:
        raise click.UsageError("--J must name at least one channel")
    return channels


def parse_numbers(text: str, kind, option: str) -> list:
    try:
        return [kind(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise click.UsageError(f"{option} wants a number or comma-separated numbers")


def load_family(model: str, n_vertices, strengths) -> ModelFamily:
    """Resolve ``--model``: a ``BUILTIN_FAMILIES`` key or a model file path."""
    if model == "ms":
        return BUILTIN_FAMILIES["ms"]()
    if model == "cycle":
        if n_vertices is None:
            raise click.UsageError("--model cycle needs --N")
        c = parse_numbers(strengths, float, "--c") if strengths else [1.0]
        if len(c) == 1:
            c = c * n_vertices
        if len(c) != n_vertices:
            raise click.UsageError(
                f"--c lists {len(c)} strengths but --N is {n_vertices}"
            )
        return BUILTIN_FAMILIES["cycle"](n=n_vertices, c=c)
    if model == "crossing":
        c = parse_numbers(strengths, float, "--c") if strengths else [1.0]
        if len(c) != 1:
            raise click.UsageError("--model crossing takes a single --c value")
        return BUILTIN_FAMILIES["crossing"](c=c[0])
    if os.path.exists(model):
        return modelfile.family_from_file(model)
    if os.sep in model or model.endswith(".json"):
        raise modelfile.ModelFileError(f"model file not found: {model}")
    raise click.UsageError(
        f"unknown model {model!r}: not a builtin ({', '.join(BUILTIN_FAMILIES)}) "
        "and no such file"
    )


_model_options = [
    click.option("--model", required=True, help="builtin name or model file path"),
    click.option("--N", "n_vertices", type=int, default=None, help="cycle size"),
    click.option(
        "--c",
        "strengths",
        default=None,
        help="coupling strength(s), comma separated",
    ),
]


def model_options(fn):
    for option in reversed(_model_options):
        fn = option(fn)
    return fn


def output_options(fn):
    fn = click.option("--out", default=None, help="write table to this path")(fn)
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["csv", "json"]),
        default="csv",
        help="output format",
    )(fn)
    return fn


@click.group()
def cli():
    """Scattering for quantum walks on graphs with semi-infinite tails."""


@cli.command()
@model_options
@click.option("--eps", type=float, default=0.0, help="evaluate coins at this eps")
def validate(model, n_vertices, strengths, eps):
    """Check balance, coin unitarity, and the eps=0 routing of a model."""
    checks = []
    failures = []

    def run(name, fn):
        try:
            detail = fn()
        except Exception as exc:  # collected, not raised: report all checks
            failures.append(
                {"check": name, "error": type(exc).__name__, "message": str(exc)}
            )
            checks.append({"name": name, "pass": False})
            return None
        entry = {"name": name, "pass": True}
        if detail:
            entry.update(detail)
        checks.append(entry)
        return detail

    family = {}

    def build():
        family["family"] = load_family(model, n_vertices, strengths)
        graph = family["family"].graph
        return {"vertices": len(graph.vertices), "arcs": graph.n_arcs,
                "tails": graph.n_tails}

    run("graph_balance", build)
    if family:
        fam = family["family"]

        def unitarity():
            eval_coins(fam.coins, eps)
            return {"eps": eps}

        run("coin_unitarity", unitarity)

        def routing():
            route = free_routing_check(fam.walk(0.0))
            return {
                "steps": list(route.steps),
                "phases": [[phase.real, phase.imag] for phase in route.phases],
            }

        run("free_routing", routing)
    report = {"model": model, "pass": not failures, "checks": checks}
    if failures:
        report["errors"] = failures
    click.echo(json.dumps(report, indent=2, sort_keys=True))
    return 0 if not failures else 1


def _resonance_table(family, eps_values):
    eps_column, values, multiplicity, on_circle = [], [], [], []
    for eps in eps_values:
        resonances, _ = resonance_set(family.walk(eps))
        ordered = sorted(
            resonances,
            key=lambda r: (round(cmath.phase(r.value), 12), abs(r.value)),
        )
        eps_column += [eps] * len(ordered)
        values += [res.value for res in ordered]
        multiplicity += [res.multiplicity for res in ordered]
        on_circle += [res.on_unit_circle for res in ordered]
    values = np.array(values, dtype=complex)
    return {
        "eps": np.array(eps_column, dtype=float),
        "re": values.real,
        "im": values.imag,
        "multiplicity": np.array(multiplicity, dtype=int),
        "on_circle": np.array(on_circle, dtype=bool),
    }


def _track_table(family, grid):
    """One row per (eps, resonance) along the paths that start at eps = 0."""
    track = asymptotics.track_resonances(family, np.concatenate([[0.0], grid]))
    n_eps, n_starts = track.paths.shape
    starts = np.repeat(np.array(track.starts, dtype=complex), n_eps)
    values = track.paths.T.reshape(-1)
    return {
        "eps": np.tile(track.eps_grid, n_starts),
        "start_re": starts.real,
        "start_im": starts.imag,
        "re": values.real,
        "im": values.imag,
        "abs": np.abs(values),
    }


@cli.command()
@model_options
@click.option("--eps", type=float, default=None)
@click.option("--eps-grid", "eps_grid", default=None, help="START:STOP:COUNT")
@click.option(
    "--track",
    is_flag=True,
    help="follow the eps=0 unit-circle resonances along --eps-grid",
)
@output_options
def resonances(model, n_vertices, strengths, eps, eps_grid, track, out, fmt):
    """List resonances (interior spectrum, zero included) per eps.

    ``on_circle`` is true for a resonance whose states do not couple to
    the tails: a bound state of the full walk.
    """
    family = load_family(model, n_vertices, strengths)
    if eps is not None and eps_grid is not None:
        raise click.UsageError("give either --eps or --eps-grid, not both")
    if eps_grid is not None:
        grid = parse_eps_grid(eps_grid)
    elif track:
        raise click.UsageError("--track needs --eps-grid")
    else:
        grid = np.array([0.0 if eps is None else eps])
    if track:
        table = _track_table(family, grid)
    else:
        table = _resonance_table(family, [float(e) for e in grid])
    _emit(table, None, out, fmt)
    return 0


def _require_agreement(worst, z):
    """The largest per-point disagreement; raises at the first point over tolerance."""
    over = worst > ROUTE_AGREEMENT_TOL
    if over.any():
        j = int(np.argmax(over))
        raise RouteMismatch(
            f"routes disagree by {worst[j]:.3e} at z = {complex(z[j]):.12g} "
            f"(tolerance {ROUTE_AGREEMENT_TOL:g})"
        )
    return float(worst.max())


def _route_check(walk, z, system, route, sigma):
    """Compare the stack ``sigma`` (from ``route``) with the other route and
    the direct solve, each run once over the whole array ``z``."""
    other_route = "expansion" if route == "resolvent" else "resolvent"
    other = scattering_matrix(walk, z, other_route, system).matrix
    _, direct = oracle_direct_solve(walk, z, np.eye(walk.n_tails))
    worst = np.maximum(
        np.abs(sigma - other).max(axis=(1, 2)), np.abs(sigma - direct).max(axis=(1, 2))
    )
    return _require_agreement(worst, z)


@cli.command()
@model_options
@click.option("--eps", type=float, default=0.0)
@click.option("--z", "z_text", default=None, help="single spectral parameter")
@click.option("--z-grid", "z_count", type=int, default=None, help="uniform circle grid size")
@click.option(
    "--route",
    type=click.Choice(["resolvent", "expansion"]),
    default="resolvent",
)
@click.option(
    "--check-routes",
    is_flag=True,
    help="cross-compare both routes and the direct solve; exit 2 on mismatch",
)
@output_options
def smatrix(
    model,
    n_vertices,
    strengths,
    eps,
    z_text,
    z_count,
    route,
    check_routes,
    out,
    fmt,
):
    """Print scattering-matrix entries at one or many spectral parameters."""
    family = load_family(model, n_vertices, strengths)
    if (z_text is None) == (z_count is None):
        raise click.UsageError("give exactly one of --z or --z-grid")
    if z_text is not None:
        points = [parse_complex_value(z_text)]
    else:
        if z_count < 1:
            raise click.UsageError("--z-grid must be positive")
        points = [cmath.exp(2j * cmath.pi * k / z_count) for k in range(z_count)]
    points = np.array(points, dtype=complex)
    walk = family.walk(eps)
    system = eigen_decompose(walk)
    report = scattering_matrix(walk, points, route, system)
    sigma = report.matrix
    if check_routes:
        _route_check(walk, points, system, route, sigma)
    # rows run over the points, then row-major over the matrix entries
    nt = sigma.shape[-1]
    cells = nt * nt
    index = np.arange(1, nt + 1)
    table = {
        "eps": np.full(sigma.size, float(eps)),
        "z_re": np.repeat(points.real, cells),
        "z_im": np.repeat(points.imag, cells),
        "row": np.tile(np.repeat(index, nt), len(points)),
        "col": np.tile(index, len(points) * nt),
        "value_re": sigma.real.reshape(-1),
        "value_im": sigma.imag.reshape(-1),
        "unitarity_residual": np.repeat(report.unitarity_residuals, cells),
    }
    _emit(table, None, out, fmt)
    return 0


@cli.group()
def sweep():
    """Sweep a quantity over an eps grid and report fits."""


def _sweep_table(rows):
    z = np.array([row.z for row in rows], dtype=complex)
    return {
        "eps": np.array([row.eps for row in rows], dtype=float),
        "z_re": z.real,
        "z_im": z.imag,
        "quantity": [row.quantity for row in rows],
        "value": np.array([row.value for row in rows], dtype=float),
    }


def _eps_values(eps_grid):
    return parse_eps_grid(eps_grid) if eps_grid is not None else None


def _pick_resonance(family, lam_text, eps_values):
    """Resolve --lambda, defaulting to the resonance that detaches fastest."""
    if lam_text is not None:
        return parse_complex_value(lam_text)
    grid = asymptotics._positive(eps_values)
    track = asymptotics.track_resonances(family, np.concatenate([[0.0], grid]))
    if not track.starts:
        raise click.UsageError(
            "the eps=0 walk has no unit-circle resonances to track"
        )
    finals = np.abs(track.paths[-1])
    best = int(np.argmin(finals))
    if finals[best] > 1.0 - 1e-12:
        raise click.UsageError(
            "every tracked resonance stays on the unit circle; "
            "pick one explicitly with --lambda"
        )
    return track.starts[best]


def _run_peak_table(table, family, lam_text, eps_grid, out, fmt, *split):
    """Run a peak table (tunneling, width, comfort) on the picked resonance."""
    eps_values = _eps_values(eps_grid)
    lam = _pick_resonance(family, lam_text, eps_values)
    rows, summary = table(family, lam, *split, eps_values)
    summary["lambda_re"] = lam.real
    summary["lambda_im"] = lam.imag
    _emit(_sweep_table(rows), summary, out, fmt)
    return 0


@sweep.command()
@model_options
@click.option("--z", "z_text", default=None, help="fixed circle point (default: auto non-resonant)")
@click.option("--eps-grid", "eps_grid", default=None, help="START:STOP:COUNT")
@click.option(
    "--route",
    type=click.Choice(["resolvent", "expansion"]),
    default="resolvent",
)
@output_options
def discrepancy(model, n_vertices, strengths, z_text, eps_grid, route, out, fmt):
    """Distance of the scattering matrix from its decoupled limit."""
    family = load_family(model, n_vertices, strengths)
    z = (
        parse_complex_value(z_text)
        if z_text is not None
        else asymptotics.nonresonant_point(family)
    )
    rows, summary = asymptotics.discrepancy_table(
        family, z, _eps_values(eps_grid), route
    )
    _emit(_sweep_table(rows), summary, out, fmt)
    return 0


@sweep.command()
@model_options
@click.option("--J", "split_text", required=True, help="incoming channels, e.g. 1,2")
@click.option("--lambda", "lam_text", default=None, help="resonance of the eps=0 walk to track")
@click.option("--eps-grid", "eps_grid", default=None, help="START:STOP:COUNT")
@output_options
def tunneling(model, n_vertices, strengths, split_text, lam_text, eps_grid, out, fmt):
    """Resonant-tunneling diagnostics at the tracked peak."""
    family = load_family(model, n_vertices, strengths)
    split = parse_split(split_text)
    return _run_peak_table(
        asymptotics.tunneling_table, family, lam_text, eps_grid, out, fmt, split
    )


@sweep.command()
@model_options
@click.option("--J", "split_text", required=True, help="incoming channels, e.g. 1,2")
@click.option("--lambda", "lam_text", default=None)
@click.option("--eps-grid", "eps_grid", default=None, help="START:STOP:COUNT")
@output_options
def width(model, n_vertices, strengths, split_text, lam_text, eps_grid, out, fmt):
    """Measured half-height peak widths against 2(1-|lambda_eps|)."""
    family = load_family(model, n_vertices, strengths)
    split = parse_split(split_text)
    return _run_peak_table(
        asymptotics.width_table, family, lam_text, eps_grid, out, fmt, split
    )


@sweep.command()
@model_options
@click.option("--lambda", "lam_text", default=None)
@click.option("--eps-grid", "eps_grid", default=None, help="START:STOP:COUNT")
@output_options
def comfort(model, n_vertices, strengths, lam_text, eps_grid, out, fmt):
    """Interior energy at the peak against its divergence-rate bound."""
    family = load_family(model, n_vertices, strengths)
    return _run_peak_table(asymptotics.comfort_table, family, lam_text, eps_grid, out, fmt)


@cli.command()
@click.option("--r", "r_text", required=True, help="rotation parameter per barrier, e.g. 0.8,0.8")
@click.option("--positions", "positions_text", required=True, help="barrier sites, the first at 0")
@click.option("--z-grid", "z_count", type=int, default=360, help="uniform circle grid size")
@click.option(
    "--check-routes",
    is_flag=True,
    help="cross-check the closed form against the graph pipeline; exit 2 on mismatch",
)
@output_options
def barrier(r_text, positions_text, z_count, check_routes, out, fmt):
    """Transmission and reflection of a two- or three-barrier line around the circle."""
    if z_count < 1:
        raise click.UsageError("--z-grid must be positive")
    strengths = parse_numbers(r_text, float, "--r")
    positions = parse_numbers(positions_text, int, "--positions")
    spec = BarrierSpec(positions, tuple(rotation_coin(r) for r in strengths))
    summary = {
        "peak_angles": [cmath.phase(p) for p in barrier_scattering(spec, 1j).peaks]
    }
    angles = [2.0 * cmath.pi * k / z_count for k in range(z_count)]
    points = [cmath.exp(1j * angle) for angle in angles]
    closed = [barrier_scattering(spec, z) for z in points]
    t = np.array([c.transmission for c in closed])
    r = np.array([c.reflection for c in closed])
    if check_routes:
        graph, coins = line_to_graph(spec)
        walk = assemble(graph, eval_coins(coins, 0.0))
        grid = np.array(points)
        sigma = scattering_matrix(walk, grid, "resolvent", eigen_decompose(walk)).matrix
        # |Sigma_12|^2 = |Sigma_21|^2 = t and |Sigma_11|^2 = |Sigma_22|^2 = r
        want = np.stack([np.stack([r, t], axis=1), np.stack([t, r], axis=1)], axis=1)
        deviation = np.abs(np.abs(sigma) ** 2 - want).max(axis=(1, 2))
        summary["graph_deviation_max"] = _require_agreement(deviation, grid)
    _emit({"angle": angles, "t": t, "r": r}, summary, out, fmt)
    return 0


def _show_error(kind: str, exc: Exception) -> None:
    payload = {
        "error": {
            "kind": kind,
            "type": type(exc).__name__,
            "message": str(exc),
        }
    }
    sys.stderr.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    try:
        result = cli.main(args=argv, standalone_mode=False)
        return int(result) if isinstance(result, int) else 0
    except click.exceptions.Exit as exc:  # --help and friends
        return int(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        return 3
    except click.Abort:
        return 3
    except click.ClickException as exc:
        exc.show()
        return 1
    except NumericalError as exc:
        _show_error("numerical", exc)
        return 2
    except ValueError as exc:
        _show_error("validation", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())

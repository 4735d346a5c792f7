"""Command-line front end.

    qwscatter validate   --model model.json
    qwscatter resonances --model ms --eps 0.5
    qwscatter resonances --model ms --eps-grid 0.01:0.5:40 --track
    qwscatter smatrix    --model cycle --N 4 --c 1 --eps 0.3 --z-grid 16
    qwscatter sweep discrepancy --model ms --z 0.921+0.390i
    qwscatter sweep tunneling   --model ms --J 1
    qwscatter sweep width       --model cycle --N 4 --c 1 --J 1,2
    qwscatter sweep comfort     --model cycle --N 4 --c 1
    qwscatter barrier --r 0.8,0.8 --positions 0,1 --z-grid 720 --check-routes

Models are either builtin names (``ms``, ``cycle`` and ``crossing``, built
by their ``models`` constructors) or paths to JSON model files.  Numbers
print with 17 significant digits so CSV output round-trips doubles
losslessly; JSON cells are Python's shortest round-trip ``repr``
(``null`` for an absent value, ``Infinity`` for an infinite one).  Each
distinct value is formatted once, and so is each point's and each
entry's text.  Row order is deterministic (eps ascending, then z by
angle, then row-major matrix entries), and tables of either format are
written in chunks of rows, never as one string.

Exit codes: 0 success, 1 validation failure (any ``ValueError``) or a
closed stdout, 2 numerical failure (any ``spectral.NumericalError``:
tolerance breach), 3 usage error.
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
from .models import ModelFamily, crossing_family, cycle_family, matrix_schrodinger_family
from .scattering import oracle_direct_solve, scattering_matrix
from .spectral import NumericalError, _resonances, eigen_decompose
from .walk import assemble, free_routing_check

ROUTE_AGREEMENT_TOL = 1e-8
ROWS_PER_CHUNK = 4096


class RouteMismatch(NumericalError):
    """Independent scattering routes disagreed beyond tolerance."""


def _csv_field(text: str) -> str:
    """``text`` as one field of a CSV row, quoted by the csv module's rule."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, ""])
    return buffer.getvalue()[: -len(",\n")]


# the row separator, row opening, cell separator and row end of each format;
# JSON rows sit in the document's top-level "rows" list, laid out as
# json.dumps(indent=2) lays them out
_LAYOUT = {
    "csv": ("", "", ",", "\n"),
    "json": (",", "\n    [\n      ", ",\n      ", "\n    ]"),
}


class _Keyed:
    """A column as its ``values`` and each row's ``index`` into them."""

    def __init__(self, values, index):
        self.values, self.index = np.asarray(values), index

    def __len__(self):
        return len(self.index)

    def __array__(self, dtype=None, copy=None):
        return self.values[self.index]


def _column_text(values, fmt, lead, sep) -> list:
    """The cell of each of ``values`` as ``lead + text + sep``.

    CSV floats print with 17 significant digits, so the CSV round-trips
    doubles; JSON floats print as Python's shortest round-trip ``repr``,
    with ``Infinity`` for an infinite value as ``json.dumps`` writes it.
    NaN marks an absent value (a unitarity residual off the circle) and
    prints as an empty CSV cell or JSON ``null``.  Bools print as
    true/false and integers as their ``str``; anything else as a quoted
    CSV field of its ``str`` or as its ``json.dumps``.
    """
    if values.dtype == np.float64:
        pattern = lead + ("%.17g" if fmt == "csv" else "%r") + sep
        text = list(map(pattern.__mod__, values.tolist()))
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            v = values.item(i)
            if v != v:
                text[i] = lead + ("" if fmt == "csv" else "null") + sep
            elif fmt == "json":
                text[i] = lead + json.dumps(v) + sep  # Infinity or -Infinity
        return text
    if values.dtype == bool:
        cell = lambda v: "true" if v else "false"
    elif values.dtype.kind in "iu":
        cell = str  # an integer never needs CSV quoting
    else:
        cell = (lambda v: _csv_field(str(v))) if fmt == "csv" else json.dumps
    return [lead + cell(v) + sep for v in values.tolist()]


def _row_chunks(table, fmt):
    """The rows of ``table`` as text, ``ROWS_PER_CHUNK`` rows per string.

    Each distinct value of a column (by bit pattern for floats, so -0.0
    keeps its sign) is formatted once.  A plain column is keyed by those
    values; a keyed column keeps its keys, each reading its value's text.
    Adjacent columns keyed by one index array are joined into one text per
    key, and each such run fills one column of a (rows, runs) grid by its
    index.  Each chunk is one join over a block of the grid.
    """
    row_sep, row_open, cell_sep, row_end = _LAYOUT[fmt]
    columns = list(table.values())
    last = len(columns) - 1
    runs = []  # [index, text per key] of each run of adjacent columns that share one index
    for j, column in enumerate(columns):
        keyed = isinstance(column, _Keyed)
        values = column.values if keyed else np.asarray(column)
        floats = values.dtype == np.float64
        distinct, inverse = np.unique(values.view(np.uint64) if floats else values, return_inverse=True)
        lead = row_sep + row_open if j == 0 else ""
        text = np.array(_column_text(distinct.view(np.float64) if floats else distinct, fmt, lead,
                                     row_end if j == last else cell_sep), dtype=object)
        index, text = (column.index, text[inverse]) if keyed else (inverse, text)
        if runs and runs[-1][0] is index:
            runs[-1][1] += text
        else:
            runs.append([index, text])
    grid = np.empty((len(columns[0]), len(runs)), dtype=object)
    for r, (index, text) in enumerate(runs):
        grid[:, r] = text[index]
    if len(grid):
        # the row separator goes before every row but the first
        grid[0, 0] = grid[0, 0][len(row_sep):]
    for start in range(0, len(grid), ROWS_PER_CHUNK):
        yield "".join(grid[start : start + ROWS_PER_CHUNK].reshape(-1).tolist())


def _write(chunks, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit(table, summary, out_path, fmt):
    """Write ``table``, a dict of equal-length columns keyed by header name.

    Both formats go column by column through :func:`_column_text` and
    are written in chunks of rows; the bytes are those of a row-by-row
    writer, and of ``json.dumps(indent=2, sort_keys=True)`` for JSON.
    """
    rows = _row_chunks(table, fmt)
    if fmt == "json":
        document = {"columns": list(table), "rows": []}
        if summary is not None:
            document["summary"] = summary
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
        if not len(next(iter(table.values()))):
            _write([text], out_path)
            return
        # "columns" sorts first and holds only strings, so this is the top-level key
        head, _, tail = text.partition('"rows": []')
        _write(itertools.chain([head + '"rows": ['], rows, ["\n  ]" + tail]), out_path)
        return
    _write(itertools.chain([",".join(map(_csv_field, table)) + "\n"], rows), out_path)
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
        value = complex(cleaned.replace("i", "j"))
    except ValueError:
        raise click.UsageError(
            f"cannot parse complex number {text!r}; write e.g. 0.921+0.390i"
        )
    if not cmath.isfinite(value):
        raise click.UsageError(f"complex number {text!r} is not finite")
    return value


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
    """Resolve ``--model``: a builtin name or a model file path.

    ``--N`` belongs to ``cycle`` and ``--c`` to ``cycle`` and ``crossing``;
    either one given to a model that would ignore it is a usage error.
    """
    if n_vertices is not None and model != "cycle":
        raise click.UsageError(f"--N applies only to --model cycle, not {model!r}")
    if strengths is not None and model not in ("cycle", "crossing"):
        raise click.UsageError(f"--c applies only to --model cycle or crossing, not {model!r}")
    if model == "ms":
        return matrix_schrodinger_family()
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
        return cycle_family(n_vertices, c)
    if model == "crossing":
        c = parse_numbers(strengths, float, "--c") if strengths else [1.0]
        if len(c) != 1:
            raise click.UsageError("--model crossing takes a single --c value")
        return crossing_family(c[0])
    if os.path.exists(model):
        return modelfile.family_from_file(model)
    if os.sep in model or model.endswith(".json"):
        raise modelfile.ModelFileError(f"model file not found: {model}")
    raise click.UsageError(
        f"unknown model {model!r}: not a builtin (ms, cycle, crossing) and no such file"
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
        except click.UsageError:
            raise  # the command line is wrong, not the model: exit 3
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
            eval_coins(fam.program, eps)
            fam.check_eps(eps)  # as every command that builds a walk does
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
    """One row per (eps, resonance), by phase and then modulus; the walks are decomposed
    a chunk at a time and in grid order, as a sweep's are (``asymptotics._decomposed``)."""
    counts, values, multiplicity, on_circle = [], [], [], []
    for _, _, system in asymptotics._decomposed(family, eps_values, family.graph.n_arcs):
        ordered = sorted(_resonances(system),
                         key=lambda r: (round(cmath.phase(r.value), 12), abs(r.value)))
        counts.append(len(ordered))
        values += [res.value for res in ordered]
        multiplicity += [res.multiplicity for res in ordered]
        on_circle += [res.on_unit_circle for res in ordered]
    values = np.array(values, dtype=complex)
    return {
        "eps": _Keyed(np.asarray(eps_values, float), np.repeat(np.arange(len(counts)), counts)),
        "re": values.real,
        "im": values.imag,
        "multiplicity": np.array(multiplicity, dtype=int),
        "on_circle": np.array(on_circle, dtype=bool),
    }


def _track_table(family, grid):
    """One row per (eps, resonance) along the paths that start at eps = 0."""
    track = asymptotics.track_resonances(family, np.concatenate([[0.0], grid]))
    n_eps, n_starts = track.paths.shape
    starts = np.array(track.starts, dtype=complex)
    start = np.repeat(np.arange(n_starts), n_eps)
    values = track.paths.T.reshape(-1)
    return {
        "eps": _Keyed(track.eps_grid, np.tile(np.arange(n_eps), n_starts)),
        "start_re": _Keyed(starts.real, start),
        "start_im": _Keyed(starts.imag, start),
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
    table = _track_table(family, grid) if track else _resonance_table(family, grid)
    _emit(table, None, out, fmt)
    return 0


def _require_agreement(worst, z):
    """The largest per-point disagreement; raises at the first point over
    tolerance, or at the first NaN."""
    over = ~(worst <= ROUTE_AGREEMENT_TOL)
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
        points = np.array([parse_complex_value(z_text)])
    else:
        if z_count < 1:
            raise click.UsageError("--z-grid must be positive")
        points = asymptotics._circle_grid(z_count)
    walk = family.walk(eps)
    system = eigen_decompose(walk)
    report = scattering_matrix(walk, points, route, system)
    sigma = report.matrix
    if check_routes:
        _route_check(walk, points, system, route, sigma)
    # rows run over the points, then row-major over the matrix entries
    nt = sigma.shape[-1]
    point = np.repeat(np.arange(len(points)), nt * nt)
    entry, entries = np.arange(nt * nt), np.tile(np.arange(nt * nt), len(points))
    table = {
        "eps": _Keyed(np.full(len(points), float(eps)), point),
        "z_re": _Keyed(points.real, point),
        "z_im": _Keyed(points.imag, point),
        "row": _Keyed(entry // nt + 1, entries),
        "col": _Keyed(entry % nt + 1, entries),
        "value_re": sigma.real.reshape(-1),
        "value_im": sigma.imag.reshape(-1),
        "unitarity_residual": _Keyed(report.unitarity_residuals, point),
    }
    _emit(table, None, out, fmt)
    return 0


@cli.group()
def sweep():
    """Sweep a quantity over an eps grid and report fits."""


def _sweep_table(rows):
    # a point's rows are adjacent and share its eps and z objects, so identity
    # finds them and never merges two bit patterns
    firsts, point, names = [], [], {}
    for row in rows:
        if not firsts or row.eps is not firsts[-1].eps or row.z is not firsts[-1].z:
            firsts.append(row)
        point.append(len(firsts) - 1)
    quantity = [names.setdefault(row.quantity, len(names)) for row in rows]
    z = np.array([row.z for row in firsts], dtype=complex)
    return {
        "eps": _Keyed(np.array([row.eps for row in firsts], dtype=float), point),
        "z_re": _Keyed(z.real, point),
        "z_im": _Keyed(z.imag, point),
        "quantity": _Keyed(list(names), quantity),
        "value": np.array([row.value for row in rows], dtype=float),
    }


def _eps_values(eps_grid):
    return parse_eps_grid(eps_grid) if eps_grid is not None else None


def _run_peak_table(table, model, n_vertices, strengths, split_text, lam_text, eps_grid, out, fmt):
    """Run a peak table (tunneling, width, comfort) on --lambda, by default
    on the resonance that detaches fastest.

    ``split_text`` is --J, or ``None`` for comfort, which takes no split.
    The usage errors come in option order: the model, --J, --eps-grid,
    then --lambda.
    """
    family = load_family(model, n_vertices, strengths)
    split = () if split_text is None else (parse_split(split_text),)
    eps_values = _eps_values(eps_grid)
    lam = None if lam_text is None else parse_complex_value(lam_text)
    try:
        rows, summary = table(family, lam, *split, eps_values)
    except asymptotics.NoDetachingResonance as exc:
        raise click.UsageError(str(exc))
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
    z = parse_complex_value(z_text) if z_text is not None else None
    eps_values = _eps_values(eps_grid)
    if eps_values is not None and len(eps_values) < 2:
        raise click.UsageError("bad --eps-grid value: the slope fit needs at least two points")
    rows, summary = asymptotics.discrepancy_table(family, z, eps_values, route)
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
    return _run_peak_table(
        asymptotics.tunneling_table,
        model, n_vertices, strengths, split_text, lam_text, eps_grid, out, fmt,
    )


@sweep.command()
@model_options
@click.option("--J", "split_text", required=True, help="incoming channels, e.g. 1,2")
@click.option("--lambda", "lam_text", default=None)
@click.option("--eps-grid", "eps_grid", default=None, help="START:STOP:COUNT")
@output_options
def width(model, n_vertices, strengths, split_text, lam_text, eps_grid, out, fmt):
    """Measured half-height peak widths against 2(1-|lambda_eps|)."""
    return _run_peak_table(
        asymptotics.width_table,
        model, n_vertices, strengths, split_text, lam_text, eps_grid, out, fmt,
    )


@sweep.command()
@model_options
@click.option("--lambda", "lam_text", default=None)
@click.option("--eps-grid", "eps_grid", default=None, help="START:STOP:COUNT")
@output_options
def comfort(model, n_vertices, strengths, lam_text, eps_grid, out, fmt):
    """Interior energy at the peak against its divergence-rate bound."""
    return _run_peak_table(
        asymptotics.comfort_table,
        model, n_vertices, strengths, None, lam_text, eps_grid, out, fmt,
    )


@cli.command()
@click.option("--r", "r_text", required=True, help="rotation parameter per barrier, e.g. 0.8,0.8")
@click.option("--positions", "positions_text", required=True, help="barrier sites, the first at 0")
@click.option("--z-grid", "z_count", type=int, default=360, help="uniform circle grid size")
@click.option(
    "--check-routes",
    is_flag=True,
    help="cross-check the transfer-matrix product against the graph pipeline; exit 2 on mismatch",
)
@output_options
def barrier(r_text, positions_text, z_count, check_routes, out, fmt):
    """Transmission and reflection of a line with any number of barriers around the circle."""
    if z_count < 1:
        raise click.UsageError("--z-grid must be positive")
    strengths = parse_numbers(r_text, float, "--r")
    positions = parse_numbers(positions_text, int, "--positions")
    spec = BarrierSpec(positions, tuple(rotation_coin(r) for r in strengths))
    angles = 2.0 * np.pi * np.arange(z_count) / z_count
    grid = np.exp(1j * angles)
    product = barrier_scattering(spec, grid)
    t, r = product.transmission, product.reflection
    summary = {"peak_angles": [cmath.phase(p) for p in product.peaks]}
    if check_routes:
        graph, coins = line_to_graph(spec)
        walk = assemble(graph, eval_coins(coins, 0.0))
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
    except SystemExit as exc:  # click's exit for a closed stdout (EPIPE)
        return int(exc.code)


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end tests for the command-line interface.

Exit-code contract: 0 success, 1 validation failure, 2 numerical
failure, 3 usage error.
"""

import cmath
import csv
import errno
import importlib
import inspect
import io
import json
import math
import pkgutil
import shlex
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import click
import numpy as np
import pytest

import qwscatter
from qwscatter import cli
from qwscatter.asymptotics import NONRESONANT_DIST, nonresonant_point
from qwscatter.cli import (
    main,
    parse_complex_value,
    parse_eps_grid,
    parse_split,
)
from qwscatter.line import BarrierSpec, barrier_scattering, line_to_graph, rotation_coin
from qwscatter.modelfile import save_model
from qwscatter.models import closed_form_sigma_ms, matrix_schrodinger_family
from qwscatter.spectral import NumericalError, resonance_set

UNITARITY_CAP = 1e-8


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def csv_rows(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, list(reader)


def write_model(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def self_loop_document(coin_rows):
    return {
        "vertices": ["u"],
        "arcs": [{"from": "u", "to": "u"}],
        "in_tails": [{"index": 1, "at_vertex": "u"}],
        "out_tails": [{"index": 1, "at_vertex": "u"}],
        "coins": {"u": coin_rows},
    }


# ---------------------------------------------------------------- validate


def test_validate_builtin_passes():
    code, out, _ = run_cli(["validate", "--model", "ms"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    names = [c["name"] for c in report["checks"]]
    assert names == ["graph_balance", "coin_unitarity", "free_routing"]
    routing = report["checks"][2]
    assert routing["steps"] == [2, 2]
    assert routing["phases"] == [[1.0, 0.0], [1.0, 0.0]]


def test_validate_reports_unbalanced_graph(tmp_path):
    doc = {
        "vertices": ["a", "b"],
        "arcs": [{"from": "a", "to": "b"}],
        "in_tails": [{"index": 1, "at_vertex": "a"}],
        "out_tails": [{"index": 1, "at_vertex": "a"}],
        "coins": {"a": [["1"]], "b": [["1"]]},
    }
    code, out, _ = run_cli(["validate", "--model", write_model(tmp_path, "bad.json", doc)])
    assert code == 1
    report = json.loads(out)
    assert not report["pass"]
    assert report["errors"][0]["error"] == "ModelFileError"
    assert "in-degree" in report["errors"][0]["message"]
    # later checks are skipped once the graph fails to build
    assert [c["pass"] for c in report["checks"]] == [False]


def test_validate_flags_nonunitary_coin_at_eps(tmp_path):
    doc = self_loop_document([["1", "eps"], ["0", "1"]])
    path = write_model(tmp_path, "shear.json", doc)
    code, out, _ = run_cli(["validate", "--model", path, "--eps", "0.5"])
    assert code == 1
    report = json.loads(out)
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert "coin_unitarity" in failed
    # the same family is fine at eps = 0
    code, _, _ = run_cli(["validate", "--model", path, "--eps", "0"])
    assert code == 0


def test_validate_fails_a_nan_eps():
    # a NaN residual must not slip through a "residual > tolerance" gate
    code, out, _ = run_cli(["validate", "--model", "ms", "--eps", "nan"])
    assert code == 1
    report = json.loads(out)
    assert not report["pass"]
    assert report["errors"][0]["error"] == "NotUnitary"


def test_validate_fails_an_eps_outside_the_family_range():
    # the ms coins are unitary at 0.71, but every command that builds a
    # walk refuses eps >= 1/sqrt(2); validate says so too
    code, out, _ = run_cli(["validate", "--model", "ms", "--eps", "0.71"])
    assert code == 1
    report = json.loads(out)
    assert not report["pass"]
    assert [e["error"] for e in report["errors"]] == ["EpsOutOfRange"]
    assert run_cli(["smatrix", "--model", "ms", "--eps", "0.71", "--z", "1j"])[0] == 1


def test_validate_flags_nondeterministic_routing(tmp_path):
    s = "0.70710678118654752"
    doc = self_loop_document([[s, s], [f"-{s}", s]])
    code, out, _ = run_cli(
        ["validate", "--model", write_model(tmp_path, "spread.json", doc)]
    )
    assert code == 1
    report = json.loads(out)
    assert report["errors"][0]["error"] == "NotDeterministic"


@pytest.mark.parametrize(
    "extra, message",
    [(["--model", "ms", "--N", "4"], "--N applies only"),
     (["--model", "cycle"], "needs --N")],
    ids=["ms-N", "cycle-without-N"],
)
def test_validate_usage_error_exits_3(extra, message):
    # a wrong command line is no failed check of the model: no JSON report
    code, out, err = run_cli(["validate", *extra])
    assert code == 3
    assert out == ""
    assert "Usage:" in err and message in err


# -------------------------------------------------------------- resonances


def test_resonances_hidden_pair():
    code, out, _ = run_cli(["resonances", "--model", "ms", "--eps", "0.5"])
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["eps", "re", "im", "multiplicity", "on_circle"]
    values = [complex(float(r[1]), float(r[2])) for r in rows]
    hidden = 0.70710678118654752j
    assert min(abs(v - hidden) for v in values) <= 1e-10
    assert min(abs(v + hidden) for v in values) <= 1e-10
    zero = [r for r in rows if abs(complex(float(r[1]), float(r[2]))) < 1e-9]
    assert len(zero) == 1 and zero[0][3] == "2" and zero[0][4] == "false"
    circle = [r for r in rows if r[4] == "true"]
    assert len(circle) == 2


def test_resonances_tiny_eps_hidden_pair_is_off_circle():
    # 1 - |lambda| = 1e-12 for the hidden pair, but it still couples to
    # the tails; the pass-through pair +-1 does not
    code, out, _ = run_cli(["resonances", "--model", "ms", "--eps", "1e-6"])
    assert code == 0
    _, rows = csv_rows(out)
    flags = {
        (round(float(r[1])), round(float(r[2]))): r[4] for r in rows if r[3] == "1"
    }
    assert flags == {(0, 1): "false", (0, -1): "false", (1, 0): "true", (-1, 0): "true"}


def test_resonances_cycle_detached_ring():
    code, out, _ = run_cli(
        ["resonances", "--model", "cycle", "--N", "4", "--c", "1", "--eps", "0.6"]
    )
    assert code == 0
    _, rows = csv_rows(out)
    values = [complex(float(r[1]), float(r[2])) for r in rows]
    for target in (0.8, -0.8, 0.8j, -0.8j):
        assert min(abs(v - target) for v in values) <= 1e-10
    assert all(r[3] == "1" for r in rows)
    assert all(r[4] == "false" for r in rows)


def test_resonances_output_is_deterministic(tmp_path):
    argv = [
        "resonances",
        "--model",
        "cycle",
        "--N",
        "3",
        "--c",
        "0.9,0.4,0.7",
        "--eps-grid",
        "0.05:0.2:3",
    ]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first[0] == 0
    assert first[1] == second[1]
    _, rows = csv_rows(first[1])
    eps_column = [float(r[0]) for r in rows]
    assert eps_column == sorted(eps_column)


RESONANCE_GRID = ["resonances", "--model", "ms", "--eps-grid", "0.01:0.5:40"]


def test_a_resonance_grid_is_decomposed_in_one_call(monkeypatch):
    # ms's 40 interiors of 6 x 6 fit one chunk of CHUNK_BYTES
    calls = []
    decompose = cli.asymptotics.eigen_decompose

    def spy(walks):
        calls.append(len(walks) if isinstance(walks, list) else 1)
        return decompose(walks)

    monkeypatch.setattr(cli.asymptotics, "eigen_decompose", spy)
    code, _, _ = run_cli(RESONANCE_GRID)
    assert code == 0
    assert calls == [40]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_resonance_grid_prints_what_resonance_set_lists_at_each_eps(fmt):
    family = matrix_schrodinger_family()
    rows = []
    for eps in parse_eps_grid("0.01:0.5:40").tolist():
        resonances, _ = resonance_set(family.walk(eps))
        resonances.sort(key=lambda r: (round(cmath.phase(r.value), 12), abs(r.value)))
        rows += [(eps, r.value, r.multiplicity, r.on_unit_circle) for r in resonances]
    eps, values, multiplicity, on_circle = zip(*rows)
    values = np.array(values)
    table = {"eps": np.array(eps), "re": values.real, "im": values.imag,
             "multiplicity": np.array(multiplicity), "on_circle": np.array(on_circle)}
    want = io.StringIO()
    with redirect_stdout(want):
        cli._emit(table, None, None, fmt)
    code, out, _ = run_cli(RESONANCE_GRID + ["--format", fmt])
    assert code == 0
    assert len(rows) == 200
    assert out == want.getvalue()


def test_a_resonance_grid_past_the_family_range_exits_1():
    code, out, err = run_cli(["resonances", "--model", "ms", "--eps-grid", "0.01:0.8:5"])
    assert code == 1
    assert "eps = 0.8 is outside the family's range: valid range is 0 <= eps < 0.707107" in out + err
    assert "multiplicity" not in out


def test_resonances_option_conflicts():
    code, _, _ = run_cli(
        ["resonances", "--model", "ms", "--eps", "0.1", "--eps-grid", "0.1:0.2:2"]
    )
    assert code == 3


def test_resonances_track_follows_hidden_pair():
    code, out, _ = run_cli(
        ["resonances", "--model", "ms", "--eps-grid", "0.01:0.1:3", "--track"]
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["eps", "start_re", "start_im", "re", "im", "abs"]
    # four unit-circle resonances at eps = 0, each followed over [0, grid]
    assert len(rows) == 4 * 4
    for row in rows:
        eps, start_re, start_im, _, _, modulus = map(float, row)
        start = complex(start_re, start_im)
        if abs(abs(start.imag) - 1) <= 1e-9:
            # the hidden pair leaves the circle as +-i sqrt(1 - 2 eps^2)
            assert abs(modulus - math.sqrt(1 - 2 * eps**2)) <= 1e-12
        else:
            assert abs(abs(start.real) - 1) <= 1e-9
            assert abs(modulus - 1) <= 1e-12


def test_resonances_track_needs_grid():
    code, _, _ = run_cli(["resonances", "--model", "ms", "--eps", "0.1", "--track"])
    assert code == 3


def test_empty_eps_grid_is_usage_error():
    code, _, _ = run_cli(
        ["resonances", "--model", "ms", "--eps-grid", "0.1:0.2:0"]
    )
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "discrepancy", "--model", "ms", "--z", "0.921+0.390i"],
        ["sweep", "width", "--model", "cycle", "--N", "4", "--c", "1", "--J", "1,2"],
    ],
    ids=["discrepancy", "width"],
)
def test_a_grid_of_one_repeated_eps_is_a_usage_error(argv):
    # 0.05:0.05:3 would be three copies of one eps: no slope, no track
    code, out, err = run_cli(argv + ["--eps-grid", "0.05:0.05:3"])
    assert code == 3
    assert not out
    assert "start < stop" in err


# ----------------------------------------------------------------- smatrix


def test_smatrix_single_point():
    code, out, _ = run_cli(
        ["smatrix", "--model", "ms", "--eps", "0.3", "--z", "i"]
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == [
        "eps", "z_re", "z_im", "row", "col", "value_re", "value_im",
        "unitarity_residual",
    ]
    assert len(rows) == 4
    entries = {
        (r[3], r[4]): complex(float(r[5]), float(r[6])) for r in rows
    }
    # at z = +i the matrix swaps the channels with a -i phase
    assert abs(entries[("1", "2")] - (-1j)) <= 1e-10
    assert abs(entries[("2", "1")] - (-1j)) <= 1e-10
    assert abs(entries[("1", "1")]) <= 1e-10
    assert float(rows[0][7]) <= UNITARITY_CAP


def test_smatrix_check_routes_passes():
    code, _, _ = run_cli(
        [
            "smatrix", "--model", "cycle", "--N", "3", "--c", "0.9,0.4,0.7",
            "--eps", "0.25", "--z-grid", "8", "--check-routes",
        ]
    )
    assert code == 0


@pytest.mark.parametrize("route", ["resolvent", "expansion"])
def test_smatrix_tiny_eps_matches_closed_form(route):
    code, out, err = run_cli(
        ["smatrix", "--model", "ms", "--eps", "1e-4", "--z", "0.7+0.1i",
         "--route", route, "--check-routes"]
    )
    assert code == 0, err
    _, rows = csv_rows(out)
    want = closed_form_sigma_ms(1e-4, 0.7 + 0.1j)
    for r in rows:
        got = complex(float(r[5]), float(r[6]))
        assert abs(got - want[int(r[3]) - 1, int(r[4]) - 1]) <= 1e-14


@pytest.mark.parametrize("route", ["resolvent", "expansion"])
def test_check_routes_runs_the_other_route(monkeypatch, route):
    seen = []
    real = cli.scattering_matrix

    def spy(*args, **kwargs):
        seen.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "scattering_matrix", spy)
    code, _, _ = run_cli(
        ["smatrix", "--model", "ms", "--eps", "0.3", "--z", "i",
         "--route", route, "--check-routes"]
    )
    assert code == 0
    assert sorted(seen) == ["expansion", "resolvent"]


def test_smatrix_grid_is_deterministic():
    argv = ["smatrix", "--model", "ms", "--eps", "0.3", "--z-grid", "6"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first[0] == 0
    assert first[1] == second[1]
    _, rows = csv_rows(first[1])
    assert len(rows) == 6 * 4
    # points walk the circle by increasing angle, entries row-major
    assert [r[3] + r[4] for r in rows[:4]] == ["11", "12", "21", "22"]


def test_smatrix_rejects_center():
    code, _, err = run_cli(
        ["smatrix", "--model", "ms", "--eps", "0.3", "--z", "0"]
    )
    assert code == 2
    assert json.loads(err)["error"]["type"] == "PoleHit"


def test_smatrix_rejects_resonance_hit():
    for route in ("resolvent", "expansion"):
        code, _, err = run_cli(
            [
                "smatrix", "--model", "ms", "--eps", "0.3",
                "--z", "0+0.9055385138137417i", "--route", route,
            ]
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "AtInteriorResonance"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["smatrix", "--model", "ms", "--eps", "0.3", "--z-grid", "0"], "--z-grid must be positive"),
        (["barrier", "--r", "0.8,0.6", "--positions", "0,10", "--z-grid", "0"],
         "--z-grid must be positive"),
        (["smatrix", "--model", "crossing", "--c", "1,2", "--z", "i"],
         "--model crossing takes a single --c value"),
    ],
    ids=["smatrix-z-grid", "barrier-z-grid", "crossing-c-list"],
)
def test_a_bad_grid_size_or_coupling_list_is_a_usage_error(argv, message):
    code, out, err = run_cli(argv)
    assert code == 3
    assert out == ""
    assert message in err


def test_smatrix_wants_exactly_one_z():
    code, _, _ = run_cli(["smatrix", "--model", "ms"])
    assert code == 3
    code, _, _ = run_cli(
        ["smatrix", "--model", "ms", "--z", "i", "--z-grid", "4"]
    )
    assert code == 3


def test_smatrix_json_format():
    code, out, _ = run_cli(
        ["smatrix", "--model", "ms", "--eps", "0.3", "--z", "i",
         "--format", "json"]
    )
    assert code == 0
    document = json.loads(out)
    assert document["columns"][:3] == ["eps", "z_re", "z_im"]
    assert len(document["rows"]) == 4


def test_smatrix_grid_is_one_call_per_route(monkeypatch):
    seen, direct = [], []
    real, oracle = cli.scattering_matrix, cli.oracle_direct_solve

    def spy(walk, z, route, system):
        seen.append((route, z.shape))
        return real(walk, z, route, system)

    def oracle_spy(walk, z, amp_in):
        direct.append(z.shape)
        return oracle(walk, z, amp_in)

    monkeypatch.setattr(cli, "scattering_matrix", spy)
    monkeypatch.setattr(cli, "oracle_direct_solve", oracle_spy)
    for route, other in (("resolvent", "expansion"), ("expansion", "resolvent")):
        seen.clear()
        code, out, _ = run_cli(
            ["smatrix", "--model", "cycle", "--N", "4", "--eps", "0.2",
             "--z-grid", "64", "--route", route]
        )
        assert code == 0 and len(csv_rows(out)[1]) == 64 * 16
        assert seen == [(route, (64,))]
        seen.clear()
        code, _, _ = run_cli(
            ["smatrix", "--model", "cycle", "--N", "4", "--eps", "0.2",
             "--z-grid", "64", "--route", route, "--check-routes"]
        )
        assert code == 0
        assert seen == [(route, (64,)), (other, (64,))]
    assert direct == [(64,), (64,)]


def test_route_mismatch_names_the_first_bad_point(monkeypatch):
    oracle = cli.oracle_direct_solve

    def off_at_two_points(walk, z, amp_in):
        u, out = oracle(walk, z, amp_in)
        out[[2, 5]] += 1e-6
        return u, out

    monkeypatch.setattr(cli, "oracle_direct_solve", off_at_two_points)
    code, _, err = run_cli(
        ["smatrix", "--model", "ms", "--eps", "0.3", "--z-grid", "8", "--check-routes"]
    )
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "RouteMismatch"
    assert f"at z = {cmath.exp(2j * cmath.pi * 2 / 8):.12g} " in error["message"]


def test_a_nan_route_deviation_is_a_mismatch(monkeypatch):
    oracle = cli.oracle_direct_solve

    def nan_at_three(walk, z, amp_in):
        u, out = oracle(walk, z, amp_in)
        out[3] = np.nan
        return u, out

    monkeypatch.setattr(cli, "oracle_direct_solve", nan_at_three)
    code, _, err = run_cli(
        ["smatrix", "--model", "ms", "--eps", "0.3", "--z-grid", "8", "--check-routes"]
    )
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "RouteMismatch"
    assert f"by nan at z = {cmath.exp(2j * cmath.pi * 3 / 8):.12g} " in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["smatrix", "--model", "ms", "--eps", "0.3", "--z", "nan"],
        ["smatrix", "--model", "ms", "--eps", "0.3", "--z", "1e400"],
        ["sweep", "discrepancy", "--model", "crossing", "--z", "nan",
         "--eps-grid", "0.001:0.1:3"],
        ["sweep", "tunneling", "--model", "ms", "--J", "1", "--lambda", "nan"],
    ],
    ids=["smatrix-nan", "smatrix-overflow", "discrepancy", "tunneling"],
)
def test_a_non_finite_point_is_a_usage_error(argv):
    code, out, err = run_cli(argv)
    assert code == 3
    assert out == ""
    assert "is not finite" in err


@pytest.mark.parametrize("grid", ["0.01:inf:3", "nan:0.1:1", "0.01:nan:3"])
@pytest.mark.parametrize(
    "argv",
    [["sweep", "width", "--model", "ms", "--J", "1"], ["resonances", "--model", "ms", "--track"]],
    ids=["sweep-width", "resonances-track"],
)
def test_a_non_finite_grid_end_is_a_usage_error(argv, grid):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv + ["--eps-grid", grid])
    assert code == 3
    assert out == ""
    assert "grid ends must be finite" in err
    assert "Warning" not in err and caught == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "width", "--model", "ms", "--J", "1", "--eps-grid", "0:0.1:1"],
        ["sweep", "width", "--model", "ms", "--J", "1", "--eps-grid", "-1:0.1:1"],
        ["resonances", "--model", "ms", "--track", "--eps-grid", "0:0.1:1"],
    ],
    ids=["sweep-width-zero", "sweep-width-negative", "resonances-track-zero"],
)
def test_a_nonpositive_one_point_grid_is_a_usage_error(argv):
    # as with the same ends and several points; --eps 0 lists eps = 0
    code, out, err = run_cli(argv)
    assert code == 3
    assert out == ""
    assert "bad --eps-grid value" in err


def test_a_one_point_discrepancy_grid_is_a_usage_error():
    # the slope fit needs two points, so one is refused before any walk
    code, out, err = run_cli(
        ["sweep", "discrepancy", "--model", "crossing", "--c", "0.8", "--z", "i",
         "--eps-grid", "0.01:0.1:1"]
    )
    assert code == 3
    assert out == ""
    assert "bad --eps-grid value: the slope fit needs at least two points" in err


# ------------------------------------------------------------------ output


def fmt_by_row(value) -> str:
    # the cell rule of the row-by-row writer: None was the only absent value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_by_row(table, summary, fmt):
    """Reference writer: one tuple of Python values per row, one cell at a time."""
    header = list(table)
    columns = [np.asarray(column).tolist() for column in table.values()]
    rows = [tuple(None if v != v else v for v in row) for row in zip(*columns)]
    if fmt == "json":
        document = {"columns": header, "rows": [list(row) for row in rows]}
        if summary is not None:
            document["summary"] = summary
        return json.dumps(document, indent=2, sort_keys=True) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt_by_row(v) for v in row])
    return buffer.getvalue()


EMIT_CASES = {
    "smatrix": (["smatrix", "--model", "ms", "--eps", "0.3", "--z-grid", "16"], ",1,2,"),
    "smatrix_json": (
        ["smatrix", "--model", "ms", "--eps", "0.3", "--z-grid", "8", "--format", "json"],
        '"columns"',
    ),
    # off the circle the unitarity residual is an empty cell
    "smatrix_no_residual": (["smatrix", "--model", "ms", "--eps", "0.3", "--z", "0.5"], ",\n"),
    "smatrix_no_residual_json": (
        ["smatrix", "--model", "ms", "--eps", "0.3", "--z", "0.5", "--format", "json"],
        "null",
    ),
    # z_im is -0.0, which must not print as 0
    "smatrix_negative_zero": (
        ["smatrix", "--model", "crossing", "--c", "0.8", "--eps", "0.3", "--z", "-1-0i"],
        ",-1,-0,",
    ),
    "resonances": (["resonances", "--model", "ms", "--eps-grid", "0.01:0.5:3"], ",true\n"),
    "resonances_json": (
        ["resonances", "--model", "ms", "--eps", "0.2", "--format", "json"],
        "false",
    ),
    "track": (["resonances", "--model", "ms", "--eps-grid", "0.01:0.1:3", "--track"], ","),
    "sweep": (
        ["sweep", "discrepancy", "--model", "crossing", "--c", "0.8", "--z", "i",
         "--eps-grid", "0.001:0.1:5"],
        ",discrepancy,",
    ),
    "sweep_json": (
        ["sweep", "comfort", "--model", "cycle", "--N", "4", "--lambda", "1",
         "--eps-grid", "0.02:0.05:2", "--format", "json"],
        '"comfort_bound"',
    ),
    # 65 536 rows: many chunks
    "smatrix_chunks": (
        ["smatrix", "--model", "cycle", "--N", "16", "--eps", "0.2", "--z-grid", "256"],
        ",16,16,",
    ),
    "smatrix_chunks_json": (
        ["smatrix", "--model", "cycle", "--N", "16", "--eps", "0.2", "--z-grid", "256",
         "--format", "json"],
        "\n      16,\n      16,\n",
    ),
    "barrier": (
        ["barrier", "--r", "0.8,0.8", "--positions", "0,1", "--z-grid", "8",
         "--check-routes"],
        "angle,t,r\n",
    ),
}


@pytest.mark.parametrize("case", EMIT_CASES)
def test_columnwise_output_matches_a_row_by_row_writer(monkeypatch, case):
    argv, feature = EMIT_CASES[case]
    emitted = []
    emit = cli._emit

    def spy(table, summary, out_path, fmt):
        emitted.append((table, summary, fmt))
        return emit(table, summary, out_path, fmt)

    monkeypatch.setattr(cli, "_emit", spy)
    code, out, _ = run_cli(argv)
    assert code == 0
    [(table, summary, fmt)] = emitted
    assert out == write_by_row(table, summary, fmt)
    assert feature in out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_keeps_signed_zeros_and_absent_values(capsys, fmt):
    # one column holds both zeros: distinct values are found by bit pattern
    table = {
        "x": np.array([0.0, -0.0, 0.1, -0.0, 1e300, 0.0]),
        "n": np.arange(6),
        "flag": np.array([True, False] * 3),
        "name": ["a", "b,c", "a", "", "b,c", "a"],
        "residual": np.array([np.nan, 1e-17, np.nan, 2.0, 1e-17, np.nan]),
    }
    cli._emit(table, None, None, fmt)
    out = capsys.readouterr().out
    assert out == write_by_row(table, None, fmt)
    if fmt == "csv":
        assert out.splitlines()[1:3] == ["0,0,true,a,", '-0,1,false,"b,c",1.0000000000000001e-17']


def mixed_table(n):
    k = np.arange(n)
    return {
        "x": np.sin(k) * 10.0 ** (k % 7 - 3),
        "n": k % 5,
        "flag": k % 3 == 0,
        "name": [("a", "b,c", "é")[i % 3] for i in range(n)],
        "residual": np.where(k % 4 == 0, np.nan, k / 7.0),
    }


CHUNK_EDGES = {
    "0": 0,
    "1": 1,
    "B-1": cli.ROWS_PER_CHUNK - 1,
    "B": cli.ROWS_PER_CHUNK,
    "B+1": cli.ROWS_PER_CHUNK + 1,
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("size", CHUNK_EDGES)
def test_emit_matches_a_row_by_row_writer_around_a_chunk(capsys, fmt, size):
    table = mixed_table(CHUNK_EDGES[size])
    summary = {"rows": CHUNK_EDGES[size]}
    cli._emit(table, summary, None, fmt)
    out = capsys.readouterr().out
    assert out == write_by_row(table, summary, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_writes_special_floats_and_quoted_strings(capsys, fmt):
    special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300, 5e-324]
    table = {
        "x": np.array(special),
        "y": np.array(special[::-1]),
        "name": ["a,b", 'say "hi"', "naïve", "", "a,b", "plain", "é"],
    }
    cli._emit(table, None, None, fmt)
    out = capsys.readouterr().out
    assert out == write_by_row(table, None, fmt)
    if fmt == "json":
        assert "Infinity" in out and "-Infinity" in out and "null" in out
        json.loads(out, parse_constant=float)
    else:
        assert out.splitlines()[1] == 'inf,4.9406564584124654e-324,"a,b"'


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_streams_a_large_table_in_row_chunks(monkeypatch, capsys, fmt):
    chunks = []
    write = cli._write

    def spy(parts, out_path):
        parts = list(parts)
        chunks.extend(parts)
        return write(parts, out_path)

    monkeypatch.setattr(cli, "_write", spy)
    table = mixed_table(65536)
    cli._emit(table, None, None, fmt)
    assert capsys.readouterr().out == "".join(chunks) == write_by_row(table, None, fmt)
    # a JSON row spans one line per cell plus its brackets
    lines_per_row = 1 if fmt == "csv" else len(table) + 2
    assert len(chunks) > 2
    assert max(chunk.count("\n") for chunk in chunks) <= cli.ROWS_PER_CHUNK * lines_per_row


SPECIAL = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324, 1.5])


def keyed_table(n):
    # a keyed first column in a run of three that share one index, two adjacent
    # keyed columns with equal but distinct index arrays, and a keyed last column
    k = np.arange(n)
    point, entry = k // 3 % len(SPECIAL), k % 4
    return {
        "eps": cli._Keyed(SPECIAL, point),
        "z_re": cli._Keyed(SPECIAL[::-1], point),
        "z_im": cli._Keyed(-SPECIAL, point),
        "n": cli._Keyed(np.array([3, -1, 0, 12]), entry),
        "flag": cli._Keyed(np.array([True, False, False, True]), entry.copy()),
        "x": np.sin(k),
        "name": cli._Keyed(["a", "b,c", 'say "hi"', "é"], entry),
        "residual": cli._Keyed(SPECIAL, point),
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("size", CHUNK_EDGES)
def test_keyed_columns_match_a_row_by_row_writer(capsys, fmt, size):
    table = keyed_table(CHUNK_EDGES[size])
    summary = {"rows": CHUNK_EDGES[size]}
    cli._emit(table, summary, None, fmt)
    out = capsys.readouterr().out
    assert out == write_by_row(table, summary, fmt)
    if fmt == "csv" and size == "B":
        assert out.splitlines()[1:5:3] == [
            ",1.5,,3,true,0,a,",
            "-0,4.9406564584124654e-324,0,12,true,0.14112000805986721,é,-0",
        ]


def test_a_z_grid_formats_each_point_and_entry_once(monkeypatch):
    # 256 points of a 16 x 16 matrix: each column's distinct values (by bit
    # pattern) are formatted once, keyed or plain, so the one eps once; only
    # the two value columns are searched over all rows, a keyed column over
    # its keys' values alone
    emitted, formatted, searched = [], [], []
    emit, column_text, unique = cli._emit, cli._column_text, np.unique

    def spy_text(values, *args):
        formatted.append(values)
        return column_text(values, *args)

    def spy_unique(values, *args, **kwargs):
        searched.append(values)
        return unique(values, *args, **kwargs)

    def spy_emit(table, *args):
        emitted.append(table)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_column_text", spy_text)
            patch.setattr(np, "unique", spy_unique)
            return emit(table, *args)

    monkeypatch.setattr(cli, "_emit", spy_emit)
    code, out, _ = run_cli(EMIT_CASES["smatrix_chunks"][0])
    assert code == 0
    [table] = emitted
    assert len(formatted) == len(searched) == len(table) == 8
    for (name, column), values, keys in zip(table.items(), formatted, searched):
        rows = np.asarray(column)
        floats = rows.dtype == np.float64
        want = np.unique(rows.view(np.uint64) if floats else rows)
        assert np.array_equal(values.view(np.uint64) if floats else values, want), name
        keyed = isinstance(column, cli._Keyed)
        assert len(keys) == (len(column.values) if keyed else 256 * 256), name
    assert [name for name, column in table.items() if not isinstance(column, cli._Keyed)] == [
        "value_re", "value_im"]
    assert len(formatted[0]) == 1
    assert len(out.splitlines()) == 256 * 256 + 1


def test_a_keyed_column_formats_each_distinct_value_once(monkeypatch):
    # crossing has 4 rows a point: its one eps is formatted once, not once
    # per point, and no column's text is formatted twice for one bit pattern
    formatted = []
    column_text = cli._column_text

    def spy_text(values, *args):
        formatted.append(values)
        return column_text(values, *args)

    monkeypatch.setattr(cli, "_column_text", spy_text)
    argv = ["smatrix", "--model", "crossing", "--eps", "0.1", "--z-grid", "512", "--format", "json"]
    code, out, _ = run_cli(argv)
    assert code == 0
    assert len(formatted) == 8 and len(formatted[0]) == 1
    for values in formatted:
        bits = values.view(np.uint64) if values.dtype == np.float64 else values
        assert len(np.unique(bits)) == len(values)
    assert len(json.loads(out)["rows"]) == 512 * 4


@pytest.mark.parametrize("case", EMIT_CASES)
def test_out_writes_the_table_that_stdout_prints(tmp_path, case):
    argv, _ = EMIT_CASES[case]
    target = tmp_path / "table"
    code, printed, printed_err = run_cli(argv)
    code_out, out, err = run_cli(argv + ["--out", str(target)])
    assert code == code_out == 0
    assert target.read_text(encoding="utf-8") == printed
    if "json" in argv:
        assert out == "" and err == printed_err
    else:
        # a CSV summary goes to stderr, and to stdout once the table is in a file
        assert out == printed_err and err == ""
        if case in ("sweep", "barrier"):
            assert json.loads(out)


def test_a_closed_stdout_exits_1_without_a_traceback(monkeypatch):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", Closed())
    monkeypatch.setattr(sys, "stderr", err)
    code = main(["smatrix", "--model", "ms", "--eps", "0.3", "--z-grid", "4"])
    assert code == 1
    assert err.getvalue() == ""


# ------------------------------------------------------------------ sweeps


def test_sweep_discrepancy_crossing_first_order():
    code, out, _ = run_cli(
        [
            "sweep", "discrepancy", "--model", "crossing", "--c", "0.8",
            "--z", "i", "--eps-grid", "0.001:0.1:9", "--format", "json",
        ]
    )
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["slope_in_band"]
    assert 0.9 <= summary["slope"] <= 1.1


def test_sweep_discrepancy_reports_second_order_honestly():
    # when every circle resonance moves, the fixed-z discrepancy
    # shrinks at second order and the first-order band check fails
    code, out, _ = run_cli(
        [
            "sweep", "discrepancy", "--model", "ms",
            "--z", "0.921+0.390i", "--eps-grid", "0.001:0.1:9",
            "--format", "json",
        ]
    )
    assert code == 0
    summary = json.loads(out)["summary"]
    assert 1.8 <= summary["slope"] <= 2.2
    assert not summary["slope_in_band"]


def test_sweep_discrepancy_without_z_takes_the_nonresonant_point():
    code, out, _ = run_cli(
        ["sweep", "discrepancy", "--model", "ms", "--eps-grid", "0.001:0.1:3", "--format", "json"]
    )
    assert code == 0
    family = matrix_schrodinger_family()
    z = nonresonant_point(family)
    rows = json.loads(out)["rows"]
    assert len(rows) == 3
    assert all(complex(row[1], row[2]) == z for row in rows)
    assert np.abs(np.linalg.eigvals(family(0.0).interior) - z).min() >= NONRESONANT_DIST


def test_sweep_discrepancy_without_z_needs_a_nonresonant_point():
    code, out, err = run_cli(["sweep", "discrepancy", "--model", "cycle", "--N", "16"])
    assert code == 1
    assert out == ""
    assert "no circle point stays 0.3 away" in json.loads(err)["error"]["message"]


def test_sweep_tunneling_hidden_channel():
    code, out, _ = run_cli(
        [
            "sweep", "tunneling", "--model", "ms", "--J", "1",
            "--eps-grid", "0.02:0.05:2", "--format", "json",
        ]
    )
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["min_t_at_peak"] >= 1.0 - 1e-6
    assert summary["peak_band_pass"]
    assert abs(abs(summary["lambda_im"]) - 1.0) <= 1e-9


def test_sweep_width_balanced_split():
    code, out, _ = run_cli(
        [
            "sweep", "width", "--model", "cycle", "--N", "4", "--J", "1,2",
            "--lambda", "1", "--eps-grid", "0.02:0.05:2", "--format", "json",
        ]
    )
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["width_band_pass"]


def test_sweep_width_unbalanced_split_fails():
    code, _, err = run_cli(
        [
            "sweep", "width", "--model", "cycle", "--N", "4", "--J", "1",
            "--lambda", "1", "--eps-grid", "0.02:0.05:2",
        ]
    )
    assert code == 1
    assert json.loads(err)["error"]["kind"] == "validation"


def test_sweep_comfort_growth():
    code, out, _ = run_cli(
        [
            "sweep", "comfort", "--model", "cycle", "--N", "4",
            "--lambda", "1", "--eps-grid", "0.02:0.05:2", "--format", "json",
        ]
    )
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["growth_band_pass"]


def test_sweep_default_lambda_needs_a_resonance_that_leaves_the_circle():
    code, _, err = run_cli(
        [
            "sweep", "comfort", "--model", "crossing", "--c", "0.8",
            "--eps-grid", "0.01:0.05:3",
        ]
    )
    assert code == 3
    assert "every tracked resonance stays on the unit circle" in err


def test_sweep_default_lambda_needs_a_circle_resonance(tmp_path):
    spec = BarrierSpec((0, 3), (rotation_coin(0.8), rotation_coin(0.6)))
    path = str(tmp_path / "line.json")
    save_model(*line_to_graph(spec), path)
    code, _, err = run_cli(
        ["sweep", "comfort", "--model", path, "--eps-grid", "0.01:0.05:3"]
    )
    assert code == 3
    assert "no unit-circle resonances to track" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tunneling", "--model", "ms", "--J", "1"],
        ["width", "--model", "cycle", "--N", "4", "--J", "1,2"],
        ["comfort", "--model", "cycle", "--N", "4"],
    ],
    ids=["tunneling", "width", "comfort"],
)
def test_sweep_default_lambda_tracks_the_grid_once(monkeypatch, argv):
    calls = []
    tracker = cli.asymptotics.track_resonances

    def spy(*args):
        calls.append(args)
        return tracker(*args)

    monkeypatch.setattr(cli.asymptotics, "track_resonances", spy)
    code, out, _ = run_cli(
        ["sweep"] + argv + ["--eps-grid", "0.02:0.05:2", "--format", "json"]
    )
    assert code == 0
    assert len(calls) == 1
    summary = json.loads(out)["summary"]
    assert abs(complex(summary["lambda_re"], summary["lambda_im"])) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "model", [["cycle", "--N", "4", "--J", "1,2"], ["ms", "--J", "1"]], ids=["cycle4", "ms"]
)
def test_sweep_lambda_must_name_a_tracked_resonance(model):
    code, _, err = run_cli(
        ["sweep", "width", "--model"] + model
        + ["--lambda", "0.2", "--eps-grid", "0.01:0.1:3"]
    )
    assert code == 1
    error = json.loads(err)["error"]
    assert error["kind"] == "validation"
    assert "lambda = 0.2+0j names none of the tracked resonances" in error["message"]


def test_sweep_out_file_keeps_summary_on_stdout(tmp_path):
    target = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        [
            "sweep", "discrepancy", "--model", "crossing", "--c", "0.8",
            "--z", "i", "--eps-grid", "0.001:0.01:5", "--out", str(target),
        ]
    )
    assert code == 0
    header, rows = csv_rows(target.read_text(encoding="utf-8"))
    assert header == ["eps", "z_re", "z_im", "quantity", "value"]
    assert len(rows) == 5
    summary = json.loads(out)
    assert summary["quantity"] == "discrepancy"


def test_sweep_csv_summary_goes_to_stderr():
    code, out, err = run_cli(
        [
            "sweep", "discrepancy", "--model", "crossing", "--c", "0.8",
            "--z", "i", "--eps-grid", "0.001:0.01:5",
        ]
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert len(rows) == 5
    assert json.loads(err)["quantity"] == "discrepancy"


# ----------------------------------------------------------------- barrier


def test_barrier_matches_closed_form_and_graph():
    code, out, err = run_cli(
        ["barrier", "--r", "0.8,0.8", "--positions", "0,1", "--z-grid", "8",
         "--check-routes"]
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["angle", "t", "r"]
    assert len(rows) == 8
    spec = BarrierSpec((0, 1), (rotation_coin(0.8), rotation_coin(0.8)))
    for row in rows:
        angle, t, r = map(float, row)
        assert abs(t + r - 1) <= 1e-12
        closed = barrier_scattering(spec, cmath.exp(1j * angle))
        assert abs(t - closed.transmission) <= 1e-15
    angle, t, _ = map(float, rows[2])
    assert angle == pytest.approx(math.pi / 2)
    assert t == pytest.approx(1.0, abs=1e-12)
    summary = json.loads(err)
    assert summary["graph_deviation_max"] <= 1e-12
    assert summary["peak_angles"] == pytest.approx([-math.pi / 2, math.pi / 2])


def test_barrier_scatters_the_whole_grid_in_one_call(monkeypatch):
    grids = []

    def spy(spec, z):
        grids.append(np.shape(z))
        return barrier_scattering(spec, z)

    monkeypatch.setattr(cli, "barrier_scattering", spy)
    code, _, err = run_cli(["barrier", "--r", "0.8,0.6", "--positions", "0,3", "--z-grid", "24"])
    assert code == 0
    assert grids == [(24,)]
    assert len(json.loads(err)["peak_angles"]) == 6


def test_barrier_takes_five_barriers():
    code, out, err = run_cli(
        ["barrier", "--r", "0.8,0.7,0.6,0.75,0.65", "--positions", "0,30,60,100,150",
         "--z-grid", "64", "--check-routes"]
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 64
    summary = json.loads(err)
    assert summary["graph_deviation_max"] <= 1e-10
    assert summary["peak_angles"] == []


def test_barrier_rejects_bad_lists():
    code, _, _ = run_cli(["barrier", "--r", "0.8,x", "--positions", "0,1"])
    assert code == 3
    code, _, err = run_cli(["barrier", "--r", "0.8", "--positions", "0,1"])
    assert code == 1
    assert json.loads(err)["error"]["type"] == "BadBarrier"


# ------------------------------------------------------------ model lookup


def test_unknown_builtin_is_usage_error():
    code, _, err = run_cli(["resonances", "--model", "hexagon", "--eps", "0.1"])
    assert code == 3
    assert "not a builtin (ms, cycle, crossing)" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tunneling", "--model", "nosuch", "--J", "x"], "unknown model 'nosuch'"),
        (["width", "--model", "ms", "--N", "3", "--J", ","], "--N applies only"),
        (["width", "--model", "ms", "--J", ",", "--eps-grid", "bad"], "--J must name"),
        (["tunneling", "--model", "ms", "--J", "1", "--lambda", "z", "--eps-grid", "x"],
         "--eps-grid wants"),
        (["comfort", "--model", "cycle", "--lambda", "z"], "--model cycle needs --N"),
        (["comfort", "--model", "ms", "--lambda", "z"], "cannot parse complex number"),
    ],
)
def test_a_peak_command_names_its_first_bad_option(argv, message):
    # the model, then --J, then --eps-grid, then --lambda
    code, out, err = run_cli(["sweep", *argv])
    assert code == 3
    assert out == ""
    assert message in err


def test_missing_model_file_is_validation_error():
    code, _, err = run_cli(
        ["resonances", "--model", "no/such/model.json", "--eps", "0.1"]
    )
    assert code == 1
    assert json.loads(err)["error"]["type"] == "ModelFileError"


def test_cycle_requires_size():
    code, _, _ = run_cli(["resonances", "--model", "cycle", "--eps", "0.1"])
    assert code == 3


def test_cycle_strength_count_must_match():
    code, _, _ = run_cli(
        ["resonances", "--model", "cycle", "--N", "4", "--c", "0.5,0.6",
         "--eps", "0.1"]
    )
    assert code == 3


@pytest.mark.parametrize(
    "model, extra, option",
    [
        ("ms", ["--N", "4"], "--N"),
        ("ms", ["--c", "2"], "--c"),
        ("file", ["--N", "4"], "--N"),
        ("file", ["--c", "2"], "--c"),
        ("crossing", ["--N", "7"], "--N"),
    ],
    ids=["ms-N", "ms-c", "file-N", "file-c", "crossing-N"],
)
def test_option_the_model_ignores_is_usage_error(tmp_path, model, extra, option):
    if model == "file":
        model = write_model(tmp_path, "loop.json", self_loop_document([["0", "1"], ["1", "0"]]))
    code, out, err = run_cli(["smatrix", "--model", model, *extra, "--z", "i"])
    assert code == 3
    assert out == ""
    assert option in err


def test_model_file_runs_through_pipeline(tmp_path):
    swap = self_loop_document([["0", "1"], ["1", "0"]])
    path = write_model(tmp_path, "loop.json", swap)
    code, out, _ = run_cli(
        ["smatrix", "--model", path, "--eps", "0.0", "--z", "0.6+0.8i"]
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 1


# -------------------------------------------------------------- exit codes

# The classes that exit 2; every other public exception in the package
# is a ValueError and exits 1.
NUMERICAL = {
    "NumericalError", "PoleHit", "AtInteriorResonance", "OrthogonalityViolated",
    "SingularSystem", "ClusterAmbiguity", "IllConditionedChain", "NotSimple",
    "ZeroCluster", "SimplicityViolated", "TrackingAmbiguous",
    "ResonanceOnCircle", "NoCrossing", "RouteMismatch",
}


def package_exceptions():
    found = []
    for info in pkgutil.iter_modules(qwscatter.__path__):
        module = importlib.import_module(f"qwscatter.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                found.append(obj)
    return sorted(found, key=lambda c: c.__name__)


def test_numerical_errors_are_exactly_the_numerical_base():
    names = {c.__name__ for c in package_exceptions() if issubclass(c, NumericalError)}
    assert names == NUMERICAL


@pytest.mark.parametrize("exc_type", package_exceptions(), ids=lambda c: c.__name__)
def test_exit_code_follows_exception_base(monkeypatch, exc_type):
    assert issubclass(exc_type, ValueError)
    exc = exc_type.__new__(exc_type)
    Exception.__init__(exc, "probe")

    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "load_family", fail)
    code, _, err = run_cli(["resonances", "--model", "ms"])
    assert code == (2 if exc_type.__name__ in NUMERICAL else 1)
    assert json.loads(err)["error"]["type"] == exc_type.__name__


# ---------------------------------------------------------------- surface

CLI_OPTIONS = {
    "validate": ["--model", "--N", "--c", "--eps"],
    "resonances": ["--model", "--N", "--c", "--eps", "--eps-grid", "--track",
                   "--format", "--out"],
    "smatrix": ["--model", "--N", "--c", "--eps", "--z", "--z-grid", "--route",
                "--check-routes", "--format", "--out"],
    "sweep discrepancy": ["--model", "--N", "--c", "--z", "--eps-grid", "--route",
                          "--format", "--out"],
    "sweep tunneling": ["--model", "--N", "--c", "--J", "--lambda", "--eps-grid",
                        "--format", "--out"],
    "sweep width": ["--model", "--N", "--c", "--J", "--lambda", "--eps-grid",
                    "--format", "--out"],
    "sweep comfort": ["--model", "--N", "--c", "--lambda", "--eps-grid",
                      "--format", "--out"],
    "barrier": ["--r", "--positions", "--z-grid", "--check-routes", "--format",
                "--out"],
}


def cli_surface(command, path=()):
    if isinstance(command, click.Group):
        for name, sub in command.commands.items():
            yield from cli_surface(sub, path + (name,))
    else:
        options = [o for p in command.params if isinstance(p, click.Option) for o in p.opts]
        yield " ".join(path), options


def test_cli_surface_is_pinned():
    # a new option or command must show up here as a deliberate diff
    assert dict(cli_surface(cli.cli)) == CLI_OPTIONS
    assert sum(len(v) for v in CLI_OPTIONS.values()) == 59


# ----------------------------------------------------------------- parsers


@pytest.mark.parametrize(
    "text,value",
    [
        ("i", 1j),
        ("-i", -1j),
        ("0.921+0.390i", 0.921 + 0.390j),
        ("2", 2.0 + 0j),
        ("1-2I", 1 - 2j),
        ("0.5j", 0.5j),
    ],
)
def test_parse_complex_forms(text, value):
    assert parse_complex_value(text) == value


def test_parse_complex_rejects_garbage():
    with pytest.raises(click.UsageError):
        parse_complex_value("one plus i")
    with pytest.raises(click.UsageError):
        parse_complex_value("")


def test_parse_eps_grid_is_geometric():
    grid = parse_eps_grid("0.001:0.1:3")
    assert len(grid) == 3
    assert grid[0] == pytest.approx(1e-3)
    assert grid[1] == pytest.approx(1e-2)
    assert grid[2] == pytest.approx(1e-1)
    with pytest.raises(click.UsageError):
        parse_eps_grid("0.001:0.1")
    with pytest.raises(click.UsageError):
        parse_eps_grid("a:b:3")


def test_parse_split_sorts_and_dedupes():
    assert parse_split("2,1,2") == (1, 2)
    with pytest.raises(click.UsageError):
        parse_split("")
    with pytest.raises(click.UsageError):
        parse_split("one")


DOCSTRING_COMMANDS = [
    line.strip() for line in cli.__doc__.splitlines() if line.strip().startswith("qwscatter ")
]


def test_cli_docstring_has_examples():
    assert len(DOCSTRING_COMMANDS) >= 9


@pytest.mark.parametrize("command", DOCSTRING_COMMANDS)
def test_cli_docstring_command_exits_zero(command, tmp_path):
    # the module docstring's examples run as written; model.json is a saved ms
    ms = matrix_schrodinger_family()
    model = str(tmp_path / "model.json")
    save_model(ms.graph, ms.coins, model)
    argv = [model if word == "model.json" else word for word in shlex.split(command)[1:]]
    code, out, err = run_cli(argv)
    assert code == 0, err
    assert out

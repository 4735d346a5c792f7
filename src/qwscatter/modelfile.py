"""Reading and writing model files.

A model file is a JSON document with exactly these fields:

* ``vertices`` — list of vertex names (strings),
* ``arcs`` — list of ``{"from": ..., "to": ..., "name": ...}`` objects
  (``name`` optional),
* ``in_tails`` / ``out_tails`` — lists of ``{"index": n, "at_vertex": v}``
  objects; the two lists carry the same index set, and index ``n``'s pair
  of entries says where tail ``n`` enters and leaves the interior,
* ``coins`` — object mapping each vertex name to a square grid of coin
  entry expressions (strings in the coin grammar; ``eps`` is the free
  parameter, ``i`` the imaginary unit).

Anything else — an unknown top-level field, a stray key inside an arc or
tail object — is rejected, so typos fail loudly instead of silently
changing the model.
"""

from __future__ import annotations

import json
import math
import os

from .coins import CoinFamily, parse_coin_family
from .graph import TailedGraph, build_graph
from .models import ModelFamily


class ModelFileError(ValueError):
    """The document is not a valid model file."""


_TOP_KEYS = {"vertices", "arcs", "in_tails", "out_tails", "coins"}


def _require_keys(obj: dict, required: set, optional: set, where: str):
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ModelFileError(f"{where}: missing field(s) {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ModelFileError(f"{where}: unknown field(s) {sorted(unknown)}")


def _parse_tail_list(entries, label: str) -> dict:
    if not isinstance(entries, list):
        raise ModelFileError(f"{label} must be a list")
    at = {}
    for k, entry in enumerate(entries):
        where = f"{label}[{k}]"
        if not isinstance(entry, dict):
            raise ModelFileError(f"{where} must be an object")
        _require_keys(entry, {"index", "at_vertex"}, set(), where)
        index = entry["index"]
        if not isinstance(index, int) or isinstance(index, bool):
            raise ModelFileError(f"{where}: index must be an integer")
        if index in at:
            raise ModelFileError(f"{where}: duplicate tail index {index}")
        if not isinstance(entry["at_vertex"], str):
            raise ModelFileError(f"{where}: at_vertex must be a vertex name")
        at[index] = entry["at_vertex"]
    return at


def model_from_dict(document: dict) -> tuple[TailedGraph, CoinFamily]:
    """Build a graph and coin family from a parsed model document."""
    if not isinstance(document, dict):
        raise ModelFileError("model document must be a JSON object")
    _require_keys(document, _TOP_KEYS, set(), "model")

    vertices = document["vertices"]
    if not isinstance(vertices, list) or not all(
        isinstance(v, str) for v in vertices
    ):
        raise ModelFileError("vertices must be a list of strings")

    raw_arcs = document["arcs"]
    if not isinstance(raw_arcs, list):
        raise ModelFileError("arcs must be a list")
    arcs = []
    for k, entry in enumerate(raw_arcs):
        where = f"arcs[{k}]"
        if not isinstance(entry, dict):
            raise ModelFileError(f"{where} must be an object")
        _require_keys(entry, {"from", "to"}, {"name"}, where)
        name = entry.get("name")
        if name is not None and not isinstance(name, str):
            raise ModelFileError(f"{where}: name must be a string")
        if not isinstance(entry["from"], str) or not isinstance(entry["to"], str):
            raise ModelFileError(f"{where}: from/to must be vertex names")
        arcs.append((entry["from"], entry["to"], name))

    in_at = _parse_tail_list(document["in_tails"], "in_tails")
    out_at = _parse_tail_list(document["out_tails"], "out_tails")
    if set(in_at) != set(out_at):
        raise ModelFileError(
            "in_tails and out_tails must carry the same index set; "
            f"got {sorted(in_at)} vs {sorted(out_at)}"
        )
    tails = [(n, in_at[n], out_at[n]) for n in sorted(in_at)]

    raw_coins = document["coins"]
    if not isinstance(raw_coins, dict):
        raise ModelFileError("coins must be an object keyed by vertex name")
    for vertex, grid in raw_coins.items():
        if not isinstance(grid, list) or not all(
            isinstance(row, list) and all(isinstance(e, str) for e in row)
            for row in grid
        ):
            raise ModelFileError(
                f"coins[{vertex!r}] must be a grid of expression strings"
            )

    try:
        graph = build_graph(vertices, arcs, tails)
        coins = parse_coin_family(raw_coins)
    except ModelFileError:
        raise
    except ValueError as exc:
        raise ModelFileError(str(exc)) from exc
    return graph, coins


def load_model(path: str) -> tuple[TailedGraph, CoinFamily]:
    """Load a model file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ModelFileError(f"{path}: not valid JSON ({exc})") from exc
    return model_from_dict(document)


def model_to_dict(graph: TailedGraph, coins: CoinFamily) -> dict:
    """Serialise a graph and coin family into a model document."""
    return {
        "vertices": list(graph.vertices),
        "arcs": [
            {"from": a.origin, "to": a.terminus, "name": a.label(k)}
            for k, a in enumerate(graph.arcs)
        ],
        "in_tails": [
            {"index": t.index, "at_vertex": t.in_vertex} for t in graph.tails
        ],
        "out_tails": [
            {"index": t.index, "at_vertex": t.out_vertex} for t in graph.tails
        ],
        "coins": {
            vertex: [[str(e) for e in row] for row in grid]
            for vertex, grid in coins.items()
        },
    }


def save_model(graph: TailedGraph, coins: CoinFamily, path: str):
    """Write a model file; the output loads back to an identical model."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(graph, coins), handle, indent=2, sort_keys=True)
        handle.write("\n")


def family_from_file(path: str) -> ModelFamily:
    """Wrap a model file as an eps-parameterised family.

    File models carry no declared eps range; out-of-range values surface
    as coin unitarity failures at evaluation time.
    """
    graph, coins = load_model(path)
    name = os.path.splitext(os.path.basename(path))[0]
    return ModelFamily(name=name, graph=graph, coins=coins, eps_limit=math.inf)

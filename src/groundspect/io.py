"""File formats: graph/input/sequence JSON, trajectory and tempo CSV, manifests.

Node labels are 1-based in every file to match the reporting convention.
Parsing them into the 0-based internal indices happens here and only here;
labels are written back by the writers here, by the to_json of
LeaderEstimate, PipelineDiagnostics and ExternalInput, and in the CLI's
messages.
All writers are deterministic (sorted keys, fixed float formatting), so a
rerun with the same resolved config reproduces files byte for byte within
one numpy/BLAS build.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .dynamics import ExternalInput, Trajectory
from .errors import GroundspectError, InputFormatError, as_int
from .graphs import Graph, Partition, build_graph, make_partition
from .sequences import GraphSequence, SequenceConfig
from .tempo import estimate_fiedler

# Rows end as in the csv module's default dialect, which read_trajectory_csv
# parses; %.17g round-trips every float and no cell ever needs quoting.
_EOL = "\r\n"


def load_json(path: str | Path) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def save_json(path: str | Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_object(payload: Any, where: str, *keys: str) -> dict:
    """Return payload once it is known to be a JSON object holding every key."""
    if not isinstance(payload, dict):
        raise InputFormatError(f"{where}: expected a JSON object, got {type(payload).__name__}")
    for key in keys:
        if key not in payload:
            raise InputFormatError(f"{where}: missing field '{key}'")
    return payload


def _label_int(label: Any) -> int:
    """A node label written as a JSON object key: ASCII decimal digits only, with
    no sign, space or leading zero, so that two keys never name one node."""
    if isinstance(label, str) and re.fullmatch(r"0|[1-9][0-9]*", label):
        return int(label)
    raise ValueError(f"node label must be a decimal integer, got {json.dumps(label)}")


# -- graphs ---------------------------------------------------------------------

def graph_to_dict(g: Graph, p: Partition) -> dict:
    return {
        "n": g.n,
        "edges": [[i + 1, j + 1] for i, j in g.edges],
        "leaders": [i + 1 for i in p.leaders],
    }


def graph_from_dict(payload: Any, where: str = "graph") -> tuple[Graph, Partition]:
    _json_object(payload, where, "n", "edges", "leaders")
    try:
        n = as_int(payload["n"], "n")
        edges = [(as_int(i) - 1, as_int(j) - 1) for i, j in payload["edges"]]
        leaders = [as_int(i) - 1 for i in payload["leaders"]]
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{where}: malformed entry ({exc})") from exc
    try:
        g = build_graph(n, edges)
        p = make_partition(n, leaders)
    except (GroundspectError, ValueError) as exc:
        raise InputFormatError(f"{where}: {exc}") from exc
    return g, p


def load_graph(path: str | Path) -> tuple[Graph, Partition]:
    return graph_from_dict(load_json(path), where=str(path))


def save_graph(path: str | Path, g: Graph, p: Partition) -> None:
    save_json(path, graph_to_dict(g, p))


# -- external inputs --------------------------------------------------------------

def inputs_from_dict(payload: Any, where: str = "inputs") -> ExternalInput:
    _json_object(payload, where, "dimension", "u")
    try:
        dim = as_int(payload["dimension"], "dimension")
        labels = {label: _label_int(label) for label in payload["u"]}
        values = {
            node - 1: tuple(float(x) for x in payload["u"][label])
            for label, node in labels.items()
        }
    except (TypeError, ValueError, AttributeError) as exc:
        raise InputFormatError(f"{where}: malformed entry ({exc})") from exc
    if any(node < 1 for node in labels.values()):
        raise InputFormatError(f"{where}: node labels are 1-based, got {min(labels.values())}")
    if dim < 1:
        raise InputFormatError(f"{where}: dimension must be >= 1")
    for node, vec in values.items():
        if len(vec) != dim:
            raise InputFormatError(
                f"{where}: input for node {node + 1} has {len(vec)} entries, expected {dim}"
            )
        if not all(map(math.isfinite, vec)):
            raise InputFormatError(f"{where}: input for node {node + 1} is not finite: {list(vec)}")
    return ExternalInput(dimension=dim, values=values)


def load_inputs(path: str | Path) -> ExternalInput:
    return inputs_from_dict(load_json(path), where=str(path))


def save_inputs(path: str | Path, u: ExternalInput) -> None:
    save_json(path, u.to_json())


# -- sequences ---------------------------------------------------------------------

def sequence_to_dict(seq: GraphSequence) -> dict:
    return {
        "config": seq.config.to_json(),
        "saturated": seq.saturated,
        "graphs": [graph_to_dict(g, p) for g, p in seq.elements],
    }


def sequence_config_from_dict(payload: Any, where: str = "config") -> SequenceConfig:
    """Parse a sequence config; growth and rng_seed take their defaults if absent."""
    _json_object(payload, where)
    try:
        return SequenceConfig(
            leader_degrees=tuple(payload["leader_degrees"]),
            initial_followers=payload["initial_followers"],
            steps=payload["steps"],
            growth=str(payload.get("growth", "densify_edges")),
            rng_seed=payload.get("rng_seed", 0),
        )
    except KeyError as exc:
        raise InputFormatError(f"{where}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


def load_sequence(path: str | Path) -> GraphSequence:
    payload = _json_object(load_json(path), str(path), "config", "graphs")
    cfg = sequence_config_from_dict(payload["config"], where=f"{path}#config")
    elements = tuple(
        graph_from_dict(item, where=f"{path}#graphs[{idx}]")
        for idx, item in enumerate(_graph_list(payload, path))
    )
    if not elements:
        raise InputFormatError(f"{path}: empty sequence")
    return GraphSequence(
        elements=elements, config=cfg, saturated=bool(payload.get("saturated", False))
    )


def save_sequence(path: str | Path, seq: GraphSequence) -> None:
    save_json(path, sequence_to_dict(seq))


def load_instances(path: str | Path) -> list[tuple[str, Any]]:
    """(name, graph payload) for a graph file, or for each graph of a sequence file."""
    payload = _json_object(load_json(path), str(path))
    if "graphs" not in payload:
        return [(str(path), payload)]
    return [(f"{path}#{idx}", item) for idx, item in enumerate(_graph_list(payload, path))]


def _graph_list(payload: dict, path: str | Path) -> list:
    if not isinstance(payload["graphs"], list):
        raise InputFormatError(f"{path}: 'graphs' must be a JSON list")
    return payload["graphs"]


# -- trajectories -------------------------------------------------------------------

def write_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    """One row per recorded time: t, x<node>_<dim>..., v<node>_<dim>...."""
    _, n, d = traj.states.shape
    header = (
        ["t"]
        + [f"x{i + 1}_{k + 1}" for i in range(n) for k in range(d)]
        + [f"v{i + 1}_{k + 1}" for i in range(n) for k in range(d)]
    )
    row = ",".join(["%.17g"] * (1 + 2 * n * d)) + _EOL
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + _EOL)
        for t, x, v in zip(traj.times.tolist(), traj.states, traj.velocities):
            fh.write(row % (t, *x.ravel().tolist(), *v.ravel().tolist()))


def read_trajectory_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (times, states, velocities); the node/dim layout follows the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    data = np.array(rows)
    n_cols = len(header) - 1
    n_state = n_cols // 2
    dims = {int(name.split("_")[1]) for name in header[1 : 1 + n_state]}
    d = max(dims)
    n = n_state // d
    times = data[:, 0]
    states = data[:, 1 : 1 + n_state].reshape(-1, n, d)
    velocities = data[:, 1 + n_state :].reshape(-1, n, d)
    return times, states, velocities


def write_tempo_csv(path: str | Path, traj: Trajectory) -> None:
    """Per-time unit-normalized tempo vectors: columns t, tau1..tauN.

    Rows where every velocity is zero are written as empty tempo cells. The
    curves approach the Fiedler-vector entries as the slowest mode takes
    over.
    """
    n = traj.states.shape[1]
    row = ",".join(["%.17g"] * (1 + n)) + _EOL
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["t"] + [f"tau{i + 1}" for i in range(n)]) + _EOL)
        for t, vel in zip(traj.times.tolist(), traj.velocities):
            try:
                _, estimate = estimate_fiedler(vel)
            except GroundspectError:
                fh.write(f"{t:.17g}" + "," * n + _EOL)
            else:
                fh.write(row % (t, *estimate.tolist()))


# -- run manifests --------------------------------------------------------------------

def write_manifest(
    path: str | Path,
    subcommand: str,
    config: dict,
    inputs: dict[str, str],
    outputs: list[str],
    rng_seed: int | None = None,
) -> None:
    """Record everything needed to reproduce a command's outputs bit-identically."""
    save_json(
        path,
        {
            "subcommand": subcommand,
            "tool_version": __version__,
            "numpy_version": np.__version__,
            "rng_seed": rng_seed,
            "config": config,
            "inputs": inputs,
            "outputs": sorted(outputs),
        },
    )

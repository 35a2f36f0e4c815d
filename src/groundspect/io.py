"""File formats: graph/input/sequence JSON, trajectory and tempo CSV, manifests.

Node labels are 1-based in every file to match the reporting convention.
Parsing them into the 0-based internal indices happens here and only here
(a graph file's errors name its labels); labels are written back by the
writers here, by the to_json of LeaderEstimate, PipelineDiagnostics and
ExternalInput, in ExternalInput's errors and in the CLI's messages.
All writers are deterministic (sorted keys, fixed float formatting), so a
rerun of the command line a manifest records reproduces files byte for
byte within one numpy/BLAS build.
"""

from __future__ import annotations

import functools
import json
import math
import re
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .dynamics import ExternalInput, Trajectory
from .errors import GroundspectError, InputFormatError, as_int
from .graphs import Graph, Partition, _pairs_graph, _partition
from .sequences import GraphSequence, SequenceConfig
from .tempo import _estimates

# Rows end as in the csv module's default dialect, so csv.reader parses them;
# %.17g round-trips every float and no cell ever needs quoting.
_EOL = b"\r\n"
_BLOCK_CELLS = 8192  # CSV rows are formatted about this many cells at a time
_SLOT = 48  # bytes per cell in _g17_text
# The most nodes a graph file may have: their float64 grounded Laplacian fits in 1 GiB.
_MAX_NODES = math.isqrt(2**30 // 8)


def load_json(path: str | Path) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text at byte {exc.start}") from exc


def save_json(path: str | Path, payload: dict) -> None:
    """Write json.dump(payload, indent=2, sort_keys=True) text and a newline."""
    Path(path).write_text(_json_text(payload) + "\n", encoding="utf-8")


# json's text of each scalar type; it spells the non-finite floats NaN, Infinity, -Infinity.
_SCALARS = {
    str: json.encoder.encode_basestring_ascii, int: int.__repr__, type(None): lambda _: "null",
    float: lambda x: float.__repr__(x) if math.isfinite(x) else json.dumps(x),
    bool: ["false", "true"].__getitem__,
}


def _json_text(value: Any, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), each line after the first led by `indent`
    (a newline and the indentation). json writes all but non-empty lists and str-keyed dicts."""
    inner = indent + "  "
    member = functools.partial(_json_text, indent=inner)
    if type(value) in (list, tuple) and value:
        if (table := _int_table(value, indent)) is not None:
            return table
        ends, items = "[]", [_SCALARS.get(type(v), member)(v) for v in value]
    elif type(value) is dict and value and set(map(type, value)) == {str}:
        ends, pairs = "{}", sorted(value.items())
        items = [f"{_SCALARS[str](k)}: {_SCALARS.get(type(v), member)(v)}" for k, v in pairs]
    else:
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", indent)
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


def _int_table(rows: list | tuple, indent: str) -> str | None:
    """The json text of equal-length lists of ints (a graph's edges) from one `%` over a
    repeated row template, or None for any other list."""
    if not set(map(type, rows)) <= {list, tuple} or len(set(map(len, rows))) > 1:
        return None
    cells, inner = tuple(chain.from_iterable(rows)), indent + "  "
    if not set(map(type, cells)) <= {int}:
        return None
    row = _json_text([0] * len(rows[0]), inner).replace("0", "%d")  # the text of a row of 0s
    return ("[" + inner + ("," + inner).join([row] * len(rows)) + indent + "]") % cells


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
        if n > _MAX_NODES:  # checked before anything n x n is allocated
            raise ValueError(f"n = {n} exceeds the {_MAX_NODES}-node cap")
        g = _pairs_graph(n, payload["edges"], first=1)
        return g, _partition(n, payload["leaders"], first=1)
    except (GroundspectError, TypeError, ValueError) as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


def load_graph(path: str | Path) -> tuple[Graph, Partition]:
    return graph_from_dict(load_json(path), where=str(path))


def save_graph(path: str | Path, g: Graph, p: Partition) -> None:
    save_json(path, graph_to_dict(g, p))


# -- external inputs --------------------------------------------------------------

def inputs_from_dict(payload: Any, where: str = "inputs") -> ExternalInput:
    _json_object(payload, where, "dimension", "u")
    try:
        labels = {label: _label_int(label) for label in payload["u"]}
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{where}: malformed entry ({exc})") from exc
    if any(node < 1 for node in labels.values()):
        raise InputFormatError(f"{where}: node labels are 1-based, got {min(labels.values())}")
    try:
        values = {node - 1: payload["u"][label] for label, node in labels.items()}
        return ExternalInput(dimension=payload["dimension"], values=values)
    except (TypeError, ValueError, OverflowError) as exc:  # an integer past float range overflows
        raise InputFormatError(f"{where}: {exc}") from exc


def load_inputs(path: str | Path) -> ExternalInput:
    return inputs_from_dict(load_json(path), where=str(path))


# -- sequences ---------------------------------------------------------------------

def sequence_to_dict(seq: GraphSequence) -> dict:
    return {
        "config": seq.config.to_json(),
        "saturated": seq.saturated,
        "graphs": [graph_to_dict(g, p) for g, p in seq.elements],
    }


def sequence_config_from_dict(payload: Any, where: str = "config") -> SequenceConfig:
    """Parse a sequence config; growth and rng_seed take their defaults if absent."""
    _json_object(payload, where, "leader_degrees", "initial_followers", "steps")
    try:
        return SequenceConfig(
            leader_degrees=tuple(payload["leader_degrees"]),
            initial_followers=payload["initial_followers"],
            steps=payload["steps"],
            growth=str(payload.get("growth", "densify_edges")),
            rng_seed=payload.get("rng_seed", 0),
        )
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


def save_sequence(path: str | Path, seq: GraphSequence) -> None:
    save_json(path, sequence_to_dict(seq))


def load_instances(path: str | Path) -> list[tuple[str, Any]]:
    """(name, graph payload) for a graph file, or for each graph of a sequence file."""
    payload = _json_object(load_json(path), str(path))
    if "graphs" not in payload:
        return [(str(path), payload)]
    if not isinstance(payload["graphs"], list):
        raise InputFormatError(f"{path}: 'graphs' must be a JSON list")
    return [(f"{path}#{idx}", item) for idx, item in enumerate(payload["graphs"])]


# -- trajectories -------------------------------------------------------------------

def write_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    """One row per recorded time: t, x<node>_<dim>..., v<node>_<dim>...."""
    rows, n, d = traj.states.shape
    header = (
        ["t"]
        + [f"x{i + 1}_{k + 1}" for i in range(n) for k in range(d)]
        + [f"v{i + 1}_{k + 1}" for i in range(n) for k in range(d)]
    )
    flat = [a.reshape(rows, -1) for a in (traj.states, traj.velocities)]
    _write_csv(path, header, [traj.times[:, None], *flat], np.ones(rows, dtype=bool))


def write_tempo_csv(path: str | Path, traj: Trajectory) -> None:
    """Per-time unit-normalized tempo vectors: columns t, tau1..tauN.

    Rows where every velocity is zero are written as empty tempo cells. The
    curves approach the Fiedler-vector entries as the slowest mode takes
    over.
    """
    n = traj.states.shape[1]
    _, live, estimates = _estimates(traj.velocities)
    tau = np.zeros((len(live), n))
    tau[live] = estimates
    _write_csv(path, ["t"] + [f"tau{i + 1}" for i in range(n)], [traj.times[:, None], tau], live)


def _write_csv(
    path: str | Path, header: list[str], columns: list[np.ndarray], live: np.ndarray
) -> None:
    """Write the rows of the 2-D `columns` side by side as '%.17g' cells, a block at a time;
    a row not `live` keeps its first cell and leaves the others empty."""
    width = sum(c.shape[1] for c in columns)
    row = b",".join([b"%.17g"] * width) + _EOL
    blank = b"%.17g" + b"," * (width - 1) + _EOL
    step = max(1, _BLOCK_CELLS // width)
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + _EOL)
        for i in range(0, len(live), step):
            block = np.concatenate([c[i : i + step] for c in columns], axis=1, dtype=float)
            text = _g17_text(block) if live[i : i + step].all() else None
            if text is None:  # Python's own formatting, row by row
                cells = zip(block.tolist(), live[i : i + step].tolist())
                text = b"".join(row % tuple(r) if ok else blank % r[0] for r, ok in cells)
            fh.write(text)


@functools.cache
def _g17_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of _g17_text, built on the first CSV write."""
    i = np.arange(10000)
    words = np.zeros((5, 10000, 4), dtype=np.uint8)  # [c, w]: w's first c digits, then NUL
    for c in range(1, 5):
        words[c:, :, c - 1] = i // 10 ** (4 - c) % 10 + ord("0")
    trailing = sum((i % 10**k == 0).astype(np.intp) for k in range(1, 5))  # 4 for 0000
    ceil10 = []  # the smallest double >= 10**k
    for k in range(-11, 17):
        a, b = float(f"1e{k}").as_integer_ratio()
        below = a * 10 ** max(-k, 0) < b * 10 ** max(k, 0)  # a / b < 10**k, in int arithmetic
        ceil10.append(math.nextafter(a / b, math.inf) if below else a / b)
    # By exponent e and last non-zero digit z: how many digits of each word the text keeps
    # (%g keeps the integer digits of the fixed form) and the slot byte of its point.
    e, z = np.arange(-11, 17)[:, None], np.arange(17)
    keep = np.clip(np.maximum(z, e) - np.array([-4, 0, 4, 8, 12])[:, None, None], 0, 4)
    point = np.where(e >= 0, e, np.where(e < -4, 0, 16))
    layout = np.concatenate([10000 * keep, np.where(z > point, 9 + 2 * point, 0)[None]])
    lead = [b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b"" for k in range(-11, 17)]
    prefix = b"".join(b"\0," + sign + p.rjust(5, b"\0") for sign in (b"\0", b"-") for p in lead)
    suffix = b"".join(b"e-%02d" % -k if k < -4 else bytes(4) for k in range(-11, 17))
    return (
        words.view(np.uint32).ravel(), trailing, np.array(ceil10), layout.reshape(6, -1),
        np.frombuffer(prefix, np.uint64), np.frombuffer(suffix, np.uint32),
        np.array([5**s for s in range(28)], dtype=np.uint64),
    )


def _g17_text(block: np.ndarray) -> bytes | None:
    """The CSV rows of a C-ordered 2-D float64 block with every cell exactly '%.17g' % cell,
    or None when a non-zero cell is not finite or its magnitude is outside [1e-11, 2**51).

    A cell m * 2**(b - 52) in [10**E, 10**(E + 1)) has the 17 digits round-half-even(
    m * 5**s / 2**r), s = 16 - E, r = 36 - b + E. There s <= 27 and 1 <= r <= 63, so the
    product and its rounding are exact in uint64 arithmetic on 32-bit limbs, and no double
    lies close enough below a power of ten to round up to 10**17. Each cell's text is laid
    out in a _SLOT-byte slot, NUL where unused: separator (2), sign (1), "0.000" prefix (5),
    17 digits each followed by a point slot (33), NUL (3) and "e-XX" suffix (4).
    """
    words, trailing, ceil10, layout, prefix, suffix, pow5 = _g17_tables()
    u64, one, k32 = np.uint64, np.uint64(1), np.uint64(32)
    x = block.ravel()
    zero, ok = x == 0.0, np.isfinite(x) & (x != 0.0)
    a = np.where(ok, np.abs(x), 1.0)  # log10 and the table indices stay defined
    e = np.clip(np.floor(np.log10(a)), -11, 15).astype(np.intp)
    e += (a >= ceil10[e + 12]).astype(np.intp) - (a < ceil10[e + 11])
    bits = a.view(u64)
    r = 1075 - (bits >> u64(52)).astype(np.intp) - (16 - e)
    if not (zero | ok & (e >= -11) & (r >= 1) & (r <= 63)).all():
        return None
    m, p = bits & u64(2**52 - 1) | u64(2**52), pow5[16 - e]
    ml, mh, pl, ph = m & u64(2**32 - 1), m >> k32, p & u64(2**32 - 1), p >> k32
    mid, ll = ml * ph + mh * pl, ml * pl
    lo = ll + (mid << k32)  # the product is hi * 2**64 + lo
    hi = mh * ph + (mid >> k32) + (lo < ll).astype(u64)
    r = r.astype(u64)
    d = hi << (u64(64) - r) | lo >> r
    rem, half = lo & (one << r) - one, one << r - one
    d += ((rem > half) | (rem == half) & (d & one).astype(bool)).astype(u64)
    d[zero], e[zero] = 0, 0
    w = np.empty((5, len(x)), dtype=np.intp)  # the lead digit, then four 4-digit words
    for k in range(4, 0, -1):  # q = d // b and d - q * b: np.divmod is slower in uint64
        q = d // u64(10**4)
        w[k], d = d - q * u64(10**4), q
    w[0] = d
    t, nil = np.take(trailing, w[1:]), w[1:] == 0
    z = 16 - (t[3] + nil[3] * (t[2] + nil[2] * (t[1] + nil[1] * t[0])))  # last non-zero digit
    lay = np.take(layout, (e + 11) * 17 + z, axis=1)
    w += lay[:5]
    out = np.zeros((len(x), _SLOT), dtype=np.uint8)
    out[:, 8:41:2] = words[w].T.copy().view(np.uint8)[:, 3:]
    out.ravel()[_SLOT * np.arange(len(x)) + lay[5]] = ord(".")  # byte 0 when there is none
    out.view(u64)[:, 0] = prefix[np.signbit(x).astype(np.intp) * 28 + e + 11]
    out.view(np.uint32)[:, 11] = suffix[e + 11]
    out.reshape(*block.shape, _SLOT)[:, 0, :2] = tuple(_EOL)  # a row starts where the last ended
    return out.tobytes().translate(None, b"\0")[2:] + _EOL


# -- run manifests --------------------------------------------------------------------

def write_manifest(path: str | Path, subcommand: str, args: dict, outputs: list) -> None:
    """Record the command line that reproduces a command's outputs bit-identically."""
    record = {"subcommand": subcommand, "args": args, "outputs": sorted(map(str, outputs))}
    save_json(path, record | {"tool_version": __version__, "numpy_version": np.__version__})

"""Span tracing of groundspect from outside the package.

``Tracer.install`` rebinds every public function of the eight groundspect
modules (plus ``cli._pipeline_worker``, ``numpy.linalg.eigh`` and
``scipy.linalg.cho_factor``) wherever a module holds a reference to it, so
calls made through module globals, such as ``tempo.simulate`` or
``identifiability.fiedler_pair``, pass through a wrapper that records a span.
Nothing under ``src/`` changes.

A span is ``{id, parent, pid, name, layer, graph, start, end, error, extra}``.
Times are ``time.perf_counter`` readings, which on Linux come from the
system-wide monotonic clock, so spans of the forked pool workers line up with
those of the process that started them. Spans are kept in memory and written
out by ``write``; a forked pool worker has no exit hook, so it appends its
spans to its own file whenever its outermost span ends.

Functions called once per node or per trajectory row (``COUNTED``) get a
call count and total time instead of a span each; their time stays inside
the span of their caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("graphs", "spectral", "identifiability", "sequences", "dynamics", "tempo", "io", "cli")
COUNTED = frozenset({"relative_tempo", "follower_degree", "leader_degree", "limiting_leader_entry"})
# Private functions that are layer boundaries all the same.
PRIVATE = {"cli": ("_pipeline_worker",)}
# Library decompositions, counted in the spectral layer.
LIBRARY = (("numpy.linalg", "eigh"), ("scipy.linalg", "cho_factor"))
DECOMPOSITIONS = frozenset({"eig_symmetric", "numpy.linalg.eigh", "scipy.linalg.cho_factor"})


def _file_size(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# Values read off a call's arguments or result and stored with its span.
OBSERVERS = {
    "simulate": lambda a, k, r: {
        "rows": len(r.times),
        "bytes": r.states.nbytes + r.velocities.nbytes,
    },
    "generate_sequence": lambda a, k, r: {
        "edges_added": len(r.elements[-1][0].edges) - len(r.elements[0][0].edges)
    },
    "save_json": _file_size,
    "write_trajectory_csv": _file_size,
    "write_tempo_csv": _file_size,
}
# The graph a worker call belongs to: the instance name of its job.
GRAPH_OF = {"_pipeline_worker": lambda args: args[0][0]}


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self, outdir: str | Path) -> None:
        self.outdir = Path(outdir)
        self.pid = os.getpid()
        self.forked = False
        self.graph = None
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.calls: Counter = Counter()
        self.call_s: defaultdict = defaultdict(float)
        self._next_id = 0
        self._bindings: list[tuple[types.ModuleType, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"groundspect.{layer}") for layer in LAYERS}
        holders = [importlib.import_module("groundspect"), *modules.values()]
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                own = isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__
                if own and (not name.startswith("_") or name in PRIVATE.get(layer, ())):
                    self._rebind(holders, fn, self._wrap(fn, name, layer))
        for modname, name in LIBRARY:
            module = importlib.import_module(modname)
            fn = getattr(module, name)
            self._rebind([module], fn, self._wrap(fn, f"{modname}.{name}", "spectral"))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._bindings):
            setattr(module, name, original)
        self._bindings.clear()

    def _rebind(self, holders, original, wrapper) -> None:
        for module in holders:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._bindings.append((module, name, original))
                    setattr(module, name, wrapper)

    def _wrap(self, fn, name: str, layer: str):
        if name in COUNTED:
            return self._wrap_counted(fn, name)
        observe = OBSERVERS.get(name)
        graph_of = GRAPH_OF.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_graph = self.graph
            if graph_of is not None:
                self.graph = graph_of(args)
            span = {
                "id": self._next_id,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "pid": self.pid,
                "name": name,
                "layer": layer,
                "graph": self.graph,
                "error": None,
                "extra": None,
            }
            self._next_id += 1
            self.stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            else:
                if observe is not None:
                    span["extra"] = observe(args, kwargs, result)
                return result
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                self.spans.append(span)
                self.graph = outer_graph
                if self.forked and not self.stack:
                    self.write()

        return wrapper

    def _wrap_counted(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.call_s[name] += time.perf_counter() - start
                self.calls[name] += 1

        return wrapper

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.forked = True
        self.spans.clear()
        self.stack.clear()
        self.calls.clear()
        self.call_s.clear()

    # -- output -------------------------------------------------------------------

    def write(self) -> None:
        """Append the spans and call counts held so far to this process's file."""
        self.outdir.mkdir(parents=True, exist_ok=True)
        with open(self.outdir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for name, count in self.calls.items():
                fh.write(json.dumps({"calls": name, "count": count, "s": self.call_s[name]}) + "\n")
        self.spans.clear()
        self.calls.clear()
        self.call_s.clear()


def load_trace(outdir: str | Path) -> tuple[list[dict], Counter]:
    """All spans and per-function call counts written under outdir."""
    spans: list[dict] = []
    calls: Counter = Counter()
    for path in sorted(Path(outdir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if "calls" in record:
                    calls[record["calls"]] += record["count"]
                else:
                    spans.append(record)
    return spans, calls


# -- per-layer metrics -----------------------------------------------------------------


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(
    spans: list[dict],
    calls: Counter,
    graphs: int,
    jobs: int,
) -> dict[str, float]:
    """Per-layer numbers of one traced pass over ``graphs`` graphs.

    Times are seconds summed over the pass and include the span's children
    unless the name says ``self``; counts are exact.
    """
    by_name: defaultdict = defaultdict(list)
    children: defaultdict = defaultdict(list)
    by_key = {}
    for span in spans:
        by_name[span["name"]].append(span)
        by_key[span["pid"], span["id"]] = span
        if span["parent"] is not None:
            children[span["pid"], span["parent"]].append(span)

    def total(*names: str) -> float:
        return sum(_duration(s) for name in names for s in by_name[name])

    def count(*names: str) -> int:
        return sum(len(by_name[name]) for name in names)

    def self_time(name: str, child_layer: str | None = None) -> float:
        out = 0.0
        for s in by_name[name]:
            kids = children[s["pid"], s["id"]]
            out += _duration(s) - sum(
                _duration(c) for c in kids if child_layer is None or c["layer"] == child_layer
            )
        return out

    def extra(name: str, key: str) -> float:
        return sum(s["extra"][key] for s in by_name[name] if s["extra"])

    per_graph = 1.0 / max(graphs, 1)
    simulate_calls = count("simulate")
    worker_s = total("_pipeline_worker")
    metrics = {
        "graphs.build_s": total("build_graph", "make_partition"),
        "graphs.laplacian_s": total("grounded_laplacian"),
        "graphs.laplacian_calls_per_graph": count("grounded_laplacian") * per_graph,
        "spectral.eig_s": total("eig_symmetric"),
        "spectral.eig_calls_per_graph": count("eig_symmetric") * per_graph,
        "spectral.perron_s": total("verify_perron"),
        "spectral.decompositions_per_graph": count(*DECOMPOSITIONS) * per_graph,
        "identifiability.check_self_s": self_time("check_identifiability", "spectral"),
        "sequences.generate_s": total("generate_sequence"),
        "sequences.edges_added": extra("generate_sequence", "edges_added"),
        "dynamics.simulate_s": total("simulate"),
        "dynamics.steady_state_s": total("steady_state"),
        "dynamics.rows_per_simulate": (
            extra("simulate", "rows") / simulate_calls if simulate_calls else 0.0
        ),
        "dynamics.traj_mb": extra("simulate", "bytes") / 1e6,
        "tempo.relative_tempo_calls": calls["relative_tempo"],
        "tempo.estimate_s": total("estimate_fiedler"),
        "tempo.identify_s": total("identify_leaders"),
        "tempo.pipeline_self_s": self_time("run_pipeline"),
        "io.traj_csv_s": total("write_trajectory_csv"),
        "io.tempo_csv_s": total("write_tempo_csv"),
        "io.json_load_s": total("load_json"),
        "io.json_save_s": total("save_json"),
        "io.bytes_written": sum(
            extra(name, "bytes") for name in ("save_json", "write_trajectory_csv", "write_tempo_csv")
        ),
        "cli.worker_s": worker_s,
        "cli.pool_wait_s": total("main") - worker_s / jobs if by_name["_pipeline_worker"] else 0.0,
    }
    errors = Counter(
        s["layer"]
        for s in spans
        if s["error"]
        and (s["parent"] is None or by_key[s["pid"], s["parent"]]["layer"] != s["layer"])
    )
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = errors[layer]
    return metrics


def uncovered_share(spans: list[dict], windows: list[tuple[float, float]]) -> float:
    """Share of the windows' wall time that no span, in any process, covers."""
    wall = sum(end - start for start, end in windows)
    covered = 0.0
    for lo, hi in windows:
        intervals = sorted(
            (max(s["start"], lo), min(s["end"], hi))
            for s in spans
            if s["end"] > lo and s["start"] < hi
        )
        reach = lo
        for start, end in intervals:
            if end > reach:
                covered += end - max(start, reach)
                reach = end
    return (wall - covered) / wall if wall > 0 else 0.0


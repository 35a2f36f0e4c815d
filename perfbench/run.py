#!/usr/bin/env python3
"""groundspect benchmark: certify-sweep, identify-large and batch-small.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload certify-sweep --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the workload runs as a closed loop with one caller for
``--seconds`` seconds and the end-to-end metrics are printed, their times
normalized to a reference host speed by ``speed.SpeedProbe``. With
``--trace 1`` a fixed amount of work (the first units of that loop) runs once
untraced and once with every public groundspect function wrapped, and the
per-layer metrics of the traced pass are printed. Metric names and units come
from ``BENCHMARK.json``. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it carry
the details (sample counts, tail percentile, failed graphs, output hashes and
the environment), and the same details go to
``.perfbench_work/results/<workload>-seed<seed>-trace<t>.json``.

The program is imported from ``src/`` of the checkout; the benchmark exits
with status 2, printing no result, when that source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
# A tail percentile is reported only with at least this many samples beyond it.
TAIL_BEYOND = 10


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="one small graph per unit (self-check)")
    args = ap.parse_args()
    # On SIGTERM, unwind so that a running CLI subprocess is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "groundspect" / "__init__.py").is_file():
        print(f"error: no groundspect source tree at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import groundspect

    if Path(groundspect.__file__).resolve().parent != SRC / "groundspect":
        print(f"error: imported groundspect from {groundspect.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = Path(".perfbench_work") / (("tiny-" if args.tiny else "") + args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](workdir, args.seed, args.tiny)

    if args.trace:
        workload.setup()
        metrics, details = traced_run(workload, workdir / "trace")
        wanted = spec["per_layer"]
    else:
        probe = SpeedProbe(in_process=workload.jobs == 1)
        probe.start()
        try:
            setups = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.setup()
                setups.append((t0, time.perf_counter()))
            metrics, details = timed_run(workload, args.seconds, probe)
        finally:
            probe.stop()
        metrics["setup_s"] = statistics.median(probe.normalized(*w) for w in setups)
        details["setup_s"] = {
            "normalized_s": [probe.normalized(*w) for w in setups],
            "wall_s": [b - a for a, b in setups],
            "speed": [probe.speed(*w) for w in setups],
            "repeats": SETUP_REPEATS,
        }
        details["speed_probe"] = probe.summary()
        wanted = spec["end_to_end"]

    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        raise RuntimeError(f"metric set mismatch: missing {names - set(metrics)}, extra {set(metrics) - names}")
    failures = details["failures"]
    attempted = details["attempted"]
    failed = min(len(failures), attempted)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    details |= {
        "workload": args.workload,
        "trace": args.trace,
        "failed_ratio": failed / attempted,
        "environment": environment(args.seed),
    }

    results = Path(".perfbench_work") / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{'tiny-' if args.tiny else ''}{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(details | {"result": result}, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  closed loop, one caller")
    print("environment " + json.dumps(details["environment"], sort_keys=True))
    for m in wanted:
        note = details.get("notes", {}).get(m["name"], "")
        print(f"{m['name']:<38} {metrics[m['name']]:>14.6g} {m['unit']:<12} {note}")
    print(f"{'failed_ratio':<38} {failed / attempted:>14.6g} {'ratio':<12} ({failed} of {attempted} graphs)")
    for failure in failures:
        print(f"FAILED {failure}")
    if details.get("hashes"):
        print("output hashes " + json.dumps(details["hashes"], sort_keys=True))
    print(json.dumps(result))
    return 0


def timed_run(workload, seconds: float, probe: SpeedProbe) -> tuple[dict, dict]:
    """Closed loop for about ``seconds``: each unit starts when the previous one ends.

    Another unit starts while half a unit's mean time still fits, so a run
    ends within about half a unit of ``seconds``. Times are normalized to the
    reference speed by ``probe`` (see ``speed.py``).
    """
    units = []
    start = time.perf_counter()
    while not units or (time.perf_counter() - start) * (1 + 0.5 / len(units)) < seconds:
        units.append(workload.run(len(units)))
    graphs = sum(u.graphs for u in units)
    program_s = sum(probe.normalized(*u.window) for u in units)
    latencies = [probe.normalized(*w) / u.graphs_per_sample for u in units for w in u.samples]
    raw = [probe.wall(*w) / u.graphs_per_sample for u in units for w in u.samples]
    p50 = statistics.median(latencies)
    tail, pct = tail_latency(latencies)
    if workload.jobs > 1:
        rss = max(u.rss_mb for u in units)
        rss_note = "summed peak RSS of the CLI and its pool workers"
        lat_note = "per batch: batch time / graphs"
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        rss_note = "peak RSS of the benchmark process"
        lat_note = "per graph"
    metrics = {
        "graphs_per_s": graphs / program_s,
        "graph_p50_ms": p50 * 1e3,
        "graph_tail_ms": tail * 1e3,
        "peak_rss_mb": rss,
    }
    details = {
        "attempted": graphs,
        "failures": [f for u in units for f in u.failures],
        "hashes": merged_hashes(units),
        "units": len(units),
        "notes": {
            "graphs_per_s": f"({graphs} graphs in {program_s:.3f} normalized s of program time, {len(units)} units;"
            f" raw {graphs / sum(probe.wall(*u.window) for u in units):.6g})",
            "graph_p50_ms": f"({len(latencies)} samples, {lat_note}; raw {statistics.median(raw) * 1e3:.6g})",
            "graph_tail_ms": f"(p{pct:.1f} of {len(latencies)} samples, {lat_note})",
            "peak_rss_mb": f"({rss_note})",
        },
        "latencies_s": latencies,
        "raw_latencies_s": raw,
    }
    return metrics, details


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, never below the median.

    Returns (value, percentile). Below 2 * TAIL_BEYOND + 1 samples this is the
    median.
    """
    xs = sorted(samples)
    n = len(xs)
    idx = n - 1 - TAIL_BEYOND
    if idx < (n - 1) / 2:
        return statistics.median(xs), 50.0
    return xs[idx], 100.0 * idx / (n - 1)


def traced_run(workload, trace_dir: Path) -> tuple[dict, dict]:
    """The first units of the loop, once untraced and once traced."""
    from tracer import Tracer, layer_metrics, load_trace, uncovered_share

    n_units = workload.trace_units()
    untraced = [workload.run(k) for k in range(n_units)]
    tracer = None
    if workload.jobs > 1:
        workload.launcher = [sys.executable, str(Path("perfbench") / "launch.py"), str(trace_dir)]
    else:
        tracer = workload.tracer = Tracer(trace_dir)
        tracer.install()
    try:
        traced = [workload.run(k) for k in range(n_units)]
    finally:
        workload.tracer = workload.launcher = None
        if tracer is not None:
            tracer.uninstall()
            tracer.write()
    spans, calls = load_trace(trace_dir)

    graphs = sum(u.graphs for u in traced)
    metrics = layer_metrics(spans, calls, graphs, workload.jobs)
    metrics["cli.import_s"] = import_seconds()
    untraced_rate = sum(u.graphs for u in untraced) / sum(u.wall_s for u in untraced)
    traced_rate = graphs / sum(u.wall_s for u in traced)
    metrics["trace.graphs_per_s"] = traced_rate
    metrics["trace.overhead_graphs_per_s"] = untraced_rate - traced_rate
    metrics["trace.uncovered_share"] = uncovered_share(spans, [u.window for u in traced])

    pids = {s["pid"] for s in spans}
    worker_pids = {s["pid"] for s in spans if s["name"] == "_pipeline_worker"}
    details = {
        "attempted": graphs + sum(u.graphs for u in untraced),
        "failures": [f for u in untraced + traced for f in u.failures],
        "hashes": merged_hashes(untraced + traced),
        "units": n_units,
        "span_layers": sorted({s["layer"] for s in spans}),
        "span_processes": len(pids),
        "worker_processes": len(worker_pids),
        "untraced_graphs_per_s": untraced_rate,
        "notes": {
            "trace.overhead_graphs_per_s": f"(untraced {untraced_rate:.6g} minus traced {traced_rate:.6g})",
            "trace.uncovered_share": f"(spans from {len(pids)} processes, {len(worker_pids)} pool workers)",
        },
    }
    return metrics, details


def import_seconds() -> float:
    """Median time to import groundspect.cli in a fresh interpreter."""
    from workloads import src_env

    code = "import time; t = time.perf_counter(); import groundspect.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True, timeout=60
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def merged_hashes(units) -> dict[str, str]:
    out: dict[str, str] = {}
    for u in units:
        out.update(u.hashes)
    return out


def environment(seed: int) -> dict:
    """What spectral numbers and byte-identical outputs depend on."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        rev = out.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main())

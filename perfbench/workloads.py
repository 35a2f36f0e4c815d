"""The three benchmark workloads and the checks behind ``failed``.

Each workload is a closed loop with one caller: ``run(k)`` does work unit k
(a densification sweep, one ``identify`` call, one ``pipeline`` batch) and
returns only when it has finished. The program's time is measured around its
calls; the benchmark's own checks run afterwards, off that clock.

Correctness is checked against references that do not go through the
package's Jacobi solver: LAPACK ``scipy.linalg.eigh`` on a grounded Laplacian
built here from the edge list, and the true leader set the benchmark planted.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io as stdio
import os
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from groundspect import cli, graphs, identifiability, io, sequences, spectral
from groundspect.sequences import SequenceConfig

# Tolerances of the independent checks.
EIG_TOL = 1e-9  # lambda_F relative, v_F max-abs, Perron radius error
ANGLE_TOL = 1e-3  # the CLI oracle's angle tolerance
JOBS = 2  # pool size of the batch-small CLI
SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict[str, str]:
    """The caller's environment with the checkout's src/ first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@dataclass
class UnitResult:
    """One finished work unit: its graphs, when the program ran and the failures.

    ``window`` is the ``perf_counter`` interval of the whole unit and
    ``samples`` the intervals behind the latency samples, each covering
    ``graphs_per_sample`` graphs.
    """

    graphs: int
    window: tuple[float, float]
    samples: list[tuple[float, float]]
    failures: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    rss_mb: float = 0.0
    graphs_per_sample: int = 1

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]


def _seeds(*key: int, count: int = 1) -> list[int]:
    return [int(x) for x in np.random.SeedSequence(list(key)).generate_state(count)]


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _reference_fiedler(g: graphs.Graph, leaders: list[int]) -> tuple[float, np.ndarray]:
    """LAPACK smallest eigenpair of L(G) + diag(leaders), oriented and unit-norm."""
    lap = np.zeros((g.n, g.n))
    for i, j in g.edges:
        lap[i, j] = lap[j, i] = -1.0
    lap[np.diag_indices(g.n)] = -lap.sum(axis=1)
    lap[leaders, leaders] += 1.0
    w, vecs = scipy.linalg.eigh(lap)
    v = vecs[:, 0]
    if v[np.abs(v).argmax()] < 0.0:
        v = -v
    return float(w[0]), v / np.linalg.norm(v)


def _angle(a: np.ndarray, b: np.ndarray) -> float:
    cosine = abs(float(a @ b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.arccos(min(cosine, 1.0)))


def _failure(label: str, exc: BaseException) -> str:
    return f"{label}: {type(exc).__name__}: {exc} @ {traceback.extract_tb(exc.__traceback__)[-1].name}"


class Workload:
    name = ""
    jobs = 1

    def __init__(self, workdir: Path, seed: int, tiny: bool) -> None:
        self.workdir = workdir
        self.seed = seed
        self.tiny = tiny
        self.tracer = None

    def set_graph(self, graph_id) -> None:
        if self.tracer is not None:
            self.tracer.graph = graph_id

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, k: int) -> UnitResult:
        raise NotImplementedError

    def trace_units(self) -> int:
        """Work units of the fixed-size traced pass."""
        return 1


class CertifySweep(Workload):
    """The densification analysis: generate two families, certify every element.

    Every element gets ``check_identifiability`` and the ``spectral``
    subcommand's Perron check; generation is part of the timed work.
    """

    name = "certify-sweep"

    def _configs(self, k: int) -> list[SequenceConfig]:
        s1, s2 = _seeds(self.seed, 1, k, count=2)
        if self.tiny:
            return [SequenceConfig((2, 2), 6, 2, "densify_edges", s1)]
        return [
            SequenceConfig((2, 3, 2), 60, 24, "densify_edges", s1),
            SequenceConfig((2, 3, 2), 52, 16, "add_nodes_and_edges", s2),
        ]

    def setup(self) -> None:
        # Warm-up: one small family through the same calls as the timed work.
        (s,) = _seeds(self.seed, 0)
        for g, p in sequences.generate_sequence(SequenceConfig((2, 3, 2), 30, 8, "densify_edges", s)).elements:
            self._certify(g, p)

    @staticmethod
    def _certify(g, p):
        report = identifiability.check_identifiability(g, p)
        pair = spectral.fiedler_pair(graphs.grounded_laplacian(g, p))
        perron = spectral.verify_perron(spectral.semi_normalized_adjacency(g, p, pair.lambda_f), pair.v_f)
        return report, pair, perron

    def run(self, k: int) -> UnitResult:
        outputs, samples, failures = [], [], []
        start = time.perf_counter()
        for f, cfg in enumerate(self._configs(k)):
            seq = sequences.generate_sequence(cfg)
            for e, (g, p) in enumerate(seq.elements):
                label = f"sweep{k}/family{f}/element{e}"
                self.set_graph(label)
                t0 = time.perf_counter()
                try:
                    outputs.append((label, g, p, self._certify(g, p)))
                except Exception as exc:
                    outputs.append((label, g, p, None))
                    failures.append(_failure(label, exc))
                samples.append((t0, time.perf_counter()))
        end = time.perf_counter()
        self.set_graph(None)
        for label, g, p, result in outputs:
            bad = self._check(g, p, *result) if result is not None else []
            if bad:
                failures.append(f"{label}: {'; '.join(bad)}")
        return UnitResult(len(outputs), (start, end), samples, failures)

    @staticmethod
    def _check(g, p, report, pair, perron) -> list[str]:
        lam, v = _reference_fiedler(g, list(p.leaders))
        bad = []
        for what, value in (("check lambda_F", report.lambda_f), ("spectral lambda_F", pair.lambda_f)):
            if not abs(value - lam) <= EIG_TOL * abs(lam):
                bad.append(f"{what} {value!r} vs LAPACK {lam!r}")
        vec_err = float(np.abs(pair.v_f - v).max())
        if not vec_err <= EIG_TOL:
            bad.append(f"v_F max-abs error {vec_err:.3e}")
        if not perron.radius_error <= EIG_TOL:
            bad.append(f"Perron radius error {perron.radius_error:.3e}")
        return bad


class IdentifyLarge(Workload):
    """``groundspect identify`` in process on seeded n~200 dense instances.

    The graphs are cycled; whenever a graph is identified again (in a long
    run, or in the traced pass after the untraced one) its output files must
    hash the same. Four graphs per seed keep the seed's share of the median
    small: instances differ by 10-25% in cost, and now and then one takes
    several times as long where the Jacobi solver converges slowly.
    """

    name = "identify-large"
    n_graphs = 4

    def setup(self) -> None:
        rng = np.random.default_rng(_seeds(self.seed, 2))
        followers, degrees = (9, (2, 3, 2)) if self.tiny else (197, (2, 3, 4))
        self.paths, self.leaders = [], []
        for k in range(1 if self.tiny else self.n_graphs):
            g, p = sequences.dense_follower_instance(followers, degrees, rng)
            path = self.workdir / f"g{k}.json"
            io.save_graph(path, g, p)
            self.paths.append(path)
            self.leaders.append(sorted(i + 1 for i in p.leaders))
        self.first_hashes: dict[str, str] = {}
        self.reference: dict[int, np.ndarray] = {}
        # Warm-up: one small instance through the same command.
        warm = self.workdir / "warm.json"
        io.save_graph(warm, *sequences.dense_follower_instance(9, (2, 3, 2)))
        self._identify(warm, self.workdir / "warm")

    def _identify(self, path: Path, outdir: Path) -> int:
        with contextlib.redirect_stdout(stdio.StringIO()):
            return cli.main(["identify", str(path), "-o", str(outdir)])

    def trace_units(self) -> int:
        return min(2, len(self.paths))

    def run(self, k: int) -> UnitResult:
        idx = k % len(self.paths)
        path, outdir, label = self.paths[idx], self.workdir / "out", f"g{idx}"
        files = [outdir / f"g{idx}.{suffix}" for suffix in ("leaders.json", "traj.csv", "tempo.csv")]
        for f in files:
            f.unlink(missing_ok=True)
        self.set_graph(label)
        failures = []
        start = time.perf_counter()
        try:
            rc = self._identify(path, outdir)
        except Exception as exc:
            rc = None
            failures.append(_failure(label, exc))
        end = time.perf_counter()
        self.set_graph(None)
        hashes = {}
        if rc is not None:
            hashes, bad = self._check(idx, files, rc)
            if bad:
                failures.append(f"{label}: {'; '.join(bad)}")
        return UnitResult(1, (start, end), [(start, end)], failures, hashes)

    def _check(self, idx: int, files: list[Path], rc: int) -> tuple[dict[str, str], list[str]]:
        bad = [] if rc == 0 else [f"identify exited {rc}"]
        if not all(f.exists() for f in files):
            return {}, bad + ["output files missing"]
        hashes = {f.name: _sha256(f) for f in files}
        for name, digest in hashes.items():
            if self.first_hashes.setdefault(name, digest) != digest:
                bad.append(f"{name} differs from its first repetition")
        report = io.load_json(files[0])
        if report["leaders"] != self.leaders[idx]:
            bad.append(f"leaders {report['leaders']} != true {self.leaders[idx]}")
        if not (report["recovered"] and report["angle_to_true"] <= ANGLE_TOL):
            bad.append(f"recovered={report['recovered']} angle={report['angle_to_true']:.3e}")
        # The estimate at the measurement time is the tempo CSV's last row;
        # compare it with LAPACK's Fiedler vector.
        if idx not in self.reference:
            g, p = io.load_graph(self.paths[idx])
            self.reference[idx] = _reference_fiedler(g, list(p.leaders))[1]
        with open(files[2], encoding="utf-8") as fh:
            last = list(csv.reader(fh))[-1]
        estimate = np.array([float(x) for x in last[1:]])
        angle = _angle(estimate, self.reference[idx])
        if not angle <= ANGLE_TOL:
            bad.append(f"tempo estimate {angle:.3e} rad from LAPACK v_F")
        return hashes, bad


class BatchSmall(Workload):
    """``groundspect pipeline --jobs 2`` as a subprocess over many small graphs.

    It runs in the caller's environment with no BLAS thread pinning, so the
    pool's workers and their BLAS threads share the cores as they would for a
    user. With ``launcher`` set, the CLI starts from the tracing launcher.
    """

    name = "batch-small"
    jobs = JOBS
    ensemble_size = 120

    def __init__(self, workdir: Path, seed: int, tiny: bool) -> None:
        super().__init__(workdir, seed, tiny)
        self.launcher: list[str] | None = None

    def setup(self) -> None:
        s_seq, s_ens = _seeds(self.seed, 3, count=2)
        cfg = SequenceConfig((2, 2), 6 if self.tiny else 30, 1 if self.tiny else 28, "densify_edges", s_seq)
        seq = sequences.generate_sequence(cfg)
        # n runs evenly over [10, 60], so the batch's cost barely depends on the seed.
        count = 1 if self.tiny else self.ensemble_size
        sizes = [10 + (50 * i) // max(count - 1, 1) for i in range(count)]
        ens = [
            sequences.random_ensemble(1, s, n_range=(n, n))[0]
            for n, s in zip(sizes, _seeds(s_ens, count=count))
        ]
        self.inputs = [self.workdir / "sequence.json", self.workdir / "ensemble.json"]
        io.save_sequence(self.inputs[0], seq)
        io.save_json(self.inputs[1], {"graphs": [io.graph_to_dict(g, p) for g, p in ens]})
        self.leaders = [sorted(i + 1 for i in p.leaders) for _, p in (*seq.elements, *ens)]
        self.first_hash = None
        # Warm-up: the CLI once on a one-graph file.
        warm = self.workdir / "warm.json"
        io.save_graph(warm, *ens[0])
        self._pipeline([warm], self.workdir / "warm")

    def _pipeline(self, inputs: list[Path], outdir: Path) -> tuple[int, float, tuple[float, float]]:
        cmd = self.launcher or [sys.executable, "-m", "groundspect.cli"]
        cmd = cmd + ["pipeline", *map(str, inputs), "--jobs", str(self.jobs), "-o", str(outdir)]
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "stdout.txt", "wb") as out, open(outdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=src_env(), stdout=out, stderr=err, start_new_session=True)
            sampler = _TreeRss(proc.pid)
            try:
                rc = proc.wait(timeout=150)
            finally:
                end = time.perf_counter()
                # The pool workers are the CLI's children, so a CLI killed on
                # the way out would leave them running: kill its whole group.
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                rss = sampler.stop()
        return rc, rss, (start, end)

    def run(self, k: int) -> UnitResult:
        outdir = self.workdir / "out"
        summary = outdir / "pipeline_summary.json"
        summary.unlink(missing_ok=True)
        rc, rss, window = self._pipeline(self.inputs, outdir)
        n = len(self.leaders)
        failures, hashes = [], {}
        if not summary.exists():
            failures = [f"batch{k}: pipeline exited {rc} without a summary"] * n
        else:
            hashes = {"pipeline_summary.json": _sha256(summary)}
            if self.first_hash is None:
                self.first_hash = hashes["pipeline_summary.json"]
            elif hashes["pipeline_summary.json"] != self.first_hash:
                failures.append(f"batch{k}: pipeline_summary.json differs from its first repetition")
            rows = io.load_json(summary)["instances"]
            if len(rows) != n:
                failures += [f"batch{k}: {len(rows)} summary rows for {n} graphs"] * abs(n - len(rows))
            for row, leaders in zip(rows, self.leaders):
                msg = self._check_row(row, leaders)
                if msg:
                    failures.append(f"{row['instance']}: {msg}")
            if rc != 0 and not failures:
                failures.append(f"batch{k}: pipeline exited {rc}")
        return UnitResult(n, window, [window], failures, hashes, rss, graphs_per_sample=n)

    @staticmethod
    def _check_row(row: dict, leaders: list[int]) -> str | None:
        if "error" in row:
            return f"error {row['error']}"
        if row.get("separated"):
            if row.get("leaders") != leaders or not row.get("recovered"):
                return f"separated but leaders {row.get('leaders')} != true {leaders}"
            if not row["angle_to_true"] <= ANGLE_TOL:
                return f"angle_to_true {row['angle_to_true']:.3e}"
        return None


class _TreeRss:
    """Polls the summed peak RSS (VmHWM) of a process and its descendants."""

    def __init__(self, pid: int, interval: float = 0.02) -> None:
        self.pid = pid
        self.peaks: dict[int, int] = {}
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._poll, args=(interval,), daemon=True)
        self._thread.start()

    def _poll(self, interval: float) -> None:
        while not self._done.is_set():
            for pid in self._tree():
                kb = _vm_hwm_kb(pid)
                if kb:
                    self.peaks[pid] = max(self.peaks.get(pid, 0), kb)
            self._done.wait(interval)

    def _tree(self) -> list[int]:
        out, todo = [], [self.pid]
        while todo:
            pid = todo.pop()
            out.append(pid)
            with contextlib.suppress(OSError):
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as fh:
                        todo += [int(c) for c in fh.read().split()]
        return out

    def stop(self) -> float:
        self._done.set()
        self._thread.join(timeout=5)
        return sum(self.peaks.values()) * 1024 / 1e6


def _vm_hwm_kb(pid: int) -> int:
    with contextlib.suppress(OSError):
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    return 0


WORKLOADS = {w.name: w for w in (CertifySweep, IdentifyLarge, BatchSmall)}

"""Command-line interface.

Subcommands:
  gen       generate a densifying graph family from a config file
  spectral  Fiedler pair, full spectrum, and Perron check for one graph
  check     leader-identifiability certificate (exit 0 iff separated)
  simulate  integrate the closed loop and write a trajectory CSV
  identify  full velocity-based leader identification pipeline
  pipeline  batch check + identify over many graphs (optionally parallel)

Exit codes: 0 success/certified, 1 domain failure (conditions unmet,
identification failed), 2 input error (a flag out of range too). Set
GS_LOG=debug|info|warning to control log verbosity.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import gc
import logging
import os
import sys
from pathlib import Path

import numpy as np
from numpy.random import default_rng  # loaded here, so pool workers fork with it

from . import __version__, io
from .dynamics import ExternalInput, SimConfig, choose_measurement_time, simulate
from .errors import FiedlerOutOfRangeError, GroundspectError, InputFormatError
from .graphs import Graph, Partition, grounded_laplacian, is_connected
from .identifiability import check_identifiability
from .sequences import generate_sequence
from .spectral import (
    SpectralResult, _one_blas_thread, fiedler_pair, semi_normalized_adjacency, verify_perron
)
from .tempo import run_pipeline

log = logging.getLogger(__name__)


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GroundspectError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _setup_logging() -> None:
    level = os.environ.get("GS_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundspect",
        description="Leader identification in semi-autonomous consensus networks.",
    )
    parser.add_argument("--version", action="version", version=f"groundspect {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # Arguments shared between subcommands, declared once.
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("graph", help="graph JSON")
    outdir = argparse.ArgumentParser(add_help=False)
    outdir.add_argument("-o", "--outdir", default=".")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--dim", type=_above(int, 0), default=2, help="dimension for generated inputs"
    )
    seeded.add_argument("--seed", type=_above(int, -1), default=0)
    run = argparse.ArgumentParser(add_help=False, parents=[graph, seeded, outdir])
    run.add_argument("--inputs", help="external-input JSON (default: random, seeded)")

    def add(name: str, func, summary: str, parents: list) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    p = add("gen", _cmd_gen, "generate a densifying graph family", [outdir])
    p.add_argument("config", help="sequence config JSON")
    add("spectral", _cmd_spectral, "Fiedler pair and Perron check", [graph, outdir])
    add("check", _cmd_check, "identifiability certificate", [graph, outdir])

    p = add("simulate", _cmd_simulate, "integrate the closed loop", [run])
    p.add_argument("--dt", type=_above(float, 0), default=0.01)
    p.add_argument("--t-final", type=_above(float, 0), default=10.0)
    p.add_argument("--record-every", type=_above(int, 0), default=1)

    p = add("identify", _cmd_identify, "velocity-based leader identification", [run])
    p.add_argument("--t-final", type=_above(float, 0), help="horizon (default: certified time)")
    p.add_argument("--dt", type=_above(float, 0), help="grid step (default: horizon/512)")

    p = add("pipeline", _cmd_pipeline, "batch check + identify", [seeded, outdir])
    p.add_argument("paths", nargs="+", help="graph or sequence JSON files")
    p.add_argument("--jobs", type=_above(int, 0), default=1)
    return parser


def _above(kind: type, bound: int):
    """An argparse type: a finite number of the given kind, greater than bound."""
    def parse(text: str):
        value = kind(text)
        if not bound < value < float("inf"):
            raise argparse.ArgumentTypeError(f"{text} is not a finite {kind.__name__} > {bound}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid <type> value"
    return parse


# -- subcommands -------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = io.sequence_config_from_dict(io.load_json(args.config), where=args.config)
    seq = generate_sequence(cfg)
    outdir = _ensure_outdir(args.outdir)
    out = outdir / "sequence.json"
    io.save_sequence(out, seq)
    io.write_manifest(
        outdir / "sequence.manifest.json",
        "gen",
        cfg.to_json(),
        {"config": str(args.config)},
        [str(out)],
        rng_seed=cfg.rng_seed,
    )
    print(f"wrote {out} ({len(seq)} graphs, saturated={seq.saturated})")
    return 0


def _cmd_spectral(args: argparse.Namespace) -> int:
    g, p = io.load_graph(args.graph)
    if not is_connected(g):
        raise FiedlerOutOfRangeError(f"{args.graph}: graph is disconnected")
    result = fiedler_pair(grounded_laplacian(g, p))
    perron = verify_perron(semi_normalized_adjacency(g, p, result.lambda_f), result.v_f)
    (out,) = _outputs(args, "spectral.json")
    io.save_json(out, result.to_json() | {"perron": perron.to_json()})
    _manifest(args, [out], {}, {}, rng_seed=None)
    print(f"lambda_F = {result.lambda_f:.9f}  |rho-1| = {perron.radius_error:.3e}")
    print(f"wrote {out}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    report = check_identifiability(*io.load_graph(args.graph))
    (out,) = _outputs(args, "check.json")
    io.save_json(out, report.to_json())
    _manifest(args, [out], {}, {}, rng_seed=None)
    print(
        f"separated={report.separated} epsilon_d={report.epsilon_d:.4f} "
        f"epsilon={report.epsilon:.4f} min_follower_degree={report.min_follower_degree}"
    )
    print(f"wrote {out}")
    return 0 if report.separated else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    u, spect, x0 = _prepare_run(args)
    cfg = _sim_config(u, args.dt, args.t_final, args.record_every)
    traj = simulate(spect, u, x0, cfg)
    (out,) = _outputs(args, "traj.csv")
    io.write_trajectory_csv(out, traj)
    _run_manifest(args, cfg, [out])
    print(f"wrote {out} ({len(traj.times)} samples)")
    return 0


def _cmd_identify(args: argparse.Namespace) -> int:
    u, spect, x0 = _prepare_run(args)
    t_meas, _ = choose_measurement_time(spect.spectrum)
    t_final = args.t_final if args.t_final is not None else t_meas
    dt = args.dt if args.dt is not None else t_final / 512.0
    cfg = _sim_config(u, dt, t_final, 1)
    estimate, diag = run_pipeline(spect, u, x0, cfg)

    leaders_out, traj_out, tempo_out = _outputs(args, "leaders.json", "traj.csv", "tempo.csv")
    record = estimate.to_json() | diag.to_json()
    io.save_json(leaders_out, record)
    io.write_trajectory_csv(traj_out, diag.trajectory)
    io.write_tempo_csv(tempo_out, diag.trajectory)
    _run_manifest(args, cfg, [leaders_out, traj_out, tempo_out])
    print(
        f"identified leaders {record['leaders']} (n={estimate.n_leaders}, "
        f"gap={estimate.gap_size:.4f}, recovered={diag.recovered})"
    )
    print(f"wrote {leaders_out}, {traj_out}, {tempo_out}")
    return 0 if diag.recovered else 1


def _cmd_pipeline(args: argparse.Namespace) -> int:
    instances = [item for path in args.paths for item in io.load_instances(path)]
    jobs = [
        (name, graph_dict, args.seed + idx, args.dim)
        for idx, (name, graph_dict) in enumerate(instances)
    ]
    workers = min(args.jobs, len(jobs))  # a fork-started pool forks all of them at once
    if workers > 1:
        chunk = -(-len(jobs) // (4 * workers))  # about four chunks per worker
        gc.freeze()  # the workers' collections then leave the parent's pages shared
        try:  # the workers fork with one BLAS thread and numpy.random loaded
            with _one_blas_thread(), concurrent.futures.ProcessPoolExecutor(workers) as pool:
                rows = list(pool.map(_pipeline_worker, jobs, chunksize=chunk))
        finally:
            gc.unfreeze()
    else:
        rows = [_pipeline_worker(job) for job in jobs]

    outdir = _ensure_outdir(args.outdir)
    out = outdir / "pipeline_summary.json"
    io.save_json(out, {"instances": rows})
    io.write_manifest(
        outdir / "pipeline_summary.manifest.json",
        "pipeline",
        {"jobs": args.jobs, "dim": args.dim},
        {f"path{i}": str(pth) for i, pth in enumerate(args.paths)},
        [str(out)],
        rng_seed=args.seed,
    )
    n_sep = sum(1 for r in rows if r.get("separated"))
    n_rec = sum(1 for r in rows if r.get("recovered"))
    print(f"{len(rows)} instances: {n_sep} separated, {n_rec} recovered")
    print(f"wrote {out}")
    failed = any(
        r.get("error") or (r.get("separated") and not r.get("recovered")) for r in rows
    )
    return 1 if failed else 0


def _pipeline_worker(job: tuple[str, dict, int, int]) -> dict:
    """One summary row: the instance name, the check record, then the identify
    record without sorted_values (n floats; the leaders JSON keeps them)."""
    name, graph_dict, seed, dim = job
    row: dict = {"instance": name}
    try:
        g, p = io.graph_from_dict(graph_dict, where=name)
        report = check_identifiability(g, p)
        row |= report.to_json()
        u = _generated_inputs(p, dim, seed)
        estimate, diag = run_pipeline(report.spectral, u, _random_x0(g, u, seed))
        row |= estimate.to_json() | diag.to_json()
        del row["sorted_values"]
    except GroundspectError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        log.warning("pipeline %s failed: %s", name, exc)
    return row


# -- helpers ----------------------------------------------------------------------


def _ensure_outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _generated_inputs(p: Partition, dim: int, seed: int) -> ExternalInput:
    rows = default_rng((seed, 0xA11)).uniform(10.0, 50.0, size=(len(p.leaders), dim))
    return ExternalInput(dim, dict(zip(p.leaders, rows.tolist())))


def _random_x0(g: Graph, u: ExternalInput, seed: int) -> np.ndarray:
    rng = default_rng((seed, 0xB22))
    return rng.normal(0.0, 1.0, size=(g.n, u.dimension))


def _prepare_run(args: argparse.Namespace) -> tuple[ExternalInput, SpectralResult, np.ndarray]:
    """Load the graph, resolve the inputs, decompose once and draw x0."""
    g, p = io.load_graph(args.graph)
    u = io.load_inputs(args.inputs) if args.inputs else _generated_inputs(p, args.dim, args.seed)
    if set(u.values) != set(p.leaders):  # generated inputs always cover them
        raise InputFormatError(
            f"{args.inputs}: input labels {sorted(i + 1 for i in u.values)} "
            f"must be exactly the leaders {[i + 1 for i in p.leaders]}"
        )
    spect = fiedler_pair(grounded_laplacian(g, p))
    return u, spect, _random_x0(g, u, args.seed)


def _sim_config(u: ExternalInput, dt: float, t_final: float, record_every: int) -> SimConfig:
    try:
        return SimConfig(u.dimension, dt, t_final, record_every)
    except ValueError as exc:  # parsing range-checks each flag; t_final < dt is left
        raise InputFormatError(f"{exc}: t_final={t_final:g}, dt={dt:g}") from exc


def _outputs(args: argparse.Namespace, *suffixes: str) -> list[Path]:
    """<outdir>/<graph stem>.<suffix> for each suffix, creating outdir."""
    outdir = _ensure_outdir(args.outdir)
    return [outdir / f"{Path(args.graph).stem}.{suffix}" for suffix in suffixes]


def _manifest(
    args: argparse.Namespace, outputs: list[Path], config: dict, inputs: dict, rng_seed: int | None
) -> None:
    """<outdir>/<graph stem>.<subcommand>.manifest.json for a one-graph command."""
    io.write_manifest(
        Path(args.outdir) / f"{Path(args.graph).stem}.{args.subcommand}.manifest.json",
        args.subcommand,
        config,
        {"graph": str(args.graph)} | inputs,
        [str(out) for out in outputs],
        rng_seed=rng_seed,
    )


def _run_manifest(args: argparse.Namespace, cfg: SimConfig, outputs: list[Path]) -> None:
    config = cfg.to_json() | {"generated_inputs": args.inputs is None}
    _manifest(args, outputs, config, {"inputs": args.inputs or "(generated)"}, args.seed)


if __name__ == "__main__":
    sys.exit(main())

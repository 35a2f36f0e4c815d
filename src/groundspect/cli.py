"""Command-line interface.

Subcommands:
  gen       generate a densifying graph family from a config file
  spectral  Fiedler pair, full spectrum, and Perron check for one graph
  check     leader-identifiability certificate (exit 0 iff separated)
  simulate  integrate the closed loop and write a trajectory CSV
  identify  full velocity-based leader identification pipeline
  oracle    cross-check LAPACK against the Jacobi reference and the data path
  pipeline  batch check + identify over many graphs (optionally parallel)

Exit codes: 0 success/certified, 1 domain failure (conditions unmet,
identification failed), 2 input error. Set GS_LOG=debug|info|warning to
control log verbosity.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, io
from .dynamics import (
    RK4_STABILITY,
    ExternalInput,
    SimConfig,
    choose_measurement_time,
    simulate,
    steady_state,
)
from .errors import FiedlerOutOfRangeError, GroundspectError, InputFormatError
from .graphs import Graph, Partition, grounded_laplacian, is_connected
from .identifiability import check_identifiability
from .sequences import SequenceConfig, generate_sequence
from .spectral import eig_symmetric, fiedler_pair, semi_normalized_adjacency, verify_perron
from .tempo import identify_leaders, run_pipeline

log = logging.getLogger(__name__)

# Tolerances for the oracle cross-check.
_ORACLE_EIG_TOL = 1e-9
_ORACLE_ANGLE_TOL = 1e-3


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
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

    p = sub.add_parser("gen", help="generate a densifying graph family")
    p.add_argument("config", help="sequence config JSON")
    p.add_argument("-o", "--outdir", default=".")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("spectral", help="Fiedler pair and Perron check")
    p.add_argument("graph", help="graph JSON")
    p.add_argument("-o", "--outdir", default=".")
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("check", help="identifiability certificate")
    p.add_argument("graph", help="graph JSON")
    p.add_argument("-o", "--outdir", default=".")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", help="integrate the closed loop")
    p.add_argument("graph", help="graph JSON")
    p.add_argument("--inputs", help="external-input JSON (default: random, seeded)")
    p.add_argument("--dim", type=int, default=2, help="dimension for generated inputs")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--t-final", type=float, default=10.0)
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--integrator", choices=("rk4", "exact"), default="exact")
    p.add_argument("--x0", choices=("random", "steady"), default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--outdir", default=".")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("identify", help="velocity-based leader identification")
    p.add_argument("graph", help="graph JSON")
    p.add_argument("--inputs", help="external-input JSON (default: random, seeded)")
    p.add_argument("--dim", type=int, default=2, help="dimension for generated inputs")
    p.add_argument("--t-final", type=float, help="horizon (default: certified time)")
    p.add_argument("--dt", type=float, help="grid step (default: horizon/512)")
    p.add_argument("--integrator", choices=("rk4", "exact"), default="exact")
    p.add_argument("--x0", choices=("random", "steady"), default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--outdir", default=".")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("oracle", help="cross-check LAPACK vs Jacobi and data-driven paths")
    p.add_argument("graph", help="graph JSON")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--debug-tamper-vf",
        action="store_true",
        help="perturb the Fiedler vector before comparison (negative control)",
    )
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("pipeline", help="batch check + identify")
    p.add_argument("paths", nargs="+", help="graph or sequence JSON files")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--outdir", default=".")
    p.set_defaults(func=_cmd_pipeline)

    return parser


# -- subcommands -------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    payload = io.load_json(args.config)
    try:
        cfg = SequenceConfig(
            leader_degrees=tuple(payload["leader_degrees"]),
            initial_followers=int(payload["initial_followers"]),
            steps=int(payload["steps"]),
            growth=str(payload.get("growth", "densify_edges")),
            rng_seed=int(payload.get("rng_seed", 0)),
        )
    except KeyError as exc:
        raise InputFormatError(f"{args.config}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{args.config}: {exc}") from exc
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
    perron = verify_perron(
        semi_normalized_adjacency(g, p, result.lambda_f), result.v_f
    )
    outdir = _ensure_outdir(args.outdir)
    out = outdir / f"{Path(args.graph).stem}.spectral.json"
    io.save_json(out, result.to_json() | {"perron": perron.to_json()})
    io.write_manifest(
        outdir / f"{Path(args.graph).stem}.spectral.manifest.json",
        "spectral",
        {},
        {"graph": str(args.graph)},
        [str(out)],
    )
    print(f"lambda_F = {result.lambda_f:.9f}  |rho-1| = {perron.radius_error:.3e}")
    print(f"wrote {out}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    g, p = io.load_graph(args.graph)
    report = check_identifiability(g, p)
    outdir = _ensure_outdir(args.outdir)
    out = outdir / f"{Path(args.graph).stem}.check.json"
    io.save_json(out, report.to_json())
    io.write_manifest(
        outdir / f"{Path(args.graph).stem}.check.manifest.json",
        "check",
        {},
        {"graph": str(args.graph)},
        [str(out)],
    )
    print(
        f"separated={report.separated} epsilon_d={report.epsilon_d:.4f} "
        f"epsilon={report.epsilon:.4f} min_follower_degree={report.min_follower_degree}"
    )
    print(f"wrote {out}")
    return 0 if report.separated else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    g, p = io.load_graph(args.graph)
    u = _resolve_inputs(args, p)
    cfg = SimConfig(
        dimension=u.dimension,
        dt=args.dt,
        t_final=args.t_final,
        record_every=args.record_every,
        integrator=args.integrator,
    )
    spect = fiedler_pair(grounded_laplacian(g, p))
    x0 = steady_state(spect, u) if args.x0 == "steady" else _random_x0(g, u, args.seed)
    traj = simulate(spect, u, x0, cfg)
    outdir = _ensure_outdir(args.outdir)
    stem = Path(args.graph).stem
    out = outdir / f"{stem}.traj.csv"
    io.write_trajectory_csv(out, traj)
    io.write_manifest(
        outdir / f"{stem}.simulate.manifest.json",
        "simulate",
        cfg.to_json() | {"x0": args.x0, "generated_inputs": args.inputs is None},
        {"graph": str(args.graph), "inputs": args.inputs or "(generated)"},
        [str(out)],
        rng_seed=args.seed,
    )
    print(f"wrote {out} ({len(traj.times)} samples)")
    return 0


def _cmd_identify(args: argparse.Namespace) -> int:
    g, p = io.load_graph(args.graph)
    u = _resolve_inputs(args, p)
    spect = fiedler_pair(grounded_laplacian(g, p))
    x0 = steady_state(spect, u) if args.x0 == "steady" else _random_x0(g, u, args.seed)

    t_meas, _ = choose_measurement_time(spect.spectrum)
    t_final = args.t_final if args.t_final is not None else t_meas
    if args.dt is not None:
        dt = args.dt
    elif args.integrator == "exact":
        dt = t_final / 512.0
    else:
        dt = min(t_final / 512.0, 0.5 * RK4_STABILITY / spect.spectrum[-1])
    cfg = SimConfig(
        dimension=u.dimension,
        dt=dt,
        t_final=t_final,
        record_every=1,
        integrator=args.integrator,
    )
    estimate, diag = run_pipeline(spect, u, x0, cfg)

    outdir = _ensure_outdir(args.outdir)
    stem = Path(args.graph).stem
    leaders_out = outdir / f"{stem}.leaders.json"
    traj_out = outdir / f"{stem}.traj.csv"
    tempo_out = outdir / f"{stem}.tempo.csv"
    io.save_json(
        leaders_out,
        estimate.to_json()
        | {
            "measurement_time": diag.measurement_time,
            "predicted_dominance": diag.predicted_dominance,
            "reference": diag.reference + 1,
            "angle_to_true": diag.angle_to_true,
            "recovered": diag.recovered,
        },
    )
    io.write_trajectory_csv(traj_out, diag.trajectory)
    io.write_tempo_csv(tempo_out, diag.trajectory)
    io.write_manifest(
        outdir / f"{stem}.identify.manifest.json",
        "identify",
        cfg.to_json() | {"x0": args.x0, "generated_inputs": args.inputs is None},
        {"graph": str(args.graph), "inputs": args.inputs or "(generated)"},
        [str(leaders_out), str(traj_out), str(tempo_out)],
        rng_seed=args.seed,
    )
    labels = sorted(i + 1 for i in estimate.leader_set)
    print(
        f"identified leaders {labels} (n={estimate.n_leaders}, "
        f"gap={estimate.gap_size:.4f}, recovered={diag.recovered})"
    )
    print(f"wrote {leaders_out}, {traj_out}, {tempo_out}")
    return 0 if diag.recovered else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    g, p = io.load_graph(args.graph)
    L = grounded_laplacian(g, p)
    result = fiedler_pair(L)
    w, vecs = eig_symmetric(L.matrix)
    v_ref = vecs[:, 0].copy()
    if v_ref[np.abs(v_ref).argmax()] < 0.0:
        v_ref = -v_ref

    lam_err = abs(result.lambda_f - w[0])
    vec_err = float(np.abs(result.v_f - v_ref / np.linalg.norm(v_ref)).max())

    v_true = result.v_f.copy()
    if args.debug_tamper_vf:
        v_true[p.leaders[0]] += 0.5  # negative control: push a leader entry up
    true_set = identify_leaders(v_true).leader_set

    u = _generated_inputs(p, args.dim, args.seed)
    x0 = _random_x0(g, u, args.seed)
    pipeline_est, diag = run_pipeline(result, u, x0)
    angle = diag.angle_to_true
    sets_equal = true_set == pipeline_est.leader_set

    ok = (
        lam_err <= _ORACLE_EIG_TOL
        and vec_err <= _ORACLE_EIG_TOL
        and angle <= _ORACLE_ANGLE_TOL
        and sets_equal
    )
    if args.debug_tamper_vf:
        print("(Fiedler vector tampered for negative control)")
    print(f"lambda_F discrepancy      : {lam_err:.3e}")
    print(f"v_F discrepancy (max abs) : {vec_err:.3e}")
    print(f"estimate angle to v_F     : {angle:.3e} rad")
    print(
        "leader sets               : "
        f"spectral={sorted(i + 1 for i in true_set)} "
        f"pipeline={sorted(i + 1 for i in pipeline_est.leader_set)} "
        f"({'match' if sets_equal else 'MISMATCH'})"
    )
    print("oracle verdict            :", "OK" if ok else "MISMATCH")
    return 0 if ok else 1


def _cmd_pipeline(args: argparse.Namespace) -> int:
    instances: list[tuple[str, dict]] = []
    for path in args.paths:
        payload = io.load_json(path)
        if "graphs" in payload:
            for idx, item in enumerate(payload["graphs"]):
                instances.append((f"{path}#{idx}", item))
        else:
            instances.append((path, payload))

    jobs = [
        (name, graph_dict, args.seed + idx, args.dim)
        for idx, (name, graph_dict) in enumerate(instances)
    ]
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_pipeline_worker, jobs))
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
    name, graph_dict, seed, dim = job
    row: dict = {"instance": name}
    try:
        g, p = io.graph_from_dict(graph_dict, where=name)
        report = check_identifiability(g, p)
        row["separated"] = report.separated
        row["epsilon"] = report.epsilon
        row["epsilon_d"] = report.epsilon_d
        u = _generated_inputs(p, dim, seed)
        x0 = _random_x0(g, u, seed)
        estimate, diag = run_pipeline(report.spectral, u, x0)
        row["leaders"] = sorted(i + 1 for i in estimate.leader_set)
        row["recovered"] = diag.recovered
        row["angle_to_true"] = diag.angle_to_true
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
    rng = np.random.default_rng((seed, 0xA11))
    return ExternalInput(
        dimension=dim,
        values={
            leader: tuple(float(x) for x in rng.uniform(10.0, 50.0, size=dim))
            for leader in p.leaders
        },
    )


def _random_x0(g: Graph, u: ExternalInput, seed: int) -> np.ndarray:
    rng = np.random.default_rng((seed, 0xB22))
    return rng.normal(0.0, 1.0, size=(g.n, u.dimension))


def _resolve_inputs(args: argparse.Namespace, p: Partition) -> ExternalInput:
    if args.inputs:
        return io.load_inputs(args.inputs)
    return _generated_inputs(p, args.dim, args.seed)


if __name__ == "__main__":
    sys.exit(main())

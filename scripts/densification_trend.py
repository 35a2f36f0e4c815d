#!/usr/bin/env python3
"""Track how the Fiedler vector approaches its degree-based limit as the
follower subgraph densifies.

Prints one CSV row per sequence element to stdout:
sequence, element, n, min_follower_degree, lambda_F, epsilon, limit_residual

Example:
    python scripts/densification_trend.py --sequences 5 --followers 24 --steps 20
"""

import argparse
import csv
import sys

import numpy as np

import groundspect as gs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sequences", type=int, default=5)
    ap.add_argument("--followers", type=int, default=24)
    ap.add_argument("--steps", type=int, default=20)
    ap.add_argument("--degrees", type=int, nargs=2, default=(2, 3))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["sequence", "element", "n", "min_follower_degree", "lambda_F",
         "epsilon", "limit_residual"]
    )
    for k in range(args.sequences):
        cfg = gs.SequenceConfig(
            leader_degrees=tuple(args.degrees),
            initial_followers=args.followers,
            steps=args.steps,
            rng_seed=args.seed + k,
        )
        seq = gs.generate_sequence(cfg)
        for idx, (g, p) in enumerate(seq.elements):
            report = gs.check_identifiability(g, p)
            vbar = gs.limiting_fiedler_vector(g, p, report.lambda_f)
            adj = gs.semi_normalized_adjacency(g, p, report.lambda_f)
            residual = float(np.abs(adj.matrix @ vbar - vbar).max())
            writer.writerow(
                [k, idx, g.n, report.min_follower_degree, f"{report.lambda_f:.6f}",
                 f"{report.epsilon:.6f}", f"{residual:.6f}"]
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

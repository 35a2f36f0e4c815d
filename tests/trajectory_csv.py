"""A reader for the trajectory CSV that ``io.write_trajectory_csv`` writes.

The tests read trajectories back with it; the package itself only writes them.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np


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

"""Shared fixtures: closed-form instances and the seeded random ensemble."""

from collections import Counter

import numpy as np
import pytest

import groundspect as gs

# The ensemble every ensemble-wide property runs on: 200 seeded random
# connected graphs, n in [3, 40], 1 <= |leaders| <= n-1.
ENSEMBLE_SEED = 1234
ENSEMBLE_SIZE = 200

# Closed-form anchors.
P2_LAMBDA = (3.0 - np.sqrt(5.0)) / 2.0
K3_LAMBDA = 2.0 - np.sqrt(3.0)
GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


@pytest.fixture(scope="session")
def ensemble():
    return gs.random_ensemble(ENSEMBLE_SIZE, seed=ENSEMBLE_SEED)


@pytest.fixture(scope="session")
def p2():
    g = gs.build_graph(2, [(0, 1)])
    return g, gs.make_partition(2, [0])


@pytest.fixture(scope="session")
def k3():
    g = gs.build_graph(3, [(0, 1), (1, 2), (0, 2)])
    return g, gs.make_partition(3, [0])


@pytest.fixture(scope="session")
def dense12():
    """12-node instance: complete follower graph on 10 nodes plus two
    non-adjacent degree-2 leaders."""
    return gs.dense_follower_instance(10, (2, 2))


@pytest.fixture()
def decompositions(monkeypatch):
    """Counts LAPACK ``eigh`` calls made from here on."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    return counts


def decompose(g: gs.Graph, p: gs.Partition) -> gs.SpectralResult:
    """The decomposition every dynamics and pipeline call reads."""
    return gs.fiedler_pair(gs.grounded_laplacian(g, p))


def certified_instances(count: int, seed: int) -> list[tuple[gs.Graph, gs.Partition]]:
    """Draw dense-follower instances until `count` of them are certified."""
    ss = np.random.SeedSequence(seed)
    degree_menu = [(2, 2), (2, 3), (3, 3)]
    out = []
    for i, child in enumerate(ss.spawn(4 * count)):
        rng = np.random.default_rng(child)
        g, p = gs.dense_follower_instance(10 + i % 10, degree_menu[i % 3], rng=rng)
        if gs.check_identifiability(g, p).separated:
            out.append((g, p))
            if len(out) == count:
                return out
    raise AssertionError(f"could not draw {count} certified instances")

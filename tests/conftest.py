import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from fraclat.lattice import LatticeSpec, build_mesh
from fraclat.material import MagnetizationModel, PairPotential, PenaltyChi

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="session")
def mesh16():
    """Rotated lattice at moderate resolution on the unit bar."""
    return build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 16.0, l=1.0))


@pytest.fixture(scope="session")
def mesh16_phi0():
    return build_mesh(LatticeSpec(phi=0.0, eps=1.0 / 16.0, l=1.0))


@pytest.fixture(scope="session")
def mesh32():
    return build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 32.0, l=1.0))


@pytest.fixture(scope="session")
def pot():
    return PairPotential(alpha=1.3, beta=0.8)


@pytest.fixture(scope="session")
def pot_unit():
    return PairPotential(alpha=1.0, beta=1.0)


@pytest.fixture(scope="session")
def chi():
    return PenaltyChi()


@pytest.fixture(scope="session")
def magmodel():
    return MagnetizationModel(kappa=1.5, T=2.0)


def random_rotation(rng):
    th = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(th), np.sin(th)
    return np.array([[c, -s], [s, c]])


def random_orthogonal(rng):
    R = random_rotation(rng)
    if rng.random() < 0.5:
        R = R @ np.diag([1.0, -1.0])
    return R


def check_topology_against_oracle(mesh):
    """Compare bonds, triangles and incidences with a brute-force oracle.

    The oracle uses coordinates only: every point lies in the specimen,
    bonds are the point pairs at distance eps, triangles the triples of
    mutually bonded points, and a bond's incidence counts the triangles
    having it as a side.
    """
    eps, P = mesh.spec.eps, mesh.points
    x0, x1, y0, y1 = mesh.spec.omega
    tol = 1e-9 * eps
    assert np.all((P[:, 0] >= x0 - tol) & (P[:, 0] <= x1 + tol)
                  & (P[:, 1] >= y0 - tol) & (P[:, 1] <= y1 + tol))
    near = np.abs(np.linalg.norm(P[:, None] - P[None], axis=-1) - eps) < 1e-6 * eps
    neighbors = [set(np.flatnonzero(row).tolist()) for row in near]
    bonds = {(i, j) for i in range(len(P)) for j in neighbors[i] if i < j}
    tris = {tuple(sorted((i, j, k))) for i, j in bonds for k in neighbors[i] & neighbors[j]}

    edge_keys = [tuple(sorted(e)) for e in mesh.edges.tolist()]
    tri_keys = [tuple(sorted(t)) for t in mesh.triangles.tolist()]
    assert len(set(edge_keys)) == len(edge_keys) and set(edge_keys) == bonds
    assert len(set(tri_keys)) == len(tri_keys) and set(tri_keys) == tris
    # corner order: t1 - t0 = sign eps v1 and t2 - t0 = sign eps v2
    T, sign = mesh.triangles, mesh.tri_sign[:, None]
    for corner, v in ((1, mesh.vecs.v1), (2, mesh.vecs.v2)):
        assert np.abs(P[T[:, corner]] - P[T[:, 0]] - sign * eps * v).max() < 1e-12

    sides = Counter(side for t in tris for side in combinations(t, 2))
    assert mesh.edge_inc_omega.tolist() == [sides[k] for k in edge_keys]

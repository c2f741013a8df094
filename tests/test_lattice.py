import math

import numpy as np
import pytest

import oracles
from conftest import check_topology_against_oracle
from fraclat.lattice import (BLOCK, BOUNDARY_RTOL, PHI_MAX, LatticeError, LatticeSpec,
                             build_mesh, classify_edges, cleavage_direction,
                             lattice_vectors, perp, rotation_matrix, rows_times)

SQRT3 = math.sqrt(3.0)


def test_vectors_unrotated():
    v = lattice_vectors(0.0)
    assert np.allclose(v.v1, [1.0, 0.0], atol=1e-15)
    assert np.allclose(v.v2, [0.5, SQRT3 / 2.0], atol=1e-15)
    assert np.allclose(v.v3, [-0.5, SQRT3 / 2.0], atol=1e-15)


def test_vectors_rotation_oracle():
    # direct matrix-vector product as the oracle
    phi = math.pi / 6.0
    c, s = math.cos(phi), math.sin(phi)
    R = np.array([[c, -s], [s, c]])
    v = lattice_vectors(phi)
    assert np.allclose(v.v1, R @ [1.0, 0.0], atol=1e-15)
    assert np.allclose(v.v2, R @ [0.5, SQRT3 / 2.0], atol=1e-15)
    assert np.allclose(v.v2, [0.0, 1.0], atol=1e-15)


def test_vectors_unit_norm_and_closure():
    for phi in np.linspace(0.0, PHI_MAX * (1 - 1e-12), 37):
        v = lattice_vectors(float(phi))
        for w in (v.v1, v.v2, v.v3):
            assert abs(np.linalg.norm(w) - 1.0) < 1e-14
        assert np.allclose(v.v3, v.v2 - v.v1, atol=0.0)  # exact by construction


@pytest.mark.parametrize("phi", [-0.1, PHI_MAX, PHI_MAX + 0.5, 3.0])
def test_vectors_domain_error(phi):
    with pytest.raises(LatticeError):
        lattice_vectors(phi)


def test_cleavage_phi_zero():
    data = cleavage_direction(0.0)
    assert data.gamma == pytest.approx(SQRT3 / 2.0, abs=1e-15)
    assert not data.unique


def test_cleavage_phi_30_brute_force():
    data = cleavage_direction(math.pi / 6.0)
    vecs = lattice_vectors(math.pi / 6.0)
    brute = max(abs(v[1]) for v in (vecs.v1, vecs.v2, vecs.v3))
    assert data.gamma == pytest.approx(brute, abs=0.0)
    assert data.gamma == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(data.v_gamma, vecs.v2, atol=1e-15)
    assert data.unique


def test_gamma_range_and_uniqueness_grid():
    phis = np.linspace(0.0, PHI_MAX * (1 - 1e-9), 200)
    for phi in phis:
        data = cleavage_direction(float(phi))
        assert SQRT3 / 2.0 - 1e-12 <= data.gamma <= 1.0 + 1e-12
        assert data.unique == (phi != 0.0)
        # brute-force maximizer agrees
        vecs = lattice_vectors(float(phi)).as_array()
        assert data.gamma == pytest.approx(np.abs(vecs[:, 1]).max(), abs=0.0)


def test_nonmaximizing_difference_identity():
    # the two bond directions that do not attain the maximum combine, with
    # suitable signs, to sqrt(3) times the normal of the best direction
    rng = np.random.default_rng(5)
    for phi in rng.uniform(1e-3, PHI_MAX - 1e-3, 50):
        data = cleavage_direction(float(phi))
        vecs = lattice_vectors(float(phi)).as_array()
        others = [vecs[i] for i in range(3) if i != data.index]
        target = SQRT3 * perp(data.v_gamma)
        ok = any(np.allclose(sa * others[0] + sb * others[1], sgn * target, atol=1e-12)
                 for sa in (1, -1) for sb in (1, -1) for sgn in (1, -1))
        assert ok


def test_spec_validation():
    with pytest.raises(LatticeError):
        LatticeSpec(phi=0.0, eps=-1.0)
    with pytest.raises(LatticeError):
        LatticeSpec(phi=0.0, eps=0.1, l=0.2)  # too short
    with pytest.raises(LatticeError, match="eta must be positive"):
        LatticeSpec(phi=0.0, eps=0.1, eta=0.0)  # read by nothing, still checked


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["phi", "eps", "l", "eta"])
def test_spec_rejects_a_non_finite_field(field, value):
    kwargs = {"phi": 0.3, "eps": 0.125, "l": 1.0, "eta": 0.25, field: value}
    with pytest.raises(LatticeError, match=f"^{field} must be finite, got {value}$"):
        LatticeSpec(**kwargs)


def test_empty_mesh_error():
    with pytest.raises(LatticeError):
        build_mesh(LatticeSpec(phi=0.2, eps=50.0, l=1.0))


def test_a_box_past_int32_is_refused_before_it_is_built():
    # 1e-6 asks for about 3e12 cells; the check reads only the box's corners
    with pytest.raises(LatticeError, match=r"^eps=1e-06 is too fine: .* int32"):
        build_mesh(LatticeSpec(phi=0.3, eps=1e-6, l=2.0))


@pytest.mark.parametrize("dtype", [np.int32, np.float64])
def test_blocked_rows_product_equals_the_plain_one(dtype):
    rng = np.random.default_rng(5)
    X = (rng.normal(size=(2 * BLOCK + 123, 2)) * 1000).astype(dtype)  # a short last block
    A = rng.normal(size=(2, 2))
    got, want = rows_times(X, A), X @ A.T
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def test_triangles_equilateral_and_area(mesh16):
    eps = mesh16.spec.eps
    P = mesh16.points[mesh16.triangles]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        side = np.linalg.norm(P[:, a] - P[:, b], axis=1)
        assert np.abs(side - eps).max() <= 1e-12 * eps
    # shoelace oracle for the area
    x, y = P[..., 0], P[..., 1]
    area = 0.5 * np.abs((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                        - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    assert np.abs(area - SQRT3 * eps ** 2 / 4.0).max() <= 1e-12


def test_area_covering():
    spec = LatticeSpec(phi=0.3, eps=1.0 / 64.0, l=1.0)
    mesh = build_mesh(spec)
    covered = mesh.n_triangles * mesh.triangle_area
    assert covered <= spec.l * (1.0 + 1e-12)
    assert covered >= 0.95 * spec.l


def test_edge_incidence_structure(mesh16):
    inc = mesh16.edge_inc_omega
    assert set(np.unique(inc)).issubset({0, 1, 2})
    # bonds deep inside the specimen always belong to two specimen triangles
    x0, x1, y0, y1 = mesh16.spec.omega
    mids = 0.5 * (mesh16.points[mesh16.edges[:, 0]] + mesh16.points[mesh16.edges[:, 1]])
    margin = 2.0 * mesh16.spec.eps
    deep = ((mids[:, 0] > x0 + margin) & (mids[:, 0] < x1 - margin)
            & (mids[:, 1] > y0 + margin) & (mids[:, 1] < y1 - margin))
    assert np.all(inc[deep] == 2)
    assert np.any(inc == 1)


@pytest.mark.parametrize("phi", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("inv_eps", [8, 16])
def test_topology_matches_distance_oracle(inv_eps, phi):
    spec = LatticeSpec(phi=phi, eps=1.0 / inv_eps, l=1.0)
    check_topology_against_oracle(build_mesh(spec))


@pytest.mark.parametrize("spec", oracles.MESH_SPECS, ids=oracles.spec_id)
def test_mesh_arrays_equal_the_rolled_box_oracle(spec):
    mesh, expected = build_mesh(spec), oracles.mesh_arrays(spec)
    for name in oracles.MESH_ARRAYS:
        got, want = getattr(mesh, name), expected[name]
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable, name


@pytest.mark.parametrize("spec", oracles.MESH_SPECS, ids=oracles.spec_id)
def test_every_point_lies_in_omega_with_a_bond(spec):
    mesh = build_mesh(spec)
    x, y = mesh.points.T
    tol = BOUNDARY_RTOL * spec.eps
    assert np.all((x >= -tol) & (x <= spec.l + tol) & (y >= -tol) & (y <= 1.0 + tol))
    # a step of eps along one of the six bond directions stays in Omega from
    # any of its points once eps <= min(l, 1) / 2, so no point is unbonded
    assert np.bincount(mesh.edges.ravel(), minlength=mesh.n_points).min() > 0


@pytest.mark.parametrize("spec", oracles.MESH_SPECS, ids=oracles.spec_id)
def test_a_bond_flanking_a_triangle_has_incidence_one_or_two(spec):
    mesh = build_mesh(spec)
    n = mesh.n_points
    T = mesh.triangles.astype(np.int64)
    sides = np.concatenate([np.minimum(T[:, a], T[:, b]) * n + np.maximum(T[:, a], T[:, b])
                            for a, b in ((0, 1), (0, 2), (1, 2))])
    E = np.sort(mesh.edges.astype(np.int64), axis=1)
    flanks = np.isin(E[:, 0] * n + E[:, 1], sides)
    assert np.isin(mesh.edge_inc_omega[flanks], (1, 2)).all()
    assert np.all(mesh.edge_inc_omega[~flanks] == 0)
    assert int(mesh.edge_inc_omega.sum()) == 3 * mesh.n_triangles


@pytest.mark.parametrize("spec", oracles.MESH_SPECS[::4], ids=oracles.spec_id)
def test_omega_points_and_dirichlet_layer_are_those_of_the_wide_mesh(spec):
    # the mesh once spanned (-0.25, l + 0.25) x (0, 1); its points in Omega
    # are the specimen mesh's points, bit for bit and in the same order, and
    # they carry the same pinned layer
    wide = oracles.mesh_arrays(spec, margin=0.25)
    x, y = wide["points"].T
    tol = BOUNDARY_RTOL * spec.eps
    inside = (x >= -tol) & (x <= spec.l + tol) & (y >= -tol) & (y <= 1.0 + tol)
    assert not inside.all()
    mesh = build_mesh(spec)
    assert mesh.points.tobytes() == wide["points"][inside].tobytes()
    assert mesh.lam.tobytes() == wide["lam"][inside].tobytes()
    assert np.array_equal(mesh.dirichlet, wide["dirichlet"][inside])


def test_edge_direction_consistency(mesh16):
    V = mesh16.vecs.as_array()
    d = mesh16.points[mesh16.edges[:, 1]] - mesh16.points[mesh16.edges[:, 0]]
    expect = mesh16.spec.eps * V[mesh16.edge_dir]
    assert np.abs(d - expect).max() < 1e-12


def test_dirichlet_mask_direct_distance():
    spec = LatticeSpec(phi=0.3, eps=1.0 / 8.0, l=1.0)
    mesh = build_mesh(spec)
    # brute-force point-to-rectangle distance over the half-strips beside the bar
    strips = [(-math.inf, 0.0, 0.0, 1.0), (spec.l, math.inf, 0.0, 1.0)]
    for p, flag in zip(mesh.points, mesh.dirichlet):
        d = np.inf
        for (a, b, c, e) in strips:
            dx = max(a - p[0], p[0] - b, 0.0)
            dy = max(c - p[1], p[1] - e, 0.0)
            d = min(d, math.hypot(dx, dy))
        assert flag == (d <= spec.eps * (1 + 1e-9))


def test_mesh_determinism():
    spec = LatticeSpec(phi=0.123, eps=1.0 / 16.0, l=1.0)
    m1, m2 = build_mesh(spec), build_mesh(spec)
    assert np.array_equal(m1.points, m2.points)
    assert np.array_equal(m1.triangles, m2.triangles)
    assert np.array_equal(m1.edges, m2.edges)
    assert np.array_equal(m1.lam, m2.lam)


def test_point_order_row_major(mesh16):
    lam = mesh16.lam
    keys = list(zip(lam[:, 1].tolist(), lam[:, 0].tolist()))
    assert keys == sorted(keys)


def test_classify_edges_weights(mesh16):
    w = classify_edges(mesh16)
    inc = mesh16.edge_inc_omega
    assert np.all(w[inc == 2] == 0.0)
    assert np.all(w[inc == 1] == 0.25)
    assert np.all(w[inc == 0] == 0.5)


def test_rotation_matrix_orthogonal():
    R = rotation_matrix(0.7)
    assert np.allclose(R @ R.T, np.eye(2), atol=1e-15)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-15)

import math
import re

import numpy as np
import pytest

import oracles
from fraclat.continuum import CleavageProblem, a_crit, build_u_cr, build_u_el
from fraclat import discrete_energy
from fraclat.crack_extraction import (STRETCH_FACTOR, CrackError, angle_between_lines_deg,
                                      broken_count_bound, build_modified,
                                      classify_broken, crack_energy_estimate,
                                      jump_vectors, principal_normal,
                                      spring_crossing_count,
                                      symmetric_quartic_sum)
from fraclat.discrete_energy import (Displacement, corner_differences, energy_rescaled,
                                     interpolate_gradients)
from fraclat.lattice import (LatticeSpec, build_mesh, cleavage_direction,
                             lattice_vectors)
from fraclat.lattice import perp
from fraclat.material import frobenius_norms
from fraclat.solver import cleaved_stations, recovery_sequence

SQRT3 = math.sqrt(3.0)


def supercritical_problem(phi=0.3, l=2.0, alpha=1.0):
    base = CleavageProblem(alpha=alpha, beta=1.0, l=l, phi=phi, a=0.0)
    return CleavageProblem(alpha=alpha, beta=1.0, l=l, phi=phi, a=1.5 * a_crit(base))


def modified_gradients(u, classes, crack):
    """The modified map's gradient on every triangle: the interpolant's F off the broken set."""
    out = np.array(interpolate_gradients(u)[1])
    out[classes.tri_indices] = crack.grads
    return out


def affine_displacement(mesh, F):
    """Displacement whose interpolated deformation gradient is exactly F."""
    G = (F - np.eye(2)) / math.sqrt(mesh.spec.eps)
    return Displacement(mesh, mesh.points @ G.T)


# ----------------------------------------------------------------------
# quartic identity and classification
# ----------------------------------------------------------------------

def test_quartic_trace_identity():
    rng = np.random.default_rng(0)
    for phi in np.linspace(0.0, np.pi / 3.0 * 0.999, 20):
        vecs = lattice_vectors(float(phi))
        for _ in range(50):
            H = rng.normal(size=(2, 2)) * 3.0
            H = 0.5 * (H + H.T)
            lhs, rhs = symmetric_quartic_sum(H, vecs)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_classify_identity_not_broken(mesh16):
    classes = classify_broken(Displacement.zero(mesh16))
    assert classes.count == 0


def test_classify_uniform_blowup_all_broken(mesh16):
    u = affine_displacement(mesh16, 8.0 * np.eye(2))
    classes = classify_broken(u)
    assert classes.count == mesh16.n_triangles
    assert set(classes.m.tolist()) == {3}
    assert np.abs(frobenius_norms(classes.F) - 8.0 * math.sqrt(2.0)).max() < 1e-9


def test_classify_m2_with_intact_bond(mesh16_phi0):
    # first bond direction kept at moderate stretch, the others blown up
    F = np.diag([1.5, 20.0])
    u = affine_displacement(mesh16_phi0, F)
    classes = classify_broken(u)
    assert classes.count == mesh16_phi0.n_triangles
    assert set(classes.m.tolist()) == {2} and set(classes.intact.tolist()) == {0}


@pytest.mark.parametrize("scale", [0.3, 0.6, 1.5])
def test_every_triangle_past_norm_7_is_broken(mesh16, mesh32, scale):
    # sum_d |F v_d|^2 = (3/2)|F|^2, so |F| > 7 leaves a side longer than 4.9
    # and, by v3 = v2 - v1, a second one longer than 2.9
    for seed, mesh in enumerate((mesh16, mesh32)):
        rng = np.random.default_rng(seed)
        u = Displacement(mesh, scale * rng.standard_normal((mesh.n_points, 2)))
        past_7 = np.flatnonzero(frobenius_norms(interpolate_gradients(u)[1]) > 7.0)
        assert len(past_7) > 0
        assert np.isin(past_7, classify_broken(u).tri_indices).all()


def test_broken_below_threshold_needs_two_stretched(mesh16):
    # |F| slightly above 7, the paper's proof device, has at least two
    # sides stretched by 2 or more
    u = affine_displacement(mesh16, np.diag([7.2, 0.5]))
    classes = classify_broken(u)
    assert classes.count == mesh16.n_triangles
    assert classes.m.min() >= 2


def all_triangle_classification(u):
    """``classify_broken`` as one pass over every triangle at once."""
    mesh = u.mesh
    sides = np.empty((3, 2, mesh.n_triangles))
    corner_differences(np.ascontiguousarray(u.values.T),
                       [np.ascontiguousarray(mesh.triangles[:, k]) for k in range(3)],
                       sides[:2], sides[2])
    np.subtract(sides[1], sides[0], out=sides[2])
    sides /= mesh.tri_sign.astype(float) * math.sqrt(mesh.spec.eps)
    sides += mesh.vecs.as_array()[:, :, None]
    sides *= sides
    stretched = np.add(sides[:, 0], sides[:, 1], out=sides[:, 0]) >= STRETCH_FACTOR ** 2
    m = stretched.sum(axis=0)
    tri = np.flatnonzero(m >= 2)
    stretched, m = stretched[:, tri].T, m[tri]
    intact = np.where(m == 2, np.argmin(stretched, axis=1), -1)
    F = np.ascontiguousarray(interpolate_gradients(u, tri)[1])
    return {"tri_indices": tri, "m": m, "stretched": stretched, "intact": intact, "F": F}


def classification_fields(inv_eps):
    """A sampled crack, a sampled elastic ramp and a random field on the l = 2 bar."""
    prob = supercritical_problem()
    mesh = build_mesh(LatticeSpec(phi=prob.phi, eps=1.0 / inv_eps, l=prob.l))
    rng = np.random.default_rng(inv_eps)
    p = float(cleaved_stations(prob, 1)[0])
    return {"crack": recovery_sequence(build_u_cr(prob, p), mesh),
            "ramp": recovery_sequence(build_u_el(prob), mesh),
            "random": Displacement(mesh, 0.3 * rng.standard_normal((mesh.n_points, 2)))}


@pytest.mark.parametrize("inv_eps", [16, 32, 64])
def test_blocked_classification_equals_the_all_triangle_pass(inv_eps, monkeypatch):
    fields = classification_fields(inv_eps)
    expected = {name: all_triangle_classification(u) for name, u in fields.items()}
    assert expected["crack"]["tri_indices"].size > 0 and expected["ramp"]["tri_indices"].size == 0
    # the random field breaks triangles in every block, down to the short last one
    M = fields["random"].mesh.n_triangles
    assert len(np.unique(expected["random"]["tri_indices"] // 64)) > 0.9 * (M // 64)
    for block in (7, 64, 8192):
        monkeypatch.setattr(discrete_energy, "BLOCK", block)
        for name, u in fields.items():
            got = classify_broken(u)
            for field, want in expected[name].items():
                have = getattr(got, field)
                assert (have.dtype, have.shape) == (want.dtype, want.shape), (name, field)
                assert have.tobytes() == want.tobytes(), (name, block, field)


@pytest.mark.parametrize("block", [1024, discrete_energy.BLOCK])
def test_classification_holds_a_few_blocks_and_its_broken_rows(block, monkeypatch):
    import tracemalloc
    monkeypatch.setattr(discrete_energy, "BLOCK", block)
    u = classification_fields(64)["crack"]
    mesh = u.mesh
    n, M = mesh.n_points, mesh.n_triangles
    assert block < M  # more than one block
    k = classify_broken(u).count
    assert 0 < k < M // 50
    # full length: the component-major copy of u.  Per block: the side
    # stretches (6 float rows), the signs, the casts of the corner indices
    # and the masks, about 8.3 rows.  Per broken row: the classification
    # and the interpolation of F on it.  Fixed: numpy's casting buffers,
    # 8192 elements each
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        classify_broken(u)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (2 * n + 10 * block + 32 * k) + 2 * 8 * 8192


# ----------------------------------------------------------------------
# modified interpolation
# ----------------------------------------------------------------------

def test_modified_identity_on_fully_broken(mesh16):
    u = affine_displacement(mesh16, 8.0 * np.eye(2))
    classes = classify_broken(u)
    for variant in (1, 2, 3):
        crack = build_modified(u, classes, variant=variant)
        assert crack.grads.shape == (mesh16.n_triangles, 2, 2)
        assert np.abs(crack.grads - np.eye(2)).max() < 1e-12
        # two midsegments per triangle
        assert len(crack.segments) == 2 * mesh16.n_triangles
        assert all(abs(s.length - mesh16.spec.eps / 2.0) < 1e-12
                   for s in crack.segments)
        # gradient-mismatch reconstruction agrees on fully broken triangles
        jump_vectors(u, classes, crack)


def test_modified_m2_bond_lengths(mesh16_phi0):
    F = np.diag([1.5, 20.0])
    u = affine_displacement(mesh16_phi0, F)
    classes = classify_broken(u)
    crack = build_modified(u, classes)
    V = mesh16_phi0.vecs.as_array()
    for A in crack.grads[:20]:
        assert np.linalg.norm(A @ V[0]) == pytest.approx(1.5, rel=1e-12)
        assert np.linalg.norm(A @ V[1]) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(A @ V[2]) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.det(A) >= -1e-12  # branch closer to the rotations


def test_modified_keeps_intact_triangles(mesh32):
    prob = supercritical_problem(l=1.0)
    mesh = mesh32
    u = recovery_sequence(build_u_cr(prob, p=0.45), mesh)
    classes = classify_broken(u)
    crack = build_modified(u, classes)
    # the crack set holds the broken rows alone, off them the map keeps F
    assert crack.grads.shape == (classes.count, 2, 2)
    assert 0 < classes.count < mesh.n_triangles
    # bounded gradient after release
    assert np.linalg.norm(modified_gradients(u, classes, crack), axis=(1, 2)).max() <= 7.0 + 1e-9


def test_jump_identity_cross_check(mesh32):
    prob = supercritical_problem(l=1.0)
    u = recovery_sequence(build_u_cr(prob, p=0.45), mesh32)
    classes = classify_broken(u)
    crack = build_modified(u, classes)
    jumps = jump_vectors(u, classes, crack)  # raises on any mismatch
    assert len(jumps) == len(crack.segments)


def test_recovery_broken_set_equals_crossed_set():
    # exp-well on the l = 1 bar, and shifted-lj (alpha = 72 beta) on the
    # l = 2 bar at its first cleaved station: its smaller a_crit keeps |F|
    # of the sampled crack under 7 up to 1/64, yet two sides of each cut
    # triangle are stretched past 2
    exp_well = supercritical_problem(l=1.0)
    lj = supercritical_problem(alpha=72.0)
    p_lj = float(cleaved_stations(lj, 1)[0])
    cases = [(exp_well, 0.45, 16, None), (exp_well, 0.45, 32, None),
             (lj, p_lj, 16, 31), (lj, p_lj, 32, 64), (lj, p_lj, 64, 129), (lj, p_lj, 128, 261)]
    for prob, p, inv_eps, count in cases:
        eps = 1.0 / inv_eps
        mesh = build_mesh(LatticeSpec(phi=prob.phi, eps=eps, l=prob.l))
        u_cont = build_u_cr(prob, p=p)
        u = recovery_sequence(u_cont, mesh)
        classes = classify_broken(u)
        assert count is None or classes.count == count
        # oracle: triangles whose vertices straddle the crack line
        seg = u_cont.crack[0]
        side = np.sign((mesh.points - seg.p0) @ seg.normal)
        tri_sides = side[mesh.triangles]
        crossed = np.flatnonzero((tri_sides.max(axis=1) > 0) & (tri_sides.min(axis=1) < 0))
        assert set(classes.tri_indices.tolist()) == set(crossed.tolist())
        # the released gradients stay order-one in the displacement scaling
        crack = build_modified(u, classes)
        dev = np.linalg.norm(modified_gradients(u, classes, crack) - np.eye(2), axis=(1, 2))
        assert dev.max() / math.sqrt(eps) <= 30.0


def test_recovery_jumps_match_opening(mesh32):
    prob = supercritical_problem(l=1.0)
    s, t = 0.2, -0.1
    u = recovery_sequence(build_u_cr(prob, p=0.45, s=s, t=t), mesh32)
    classes = classify_broken(u)
    crack = build_modified(u, classes)
    opening = np.array([prob.a * prob.l, t - s])
    sq = math.sqrt(mesh32.spec.eps)
    for seg in crack.segments:
        dev = min(np.linalg.norm(seg.jump - opening), np.linalg.norm(seg.jump + opening))
        assert dev <= 2.1 * sq


# ----------------------------------------------------------------------
# bit identity with the row-by-row oracle
# ----------------------------------------------------------------------

def raises_as_oracle(fn, *args):
    """Run ``fn``; if it raises, the oracle's exception is the expected one."""
    try:
        return fn(*args), None
    except (AssertionError, CrackError) as exc:
        return None, exc


def assert_crack_matches_oracle(u, variant, beta=1.3):
    """Classification, modified map, derived figures and jumps as the loops give them."""
    expected, exc = raises_as_oracle(oracles.classify_broken, u)
    if exc is not None:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            classify_broken(u)
        return
    records, F = expected
    classes = classify_broken(u)
    assert classes.tri_indices.tolist() == [r.tri for r in records]
    assert classes.F.flags.c_contiguous
    assert classes.F.tobytes() == F[classes.tri_indices].tobytes()
    assert classes.m.tolist() == [r.m for r in records]
    assert classes.intact.tolist() == [-1 if r.intact is None else r.intact for r in records]
    assert classes.stretched.tolist() == [r.stretched.tolist() for r in records]

    expected, exc = raises_as_oracle(oracles.build_modified, u, records, F, variant)
    if exc is not None:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            build_modified(u, classes, variant=variant)
        return
    segments, y_grads = expected
    crack = build_modified(u, classes, variant=variant)
    assert crack.grads.tobytes() == y_grads[classes.tri_indices].tobytes()
    assert modified_gradients(u, classes, crack).tobytes() == y_grads.tobytes()
    assert len(crack.segments) == len(segments)
    for got, want in zip(crack.segments, segments):
        assert (got.tri, got.h_index) == (want.tri, want.h_index)
        assert type(got.tri) is int and type(got.h_index) is int
        for field in ("p0", "p1", "normal", "jump"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert got.length == want.length
    rows = crack.rows()
    assert [type(r[0]) for r in rows] == [int] * len(rows)
    assert np.array(rows, dtype=float).tobytes() == \
        np.array(oracles.rows(segments), dtype=float).tobytes()
    assert crack.total_length() == oracles.total_length(segments)
    assert crack_energy_estimate(crack, beta, u.mesh.vecs) == \
        oracles.crack_energy_estimate(segments, beta, u.mesh.vecs)
    if segments:
        assert principal_normal(crack).tobytes() == oracles.principal_normal(segments).tobytes()

    expected, exc = raises_as_oracle(oracles.jump_vectors, u, records, F, segments, y_grads,
                                     variant)
    if exc is not None:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            jump_vectors(u, classes, crack)
    else:
        assert jump_vectors(u, classes, crack).tobytes() == expected.tobytes()
    return classes


@pytest.mark.parametrize("inv_eps", [16, 32, 64, 128])
@pytest.mark.parametrize("station", [0, 1, 2])
def test_recovery_crack_matches_oracle(inv_eps, station):
    prob = supercritical_problem(l=2.0)
    mesh = build_mesh(LatticeSpec(phi=prob.phi, eps=1.0 / inv_eps, l=prob.l))
    p = cleaved_stations(prob, 3)[station]
    u = recovery_sequence(build_u_cr(prob, p=float(p)), mesh)
    classes = assert_crack_matches_oracle(u, variant=1 + station)
    assert classes.count > 0


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_synthetic_fields_match_oracle(mesh16, mesh16_phi0, variant):
    classes = assert_crack_matches_oracle(affine_displacement(mesh16, 8.0 * np.eye(2)), variant)
    assert set(classes.m.tolist()) == {3}
    classes = assert_crack_matches_oracle(
        affine_displacement(mesh16_phi0, np.diag([1.5, 20.0])), variant)
    assert set(classes.m.tolist()) == {2}
    # random gradients: both branch signs, m = 2 and m = 3 side by side
    rng = np.random.default_rng(variant)
    u = Displacement(mesh16, 0.6 * rng.standard_normal((mesh16.n_points, 2)))
    classes = assert_crack_matches_oracle(u, variant)
    assert set(classes.m.tolist()) == {2, 3}


@pytest.mark.parametrize("intact", [0, 1, 2])
def test_degenerate_release_matches_oracle(mesh16, intact):
    # F v_intact = 0 up to rounding: where |F v_intact| < 1e-14 the released
    # gradient is the solution closest to the identity, elsewhere the
    # better of the two branches
    V = mesh16.vecs.as_array()
    F = 10.0 * np.outer([0.6, 0.8], perp(V[intact]))
    u = affine_displacement(mesh16, F)
    classes = assert_crack_matches_oracle(u, variant=1)
    assert classes.count == mesh16.n_triangles
    assert set(classes.intact.tolist()) == {intact}
    degenerate = np.linalg.norm(classes.F @ V[intact], axis=1) < 1e-14
    assert degenerate.any() and not degenerate.all()


# ----------------------------------------------------------------------
# derived quantities
# ----------------------------------------------------------------------

def test_crack_energy_estimate_empty_and_linear(mesh16):
    classes = classify_broken(Displacement.zero(mesh16))
    crack = build_modified(Displacement.zero(mesh16), classes)
    assert crack_energy_estimate(crack, 1.0, mesh16.vecs) == 0.0

    prob = supercritical_problem(l=1.0)
    u = recovery_sequence(build_u_cr(prob, p=0.45), mesh16)
    cr = build_modified(u, classify_broken(u))
    e1 = crack_energy_estimate(cr, 1.0, mesh16.vecs)
    e2 = crack_energy_estimate(cr, 2.0, mesh16.vecs)
    assert e2 == pytest.approx(2.0 * e1, rel=1e-14)


def test_crack_energy_estimate_converges():
    prob = supercritical_problem(l=1.0)
    mesh = build_mesh(LatticeSpec(phi=prob.phi, eps=1.0 / 64.0, l=1.0))
    u = recovery_sequence(build_u_cr(prob, p=0.45), mesh)
    cr = build_modified(u, classify_broken(u))
    target = 2.0 * prob.beta / prob.gamma
    assert crack_energy_estimate(cr, prob.beta, mesh.vecs) == pytest.approx(target, rel=0.10)
    # extracted normals aligned with the cleavage normal
    ref = cleavage_direction(prob.phi).v_gamma_perp
    assert angle_between_lines_deg(principal_normal(cr), ref) < 1.0


def test_broken_count_energy_bound(mesh32, pot_unit):
    prob = supercritical_problem(l=1.0)
    u = recovery_sequence(build_u_cr(prob, p=0.45), mesh32)
    classes = classify_broken(u)
    total = energy_rescaled(u, pot_unit).total
    bound = broken_count_bound(total, mesh32.spec.eps, pot_unit)
    assert classes.count <= bound


# ----------------------------------------------------------------------
# spring counting
# ----------------------------------------------------------------------

def brute_crossings(mesh, p0, p1, direction):
    """Independent counter: endpoint side test against the full line."""
    d = p1 - p0
    n = np.array([-d[1], d[0]]) / np.linalg.norm(d)
    sel = mesh.edge_dir == direction
    a = mesh.points[mesh.edges[sel, 0]]
    b = mesh.points[mesh.edges[sel, 1]]
    sa = (a - p0) @ n
    sb = (b - p0) @ n
    count = 0
    for k in range(len(a)):
        if sa[k] * sb[k] < 0.0:
            lam = sa[k] / (sa[k] - sb[k])
            x = a[k] + lam * (b[k] - a[k])
            t = (x - p0) @ d / (d @ d)
            if 0.0 <= t <= 1.0:
                count += 1
    return count


def test_vertical_line_count_phi0():
    eps = 1.0 / 32.0
    mesh = build_mesh(LatticeSpec(phi=0.0, eps=eps, l=1.0))
    p0, p1 = np.array([0.43, 0.0]), np.array([0.43, 1.0])
    count = spring_crossing_count(p0, p1, mesh, 0)
    assert count == brute_crossings(mesh, p0, p1, 0)
    # horizontal bonds crossed once per lattice row: 2/(sqrt(3) eps) rows
    assert count == pytest.approx(2.0 / (SQRT3 * eps), abs=2.0)


def test_parallel_line_count_is_bounded():
    eps = 1.0 / 32.0
    mesh = build_mesh(LatticeSpec(phi=0.0, eps=eps, l=1.0))
    v1 = mesh.vecs.v1
    p0 = np.array([0.11, 0.511])
    p1 = p0 + 0.7 * v1
    assert spring_crossing_count(p0, p1, mesh, 0) <= 2


def test_count_scaling_all_directions():
    prob = supercritical_problem(l=1.0)
    u_cont = build_u_cr(prob, p=0.45)
    seg = u_cont.crack[0]
    length = np.linalg.norm(seg.p1 - seg.p0)
    mesh = build_mesh(LatticeSpec(phi=prob.phi, eps=1.0 / 64.0, l=1.0))
    V = mesh.vecs.as_array()
    targets = length * 2.0 * np.abs(V @ seg.normal) / SQRT3
    counts = np.array([spring_crossing_count(seg.p0, seg.p1, mesh, d) for d in range(3)])
    scaled = counts * mesh.spec.eps
    ref = targets.max()
    for d in range(3):
        assert abs(scaled[d] - targets[d]) <= 0.08 * ref


@pytest.mark.parametrize("direction", [3, -1, 7])
def test_count_rejects_an_unknown_direction(mesh16, direction):
    with pytest.raises(CrackError, match=f"bond direction must be 0, 1 or 2, got {direction}"):
        spring_crossing_count(np.array([0.43, 0.0]), np.array([0.43, 1.0]), mesh16, direction)


def test_count_error_on_lattice_point():
    eps = 1.0 / 16.0
    mesh = build_mesh(LatticeSpec(phi=0.0, eps=eps, l=1.0))
    # a vertical line through a lattice column hits points exactly
    with pytest.raises(CrackError):
        spring_crossing_count(np.array([0.5, 0.0]), np.array([0.5, 1.0]), mesh, 1)

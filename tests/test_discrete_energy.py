import math

import numpy as np
import pytest

import oracles
from conftest import edge_directions, random_rotation
from fraclat import discrete_energy
from fraclat.discrete_energy import (Assembly, Displacement, DiscreteEnergyError,
                                     apply_bc, bc_affine, bc_cleavage, bc_zero,
                                     displacement_from_csv, displacement_to_csv,
                                     energy_deformation, energy_rescaled,
                                     gradient, gradient_l1_norm,
                                     interpolate_gradients, project_gradient,
                                     renormalization_sides, specimen_area)
from fraclat.lattice import LatticeSpec, build_mesh, classify_edges
from fraclat.material import (POTENTIAL_FAMILIES, MaterialError, PairPotential, cell_energy,
                              frobenius_norms)

SQRT3 = math.sqrt(3.0)


def rand_u(mesh, scale, seed):
    rng = np.random.default_rng(seed)
    return Displacement(mesh, scale * rng.standard_normal((mesh.n_points, 2)))


# ----------------------------------------------------------------------
# interpolation
# ----------------------------------------------------------------------

def test_zero_displacement_gradients(mesh16):
    gu, F = interpolate_gradients(Displacement.zero(mesh16))
    assert np.abs(gu).max() == 0.0
    assert np.abs(F - np.eye(2)).max() == 0.0


def test_affine_reproduction(mesh16):
    rng = np.random.default_rng(0)
    G = rng.normal(size=(2, 2))
    u = Displacement(mesh16, mesh16.points @ G.T)
    gu, _ = interpolate_gradients(u)
    assert np.abs(gu - G).max() < 1e-12


@pytest.mark.parametrize("scale", [0.0, 0.02, 1.5, 40.0])
def test_gradients_and_norms_match_the_matrix_forms(mesh16, scale):
    # zero and small fields have exact zeros in grad_u, where an identity
    # added on the diagonal alone would leave -0.0 off it
    u = rand_u(mesh16, scale, 12)
    grad_u, F = interpolate_gradients(u)
    F_ref = np.eye(2) + np.sqrt(mesh16.spec.eps) * grad_u
    assert F.shape == (mesh16.n_triangles, 2, 2)
    assert F.tobytes() == F_ref.tobytes()
    # one matrix, a stack and a stack of stacks, each contiguous
    for M in (np.ascontiguousarray(grad_u), F_ref):
        for stack in (M[7], M, M[:40].reshape(5, 8, 2, 2)):
            want = np.linalg.norm(stack, axis=(-2, -1))
            assert np.shape(frobenius_norms(stack)) == np.shape(want)
            assert np.asarray(frobenius_norms(stack)).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("spec", oracles.MESH_SPECS, ids=oracles.spec_id)
def test_gradients_equal_the_row_major_oracle(spec):
    # zero, small, order-one and breaking fields, and one with a zero
    # component: exact zeros in grad_u keep their sign through the kernel
    mesh = build_mesh(spec)
    rng = np.random.default_rng(round(1 / spec.eps))
    noise = rng.standard_normal((mesh.n_points, 2))
    one_component = noise.copy()
    one_component[:, 1] = 0.0
    for values in (np.zeros_like(noise), 0.02 * noise, 1.5 * noise, 40.0 * noise,
                   one_component):
        u = Displacement(mesh, values)
        got, want = interpolate_gradients(u), oracles.interpolate_gradients(u)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (mesh.n_triangles, 2, 2)
            assert g.tobytes() == w.tobytes()
            # a view of the component-major array, not a transposed copy
            assert g.transpose(2, 1, 0).flags.c_contiguous


@pytest.mark.parametrize("spec", oracles.MESH_SPECS, ids=oracles.spec_id)
def test_selected_rows_equal_the_whole_mesh_rows(spec):
    # the crack classification forms F on its broken triangles alone: the
    # rows of any selection, short ones included, keep the whole mesh's bits
    mesh = build_mesh(spec)
    M = mesh.n_triangles
    rng = np.random.default_rng(round(1 / spec.eps))
    noise = rng.standard_normal((mesh.n_points, 2))
    selections = [np.arange(0), np.array([M - 1]), np.array([0, M - 1]),
                  np.sort(rng.choice(M, size=min(5, M), replace=False)),
                  np.sort(rng.choice(M, size=M // 3, replace=False)),
                  rng.permutation(M)]
    for values in (np.zeros_like(noise), 0.02 * noise, 1.5 * noise, 40.0 * noise):
        u = Displacement(mesh, values)
        whole = interpolate_gradients(u)
        for tri in selections:
            for g, w in zip(interpolate_gradients(u, tri), whole):
                assert g.shape == (len(tri), 2, 2)
                assert g.tobytes() == w[tri].tobytes()


def test_selected_rows_hold_a_transient_of_their_own_size():
    import tracemalloc
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 128.0, l=2.0))
    rng = np.random.default_rng(128)
    u = Displacement(mesh, rng.standard_normal((mesh.n_points, 2)))
    tri = np.sort(rng.choice(mesh.n_triangles, size=500, replace=False))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        interpolate_gradients(u, tri)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # about 180 bytes per row (its corners, their values, D and G); a copy
    # of the whole field would be 16 N bytes
    assert peak <= 256 * len(tri) + 16384 < 16 * mesh.n_points


def test_displacement_shape_check(mesh16):
    with pytest.raises(DiscreteEnergyError):
        Displacement(mesh16, np.zeros((3, 2)))


# ----------------------------------------------------------------------
# energies
# ----------------------------------------------------------------------

def test_identity_deformation_zero_energy(mesh16, pot):
    bd = energy_rescaled(Displacement.zero(mesh16), pot)
    assert abs(bd.total) < 1e-25


def test_global_rotation_zero_energy(mesh16, pot):
    rng = np.random.default_rng(1)
    R = random_rotation(rng)
    eps = mesh16.spec.eps
    y = mesh16.points @ R.T
    u = Displacement(mesh16, (y - mesh16.points) / math.sqrt(eps))
    bd = energy_rescaled(u, pot)
    assert bd.total < 1e-20


def test_pair_sum_equals_triangle_plus_boundary(mesh16, pot):
    # independent oracle: recompute the raw pair sum straight from the bonds
    u = rand_u(mesh16, 0.05, 2)
    eps = mesh16.spec.eps
    bd = energy_rescaled(u, pot)
    e = mesh16.edges
    y = mesh16.points + math.sqrt(eps) * u.values
    r = np.linalg.norm(y[e[:, 1]] - y[e[:, 0]], axis=1) / eps
    pair = eps * pot(r).sum()
    assert bd.bulk + bd.boundary == pytest.approx(pair, rel=1e-11)


def test_boundary_weights_complete_the_pair_sum(mesh16, pot):
    # per bond: incidence/2 (cell share) + 2x classify weight = 1
    inc, w = mesh16.edge_inc_omega, classify_edges(mesh16)
    assert np.all(np.abs(inc / 2.0 + 2.0 * w - 1.0) < 1e-15)


def test_translation_invariance(mesh16, pot):
    u = rand_u(mesh16, 0.05, 3)
    shifted = Displacement(mesh16, u.values + np.array([0.37, -1.2]))
    e1 = energy_rescaled(u, pot).total
    e2 = energy_rescaled(shifted, pot).total
    assert e1 == pytest.approx(e2, rel=1e-12)


def test_breakdown_total_is_component_sum(mesh16, pot, chi, magmodel):
    u = rand_u(mesh16, 0.08, 4)
    bd = energy_rescaled(u, pot, mode="f", chi=chi, model=magmodel)
    assert bd.total == bd.bulk + bd.boundary + bd.penalty + bd.field


def test_elastic_guess_energy_stays_bounded(pot_unit):
    # sampled linear stretch keeps order-one energy along the ladder
    from fraclat.lattice import LatticeSpec, build_mesh
    G = np.array([[0.4, 0.0], [0.0, -0.4 / 3.0]])
    totals = []
    for eps in (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0):
        mesh = build_mesh(LatticeSpec(phi=0.3, eps=eps, l=1.0))
        u = Displacement(mesh, mesh.points @ G.T)
        totals.append(energy_rescaled(u, pot_unit).total)
    assert max(totals) / min(totals) < 1.5


def test_magnetic_energy_of_identity(mesh16, pot, chi, magmodel):
    # aligned magnetization integrates to minus kappa/eps times the area, which
    # the renormalization constant cancels; the field energy of m1 = 1 is zero
    lhs, rhs = renormalization_sides(Displacement.zero(mesh16), pot, chi, magmodel)
    eps = mesh16.spec.eps
    area = mesh16.n_triangles * SQRT3 * eps ** 2 / 4.0
    assert abs(lhs) <= 1e-22
    assert abs(rhs) <= 1e-13 * magmodel.kappa / eps * area


def test_renormalization_identity(mesh16, pot, chi, magmodel):
    from fraclat.solver import _random_admissible
    rng = np.random.default_rng(6)
    for _ in range(5):
        u = _random_admissible(mesh16, magmodel, rng)
        lhs, rhs = renormalization_sides(u, pot, chi, magmodel)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_unknown_mode_rejected(mesh16, pot):
    with pytest.raises(DiscreteEnergyError):
        energy_rescaled(Displacement.zero(mesh16), pot, mode="bogus")


def test_energy_deformation_matches_rescaled(mesh16, pot):
    u = rand_u(mesh16, 0.05, 7)
    eps = mesh16.spec.eps
    y = mesh16.points + math.sqrt(eps) * u.values
    bd_y = energy_deformation(mesh16, y, pot)
    bd_u = energy_rescaled(u, pot)
    assert eps * bd_y.total == pytest.approx(bd_u.total, rel=1e-12)


# ----------------------------------------------------------------------
# gradient
# ----------------------------------------------------------------------

def test_gradient_zero_at_rest(mesh16, pot):
    g = gradient(Displacement.zero(mesh16), pot)
    assert np.abs(g).max() < 1e-14


def in_field_band(u, model):
    """Number of triangles with |F| in (T - FIELD_SMOOTH_BAND, T]."""
    from fraclat.material import FIELD_SMOOTH_BAND
    _, F = interpolate_gradients(u)
    norm = np.linalg.norm(F, axis=(1, 2))
    return int(np.sum((norm > model.T - FIELD_SMOOTH_BAND) & (norm <= model.T)))


@pytest.mark.parametrize("mode", ["plain", "chi", "f"])
def test_gradient_matches_directional_fd(mesh16, pot, chi, magmodel, mode):
    u = rand_u(mesh16, 0.08, 8)
    # the smoothed and the sharp field cutoffs differ on this field
    assert in_field_band(u, magmodel) > 0
    g = gradient(u, pot, mode=mode, chi=chi, model=magmodel)
    rng = np.random.default_rng(9)
    t = 1e-6
    asm = Assembly(mesh16, pot, mode, chi, magmodel)
    for _ in range(3):
        d = rng.standard_normal(u.values.shape)
        ep = asm.value_and_grad(u.values + t * d)[0]
        em = asm.value_and_grad(u.values - t * d)[0]
        fd = (ep - em) / (2.0 * t)
        an = float(np.sum(g * d))
        assert abs(an - fd) <= 1e-5 * (1.0 + abs(fd))


@pytest.mark.parametrize("family", POTENTIAL_FAMILIES)
def test_gradient_of_every_family_matches_fd(mesh16, family):
    # beta = 1/72 gives shifted-lj the unit curvature of the exp-well case
    beta = 1.0 / 72.0
    pot = PairPotential(family=family, alpha=72.0 * beta, beta=beta)
    u = rand_u(mesh16, 0.05, 11)
    g = gradient(u, pot)
    asm = Assembly(mesh16, pot, "plain", None, None)
    rng = np.random.default_rng(12)
    t = 1e-6
    for _ in range(3):
        d = rng.standard_normal(u.values.shape)
        fd = (asm.breakdown(u.values + t * d).total
              - asm.breakdown(u.values - t * d).total) / (2.0 * t)
        assert abs(float(np.sum(g * d)) - fd) <= 1e-5 * (1.0 + abs(fd))


def test_projected_gradient_masks(mesh16, pot):
    u = rand_u(mesh16, 0.05, 10)
    bc = bc_cleavage(0.5, mesh16.spec.l)
    mask_x, mask_y = bc.masks(mesh16)
    g = project_gradient(gradient(u, pot), mask_x, mask_y)
    assert np.all(g[mask_x, 0] == 0.0)
    assert not np.any(mask_y)


def test_gradient_l1_norm_affine(mesh16):
    G = np.array([[0.3, 0.1], [-0.2, 0.5]])
    u = Displacement(mesh16, mesh16.points @ G.T)
    grad_norms = frobenius_norms(interpolate_gradients(u)[0])
    val = gradient_l1_norm(mesh16, grad_norms)
    area = specimen_area(mesh16)
    assert val == pytest.approx(np.linalg.norm(G) * area, rel=1e-10)


# ----------------------------------------------------------------------
# the precomputed assembly
# ----------------------------------------------------------------------

def flipped_mask(mesh, x):
    """det F < 0 on each triangle (the support of chi), in the assembly's order."""
    _, Fd = interpolate_gradients(Displacement(mesh, x))
    return Fd[:, 0, 0] * Fd[:, 1, 1] - Fd[:, 0, 1] * Fd[:, 1, 0] < 0.0


def flipped(mesh, u):
    """Number of triangles with det F < 0."""
    return int(flipped_mask(mesh, u.values).sum())


@pytest.fixture(params=["no-flips", "many-flips"])
def kernel_u(request, mesh16):
    # seed 32: on the specimen mesh seed 31 puts one triangle in the field's
    # smoothing band, which test_assembly_value_is_energy_rescaled_total excludes
    u = rand_u(mesh16, 0.02, 30) if request.param == "no-flips" else rand_u(mesh16, 1.5, 32)
    n = flipped(mesh16, u)
    assert (n == 0) if request.param == "no-flips" else (n > 200)
    return u


def reference_energy(u, pot, mode, chi, model):
    """Energy assembled straight from the mesh arrays with the batched material laws."""
    mesh, eps = u.mesh, u.mesh.spec.eps
    e = mesh.edges
    z = mesh.vecs[edge_directions(mesh)] \
        + (u.values[e[:, 1]] - u.values[e[:, 0]]) / math.sqrt(eps)
    Wr = pot(np.linalg.norm(z, axis=1))
    _, Fd = interpolate_gradients(u)
    total = eps * cell_energy(Fd, pot, mesh.vecs).sum() \
        + eps * (2.0 * classify_edges(mesh) * Wr).sum()
    if mode != "plain":
        total += eps * chi(Fd).sum()
    if mode == "f":
        from fraclat.material import field_energy_smooth
        total += SQRT3 * eps / 4.0 * field_energy_smooth(Fd, model).sum()
    return total


def reference_gradient(u, pot, mode, chi, model):
    """Gradient scattered with np.add.at over every triangle."""
    from fraclat.material import field_energy_smooth_grad
    mesh, eps = u.mesh, u.mesh.spec.eps
    minv = np.linalg.inv(mesh.vecs[:2].T)
    out = np.zeros_like(u.values)
    e = mesh.edges
    z = mesh.vecs[edge_directions(mesh)] \
        + (u.values[e[:, 1]] - u.values[e[:, 0]]) / math.sqrt(eps)
    r = np.linalg.norm(z, axis=1)
    gvec = (math.sqrt(eps) * pot.deriv(r) / r)[:, None] * z
    np.add.at(out, e[:, 1], gvec)
    np.add.at(out, e[:, 0], -gvec)
    _, F = interpolate_gradients(u)
    terms = []
    if mode != "plain":
        terms.append((chi.grad(F), eps))
    if mode == "f":
        terms.append((field_energy_smooth_grad(F, model), SQRT3 * eps / 4.0))
    tri = mesh.triangles
    for dPhi, coeff in terms:
        P = dPhi @ minv.T
        P = P * (coeff * math.sqrt(eps) / (mesh.tri_sign * eps))[:, None, None]
        np.add.at(out, tri[:, 1], P[:, :, 0])
        np.add.at(out, tri[:, 2], P[:, :, 1])
        np.add.at(out, tri[:, 0], -(P[:, :, 0] + P[:, :, 1]))
    return out


def assert_same_array(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.flags.c_contiguous and want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("inv_eps", [8, 17, 64])
@pytest.mark.parametrize("phi", [0.0, 0.3])
def test_assembly_arrays_are_the_mesh_arrays(pot, chi, phi, inv_eps):
    mesh = build_mesh(LatticeSpec(phi=phi, eps=1.0 / inv_eps, l=1.0))
    weights = np.choose(mesh.edge_inc_omega, [0.5, 0.25, 0.0])
    assert_same_array(classify_edges(mesh), weights)
    asm = Assembly(mesh, pot, "chi", chi)
    # the index arrays are the mesh's own, contiguous, with no copy
    assert_same_array(asm._bond_ends, np.ascontiguousarray(mesh.edges.T))
    assert_same_array(asm._corners, np.ascontiguousarray(mesh.triangles.T))
    assert np.shares_memory(asm._bond_ends, mesh.edges)
    assert np.shares_memory(asm._corners, mesh.triangles)
    # the signs and the basis inverse are the mesh's own objects
    assert asm._sign is mesh.tri_sign
    assert asm._minv is mesh.basis_inverse


def test_building_an_assembly_allocates_little(mesh64, pot, chi):
    # the assembly reads the mesh's arrays in place: it keeps no per-bond
    # or per-triangle copy of them
    import tracemalloc
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        asm = Assembly(mesh64, pot, "chi", chi)
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert asm._ws is None
    assert peak < 16e3 and kept < 16e3


@pytest.mark.parametrize("mode", ["plain", "chi", "f"])
def test_assembly_value_is_energy_rescaled_total(mesh16, pot, chi, magmodel, kernel_u, mode):
    # no triangle lies in the field's smoothing band, where the two cutoffs differ
    assert in_field_band(kernel_u, magmodel) == 0
    asm = Assembly(mesh16, pot, mode, chi, magmodel)
    value, _ = asm.value_and_grad(kernel_u.values)
    bd = Assembly(mesh16, pot, mode, chi, magmodel).breakdown(kernel_u.values)
    assert value == bd.total
    assert asm.breakdown(kernel_u.values) == bd
    ref = reference_energy(kernel_u, pot, mode, chi, magmodel)
    assert value == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("mode", ["plain", "chi", "f"])
def test_assembly_gradient_matches_reference_and_fd(mesh16, pot, chi, magmodel,
                                                    kernel_u, mode):
    asm = Assembly(mesh16, pot, mode, chi, magmodel)
    x = kernel_u.values
    _, g = asm.value_and_grad(x)
    ref = reference_gradient(kernel_u, pot, mode, chi, magmodel)
    assert np.abs(g - ref).max() <= 1e-13 * (1.0 + np.abs(ref).max())
    rng = np.random.default_rng(32)
    t = 1e-6
    for _ in range(3):
        d = rng.standard_normal(x.shape)
        fd = (asm.value_and_grad(x + t * d)[0] - asm.value_and_grad(x - t * d)[0]) / (2 * t)
        assert abs(float(np.sum(g * d)) - fd) <= 1e-5 * (1.0 + abs(fd))


def test_penalty_on_its_support_equals_the_sum_over_all_triangles(mesh16, pot, chi):
    u = rand_u(mesh16, 1.5, 33)
    _, Fd = interpolate_gradients(u)
    vals = chi(Fd)
    det = Fd[:, 0, 0] * Fd[:, 1, 1] - Fd[:, 0, 1] * Fd[:, 1, 0]
    assert np.all(vals[det >= 0.0] == 0.0) and np.count_nonzero(vals) > 150
    bd = Assembly(mesh16, pot, "chi", chi).breakdown(u.values)
    assert bd.penalty == mesh16.spec.eps * float(vals.sum())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_assembly_rejects_non_finite_values(mesh16, pot, chi, bad):
    asm = Assembly(mesh16, pot, "chi", chi)
    x = rand_u(mesh16, 0.05, 34).values
    x[7, 1] = bad
    with pytest.raises(DiscreteEnergyError, match="non-finite"):
        asm.value_and_grad(x)
    with pytest.raises(DiscreteEnergyError, match="non-finite"):
        asm.breakdown(x)


def test_assembly_rejects_wrong_shape(mesh16, pot, chi):
    asm = Assembly(mesh16, pot, "chi", chi)
    with pytest.raises(DiscreteEnergyError, match="shape"):
        asm.value_and_grad(np.zeros((mesh16.n_points, 3)))


def test_the_call_picks_the_field_cutoff(mesh16, pot, pot_unit, chi, magmodel, monkeypatch):
    # value_and_grad evaluates the smoothed cutoff, breakdown the sharp one
    u = rand_u(mesh16, 0.08, 8)
    assert in_field_band(u, magmodel) > 0
    asm = Assembly(mesh16, pot, "f", chi, magmodel)
    value = asm.value_and_grad(u.values)[0]
    assert value == pytest.approx(reference_energy(u, pot, "f", chi, magmodel), rel=1e-13)
    sharp = asm.breakdown(u.values)
    assert sharp == energy_rescaled(u, pot, mode="f", chi=chi, model=magmodel)
    assert sharp.total != value
    # so a mode-f minimize descends and reports through one assembly
    from fraclat.continuum import CleavageProblem
    from fraclat.solver import SolveConfig, minimize
    real = Assembly.__init__
    built = []

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Assembly, "__init__", counting)
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.3, a=0.2)
    cfg = SolveConfig(max_iters=5, multistart=("zero", "elastic"), mode="f")
    minimize(mesh16, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi, model=magmodel,
             problem=prob)
    assert len(built) == 1


def test_line_search_trial_checks_the_pair_identity(mesh16, pot_unit, chi, monkeypatch):
    # corrupt the boundary weights right before the first line-search trial
    from fraclat.continuum import CleavageProblem
    from fraclat.solver import SolveConfig, minimize
    real = Assembly.value_and_grad
    calls = []

    def corrupting(self, x):
        calls.append(x)
        if len(calls) == 2:
            monkeypatch.setattr(discrete_energy, "EDGE_WEIGHTS",
                                1.5 * discrete_energy.EDGE_WEIGHTS)
        return real(self, x)

    monkeypatch.setattr(Assembly, "value_and_grad", corrupting)
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.3, a=0.2)
    cfg = SolveConfig(max_iters=5, multistart=("elastic",), mode="chi")
    with pytest.raises(DiscreteEnergyError, match="disagree"):
        minimize(mesh16, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi, problem=prob)
    assert len(calls) == 2


def test_every_kernel_call_checks_the_pair_identity(mesh16, pot, chi, monkeypatch):
    real = discrete_energy._check_pair_identity
    checks = []
    monkeypatch.setattr(discrete_energy, "_check_pair_identity",
                        lambda *args: checks.append(args) or real(*args))
    asm = Assembly(mesh16, pot, "chi", chi)
    x = rand_u(mesh16, 0.05, 35).values
    asm.value_and_grad(x)
    asm.breakdown(x)
    energy_rescaled(Displacement(mesh16, x), pot, mode="chi", chi=chi)
    gradient(Displacement(mesh16, x), pot, mode="chi", chi=chi)
    assert len(checks) == 4


@pytest.mark.parametrize("mode", ["plain", "chi", "f"])
def test_workspace_carries_no_state_between_calls(mesh16, pot, chi, magmodel, mode):
    # many flipped triangles, none, then many again on other triangles
    configs = [rand_u(mesh16, 1.5, 31), rand_u(mesh16, 0.02, 30), rand_u(mesh16, 1.5, 36)]
    assert [flipped(mesh16, u) > 200 for u in configs] == [True, False, True]

    def build():
        return Assembly(mesh16, pot, mode, chi, magmodel)

    asm = build()
    returned = []
    for u in configs:
        value, g = asm.value_and_grad(u.values)
        fresh_value, fresh_g = build().value_and_grad(u.values)
        assert value == fresh_value and np.array_equal(g, fresh_g)
        assert asm.breakdown(u.values) == build().breakdown(u.values)
        returned.append((g, g.copy()))
    assert all(np.array_equal(g, kept) for g, kept in returned)


@pytest.mark.parametrize("mode", ["plain", "chi", "f"])
def test_gradient_after_a_breakdown_equals_a_fresh_gradient(mesh16, pot, chi, magmodel, mode):
    # the breakdown makes the workspace without the gradient streams; the
    # gradient call that follows adds them
    u = rand_u(mesh16, 1.5, 31)
    assert flipped(mesh16, u) > 200

    def build():
        return Assembly(mesh16, pot, mode, chi, magmodel)

    asm = build()
    assert asm.breakdown(u.values) == build().breakdown(u.values)
    value, g = asm.value_and_grad(u.values)
    fresh_value, fresh_g = build().value_and_grad(u.values)
    assert value == fresh_value and np.array_equal(g, fresh_g)
    if mode != "f":  # mode f differentiates the smoothed field cutoff
        assert asm.breakdown(u.values).total == value


@pytest.mark.parametrize("mode, scale", [("chi", 0.05), ("chi", 0.1), ("f", 0.05)],
                         ids=["chi", "chi-reflected", "f"])
def test_repeated_evaluation_allocates_little(mesh32, pot, chi, magmodel, mode, scale):
    # the gradient adds triangle terms on the det F < 0 triangles, 47 of
    # 2225 at the smaller scale and 504 at the larger, and in mode f on all
    import tracemalloc
    asm = Assembly(mesh32, pot, mode, chi, magmodel)
    x = rand_u(mesh32, scale, 37).values
    assert flipped_mask(mesh32, x).sum() > (400 if scale > 0.05 else 40)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            asm.value_and_grad(x)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert peaks[1] < 0.25 * peaks[0]


@pytest.fixture(scope="module")
def bar16_samples():
    """The l = 2, phi = 0.3 bar at 1/16: a sampled crack, a sampled elastic
    ramp and a configuration with many det F < 0 triangles."""
    from fraclat.continuum import CleavageProblem, a_crit, build_u_cr, build_u_el
    from fraclat.solver import cleaved_stations, recovery_sequence
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 16.0, l=2.0))
    base = CleavageProblem(alpha=1.0, beta=1.0, l=2.0, phi=0.3, a=0.0)
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=2.0, phi=0.3, a=1.5 * a_crit(base))
    crack = recovery_sequence(build_u_cr(prob, float(cleaved_stations(prob, 1)[0])), mesh)
    elastic = recovery_sequence(build_u_el(prob), mesh)
    flips = rand_u(mesh, 0.4, 38)
    return mesh, {"crack": crack.values, "elastic": elastic.values, "flipped": flips.values}


def kernel_results(mesh, samples, pot, chi, magmodel):
    """Every breakdown field and every value and gradient, as exact bytes."""
    out = {}
    for mode in discrete_energy.MODES:
        asm = Assembly(mesh, pot, mode, chi, magmodel)
        for name, x in samples.items():
            out[mode, name, "breakdown"] = [float.hex(v) for v in asm.breakdown(x).row()[1:]]
            value, g = asm.value_and_grad(x)
            out[mode, name, "value_and_grad"] = (float.hex(value), g.tobytes())
    return out


@pytest.mark.parametrize("family", POTENTIAL_FAMILIES)
def test_block_length_changes_no_bits(bar16_samples, chi, magmodel, family, monkeypatch):
    mesh, samples = bar16_samples
    pot = PairPotential() if family == "exp-well" else PairPotential.shifted_lj()
    # the penalty's support spans the edges of blocks of both lengths
    det_neg = np.flatnonzero(flipped_mask(mesh, samples["flipped"]))
    assert len(det_neg) > 100 and len(np.unique(det_neg // 1000)) > 1
    reference = kernel_results(mesh, samples, pot, chi, magmodel)
    for block in (7, 1000):
        monkeypatch.setattr(discrete_energy, "BLOCK", block)
        assert kernel_results(mesh, samples, pot, chi, magmodel) == reference


@pytest.fixture(scope="module")
def mesh64():
    return build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 64.0, l=2.0))


# sha256 of float.hex(value) and the gradient's bytes (first 24 hex digits)
# on the l = 2, phi = 0.3 bar, exp-well with alpha = beta = 1: the bar16
# samples at 1.5 a_crit and the acceptance-07 elastic ramp at 1/64.  No
# sample has a triangle with det F < 0, so plain and chi agree, and the
# gradient is the bond scatter alone
PINNED_GRADIENTS = {
    ("1/16", "crack", 1.5): "a6d8b89a0f2a55347b4f05e7",
    ("1/16", "elastic", 1.5): "270ea406b87c83a1caded065",
    ("1/64", "elastic", 0.5): "fb3e862cbd01cc86a5e084aa",
    ("1/64", "elastic", 1.5): "141bc8d61f360bbf5321f06e",
}


def test_gradients_without_reflected_triangles_are_pinned(bar16_samples, mesh64, pot_unit, chi):
    import hashlib
    from fraclat.continuum import CleavageProblem, a_crit, build_u_el
    from fraclat.solver import recovery_sequence
    mesh16, samples = bar16_samples
    base = CleavageProblem(alpha=1.0, beta=1.0, l=2.0, phi=0.3, a=0.0)
    cases = {("1/16", name, 1.5): (mesh16, samples[name]) for name in ("crack", "elastic")}
    for mult in (0.5, 1.5):
        prob = CleavageProblem(alpha=1.0, beta=1.0, l=2.0, phi=0.3, a=mult * a_crit(base))
        cases["1/64", "elastic", mult] = (mesh64, recovery_sequence(build_u_el(prob),
                                                                     mesh64).values)
    for key, (mesh, x) in cases.items():
        assert not flipped_mask(mesh, x).any()
        for mode in ("plain", "chi"):
            value, g = Assembly(mesh, pot_unit, mode, chi).value_and_grad(x)
            digest = hashlib.sha256(float.hex(value).encode() + g.tobytes()).hexdigest()
            assert digest[:24] == PINNED_GRADIENTS[key], (key, mode)


@pytest.mark.parametrize("mode", discrete_energy.MODES)
def test_breakdown_holds_only_its_sums_and_a_few_blocks(mesh64, pot, chi, magmodel, mode):
    import tracemalloc
    x = rand_u(mesh64, 0.01, 39).values
    asm = Assembly(mesh64, pot, mode, chi, magmodel)
    n, E, M = mesh64.n_points, mesh64.n_edges, mesh64.n_triangles
    block = min(discrete_energy.BLOCK, max(E, M))
    assert block < M  # more than one block
    # full length: the input copy, W per bond, and the cell, penalty and
    # field values per triangle
    full = 2 * n + E + M * (1 + (mode != "plain") + (mode == "f"))
    # the scratch, one block long: 22 float rows and 2 bool rows for the
    # bonds and the triangles; mode f adds the (k, 2, 2) chain-rule stack
    # and its product, 11 float rows and 4 bool rows
    rows = 22.25 + (19.5 if mode == "f" else 0)
    # transients, in blocks: about 1.6
    slack = 3
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        asm.breakdown(x)
        peak = tracemalloc.get_traced_memory()[1] - before
        asm.value_and_grad(x)
        ws = asm._ws
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        asm.breakdown(x)
        again = tracemalloc.get_traced_memory()[1] - before
        assert asm._ws is ws and again <= 8 * slack * block
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (full + (rows + slack) * block)


def test_renormalization_sides_need_det_f_positive(bar16_samples, pot, chi, magmodel):
    # the magnetic total takes m1 through magnetization_first, defined for det F > 0
    mesh, samples = bar16_samples
    with pytest.raises(MaterialError, match="det F > 0"):
        renormalization_sides(Displacement(mesh, samples["flipped"]), pot, chi, magmodel)
    lhs, rhs = renormalization_sides(Displacement(mesh, samples["elastic"]), pot, chi, magmodel)
    assert math.isfinite(lhs) and math.isfinite(rhs)


# ----------------------------------------------------------------------
# boundary conditions
# ----------------------------------------------------------------------

def test_apply_bc_zero(mesh16):
    u = rand_u(mesh16, 1.0, 11)
    v = apply_bc(u, bc_zero())
    assert np.all(v.values[mesh16.dirichlet] == 0.0)
    free = ~mesh16.dirichlet
    assert np.array_equal(v.values[free], u.values[free])


def test_apply_bc_cleavage_layers(mesh16):
    a, l = 0.7, mesh16.spec.l
    eps = mesh16.spec.eps
    u = rand_u(mesh16, 1.0, 12)
    v = apply_bc(u, bc_cleavage(a, l))
    x1 = mesh16.points[:, 0]
    left = mesh16.dirichlet & (x1 <= eps * (1 + 1e-9))
    right = mesh16.dirichlet & (x1 >= l - eps * (1 + 1e-9))
    assert np.any(left) and np.any(right)
    assert np.all(v.values[left, 0] == 0.0)
    assert np.all(v.values[right, 0] == a * l)
    # second component is free under uniaxial grips
    assert np.array_equal(v.values[:, 1], u.values[:, 1])


def test_apply_bc_idempotent(mesh16):
    u = rand_u(mesh16, 1.0, 13)
    bc = bc_affine(np.array([[0.1, 0.0], [0.0, -0.2]]), np.array([0.3, 0.0]))
    once = apply_bc(u, bc)
    twice = apply_bc(once, bc)
    assert np.array_equal(once.values, twice.values)


# ----------------------------------------------------------------------
# CSV interchange
# ----------------------------------------------------------------------

def test_displacement_csv_roundtrip(mesh16, tmp_path):
    u = rand_u(mesh16, 0.3, 14)
    p1 = tmp_path / "disp.csv"
    p2 = tmp_path / "disp2.csv"
    displacement_to_csv(u, str(p1))
    v = displacement_from_csv(str(p1), mesh16)
    displacement_to_csv(v, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(u.values, v.values)


def g17_cases():
    """About 2e5 values, each with both signs: every decade from 1e-6 to
    1e18, exact ties of the 17th digit, the neighbours of each power of
    ten, integers, zeros, subnormals and the non-finite values."""
    rng = np.random.default_rng(41)
    values = [rng.uniform(1.0, 10.0, 3000) * 10.0 ** e for e in range(-6, 19)]
    # v * 10**s = N + 1/2 with N of 17 digits: v = m / 2**(s + 1), m odd
    for s in range(1, 23):
        m = rng.integers(-(-2 * 10 ** 16 // 5 ** s), min(2 * 10 ** 17 // 5 ** s, 2 ** 53), 1000)
        values.append(np.ldexp((m | 1).astype(float), -(s + 1)))
    powers = np.array([float(f"1e{e}") for e in range(-6, 19)])
    values += [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
               np.arange(5000.0), 2.0 ** 53 + np.arange(-2.0, 3.0),
               rng.uniform(0.0, 2.2250738585072014e-308, 100),
               [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, np.inf, np.nan]]
    v = np.concatenate(values)
    return np.concatenate([v, -v])


def test_csv_fields_are_the_percent_17g_bytes():
    # the numpy digits and templates against Python's correctly rounded %.17g
    v = g17_cases()
    got = discrete_energy._format_rows(v[:, None]).decode().split("\r\n")
    want = ["%.17g" % x for x in v.tolist()] + [""]
    bad = [(x, g, w) for x, g, w in zip(v.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


@pytest.fixture(scope="module")
def bar32():
    return build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 32.0, l=2.0))


def in_range_field(mesh, seed):
    """Every exponent the numpy path takes, both signs and some zeros."""
    rng = np.random.default_rng(seed)
    shape = (mesh.n_points, 2)
    values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-4.99, 16.99, shape)
    values[rng.random(shape) < 0.05] = 0.0
    return values


def test_csv_writer_leaves_format_float_to_the_values_outside_its_range(bar32, tmp_path,
                                                                        monkeypatch):
    from fraclat.continuum import CleavageProblem, a_crit, build_u_cr
    from fraclat.solver import cleaved_stations, recovery_sequence
    base = CleavageProblem(alpha=1.0, beta=1.0, l=2.0, phi=0.3, a=0.0)
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=2.0, phi=0.3, a=1.5 * a_crit(base))
    crack = recovery_sequence(build_u_cr(prob, float(cleaved_stations(prob, 1)[0])), bar32)
    outside = in_range_field(bar32, 43)
    rng = np.random.default_rng(44)
    picked = rng.random(outside.shape) < 0.1
    outside[picked] = rng.choice([3e-6, -5e-324, 1e17, -1e300, np.inf, np.nan], picked.sum())
    assert picked.sum() > 400
    calls = []
    format_float = discrete_energy.format_float
    monkeypatch.setattr(discrete_energy, "format_float",
                        lambda x: calls.append(x) or format_float(x))
    for values, n_outside in [(crack.values, 0), (in_range_field(bar32, 42), 0),
                              (outside, picked.sum())]:
        calls.clear()
        u = Displacement(bar32, values)
        displacement_to_csv(u, str(tmp_path / "a.csv"))
        oracles.displacement_to_csv(u, str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert len(calls) == n_outside


def test_csv_writer_memory_stays_within_a_few_blocks(tmp_path):
    # at 1/128 on the l = 2 bar (37 839 rows, ten blocks) the writer peaks
    # at 2.7 MB and formatting every row at once at 25 MB; the bound is
    # about twice the 1.4 MB of %-formatting the rows a block at a time
    import tracemalloc
    u = rand_u(build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 128.0, l=2.0)), 0.3, 42)
    path = str(tmp_path / "disp.csv")
    displacement_to_csv(u, path)  # nothing done once per process counts
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        displacement_to_csv(u, path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def write_rows(path, rows):
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


@pytest.fixture
def csv_rows(mesh16, tmp_path):
    path = tmp_path / "disp.csv"
    displacement_to_csv(rand_u(mesh16, 0.3, 15), str(path))
    return [line.split(",") for line in path.read_text().splitlines()]


def test_displacement_csv_rejects_duplicate_index(mesh16, csv_rows, tmp_path):
    # a duplicated row must not stand in for a missing one
    csv_rows[6] = csv_rows[5]
    write_rows(tmp_path / "dup.csv", csv_rows)
    with pytest.raises(DiscreteEnergyError, match="appears twice"):
        displacement_from_csv(str(tmp_path / "dup.csv"), mesh16)


def test_displacement_csv_rejects_missing_index(mesh16, csv_rows, tmp_path):
    del csv_rows[9]
    write_rows(tmp_path / "missing.csv", csv_rows)
    with pytest.raises(DiscreteEnergyError, match="lacks 1 .* first 8"):
        displacement_from_csv(str(tmp_path / "missing.csv"), mesh16)


@pytest.mark.parametrize("index", ["-1", "n"])
def test_displacement_csv_rejects_out_of_range_index(mesh16, csv_rows, tmp_path, index):
    csv_rows[-1][0] = str(mesh16.n_points) if index == "n" else index
    write_rows(tmp_path / "range.csv", csv_rows)
    with pytest.raises(DiscreteEnergyError, match="outside"):
        displacement_from_csv(str(tmp_path / "range.csv"), mesh16)


@pytest.mark.parametrize("line, edit, match", [
    (5, lambda r: r[:3] + ["nan", r[4]], "line 5: point 3 has a non-finite"),
    (8, lambda r: r[:4] + ["-inf"], "line 8: point 6 has a non-finite"),
    (4, lambda r: r[:4], "line 4: .*expected 5, got 4"),
    (4, lambda r: r + ["0"], "line 4: .*too many values"),
    (4, lambda r: [], "line 4: .*expected 5, got 0"),
    (7, lambda r: r[:2] + ["0.5x"] + r[3:], "line 7: .*to float: '0.5x'"),
    (7, lambda r: ["five"] + r[1:], "line 7: .*int.*'five'"),
    (1, lambda r: r[:3], "line 1: unexpected displacement header"),
])
def test_displacement_csv_rejects_malformed_rows(mesh16, csv_rows, tmp_path, line, edit,
                                                 match):
    csv_rows[line - 1] = edit(csv_rows[line - 1])
    write_rows(tmp_path / "bad.csv", csv_rows)
    with pytest.raises(DiscreteEnergyError, match=match):
        displacement_from_csv(str(tmp_path / "bad.csv"), mesh16)


def test_displacement_csv_names_the_first_faulty_row(mesh16, csv_rows, tmp_path):
    # a non-finite value on line 5 comes before a repeated point on line 9
    csv_rows[4][3] = "nan"
    csv_rows[8] = csv_rows[7]
    write_rows(tmp_path / "two.csv", csv_rows)
    with pytest.raises(DiscreteEnergyError, match="^line 5: point 3 has a non-finite"):
        displacement_from_csv(str(tmp_path / "two.csv"), mesh16)


def test_displacement_csv_rejects_an_empty_file(mesh16, tmp_path):
    (tmp_path / "empty.csv").write_text("")
    with pytest.raises(DiscreteEnergyError, match="line 1: unexpected displacement header None"):
        displacement_from_csv(str(tmp_path / "empty.csv"), mesh16)


def _set_field(line, j, value):
    fields = line.split(",")
    fields[j] = value
    return ",".join(fields)


# each takes the file's lines, without line ends, and the number k of one
# data row; row k sits on line k + 2 and holds point k
CSV_CORRUPTIONS = {
    "none": lambda L, k: L,
    "blank line in the middle": lambda L, k: L[:k + 1] + [""] + L[k + 1:],
    "blank line at the end": lambda L, k: L + [""],
    "whitespace line": lambda L, k: L[:k + 1] + ["  "] + L[k + 1:],
    "7.0 index": lambda L, k: L[:k + 1] + [_set_field(L[k + 1], 0, f"{k}.0")] + L[k + 2:],
    "padded index": lambda L, k: L[:k + 1] + [_set_field(L[k + 1], 0, f" {k} ")] + L[k + 2:],
    "signed index": lambda L, k: L[:k + 1] + [_set_field(L[k + 1], 0, f"+{k}")] + L[k + 2:],
    "underscore index": lambda L, k: L[:k + 1] + [_set_field(L[k + 1], 0, "_".join(str(k)))]
    + L[k + 2:],
    "underscore value": lambda L, k: L[:k + 1] + [_set_field(L[k + 1], 3, "1_0")] + L[k + 2:],
    "quoted value": lambda L, k: L[:k + 1] + [_set_field(L[k + 1], 4, '"0.5"')] + L[k + 2:],
    "quoted index": lambda L, k: L[:k + 1] + [_set_field(L[k + 1], 0, f'"{k}"')] + L[k + 2:],
    "arabic digit value": lambda L, k: L[:k + 1] + [_set_field(L[k + 1], 3, "٧")]
    + L[k + 2:],
    "huge index": lambda L, k: L[:k + 1] + [_set_field(L[k + 1], 0, "99999999999999999999")]
    + L[k + 2:],
    "negative index, then a bad row": lambda L, k: L[:k + 1] + [_set_field(L[k + 1], 0, "-1")]
    + L[k + 2:-1] + ["x"],
    "extra field": lambda L, k: L[:k + 1] + [L[k + 1] + ",0"] + L[k + 2:],
    "missing field": lambda L, k: L[:k + 1] + [L[k + 1].rsplit(",", 1)[0]] + L[k + 2:],
    "infinite value": lambda L, k: L[:k + 1] + [_set_field(L[k + 1], 4, "-Infinity")]
    + L[k + 2:],
    "off the mesh": lambda L, k: L[:k + 1] + [_set_field(L[k + 1], 1, "9.5")] + L[k + 2:],
    "repeated row": lambda L, k: L[:k + 1] + [L[k]] + L[k + 2:],
    "missing row": lambda L, k: L[:k + 1] + L[k + 2:],
    "header only": lambda L, k: L[:1],
}


@pytest.mark.parametrize("ending", ["\r\n", "\n", "\r"])
@pytest.mark.parametrize("where", ["first block", "later block"])
@pytest.mark.parametrize("corruption", sorted(CSV_CORRUPTIONS))
def test_displacement_csv_reads_as_the_row_loop(mesh16, tmp_path, monkeypatch, corruption,
                                                where, ending):
    # the same values, or the same message, as the row-by-row oracle
    import oracles
    monkeypatch.setattr(discrete_energy, "_CSV_BLOCK_ROWS", 64)  # several blocks
    path = tmp_path / "disp.csv"
    displacement_to_csv(rand_u(mesh16, 0.3, 16), str(path))
    lines = path.read_text().splitlines()
    k = 5 if where == "first block" else mesh16.n_points - 3
    path.write_bytes((ending.join(CSV_CORRUPTIONS[corruption](lines, k)) + ending).encode())
    try:
        expected = oracles.displacement_from_csv(str(path), mesh16)
    except DiscreteEnergyError as exc:
        with pytest.raises(DiscreteEnergyError) as got:
            displacement_from_csv(str(path), mesh16)
        assert str(got.value) == str(exc)
    else:
        assert displacement_from_csv(str(path), mesh16).values.tobytes() == \
            expected.values.tobytes()

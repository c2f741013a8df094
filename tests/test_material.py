import math

import numpy as np
import pytest

from conftest import random_orthogonal, random_rotation
from fraclat.lattice import lattice_vectors, rotation_matrix
from fraclat.material import (POTENTIAL_FAMILIES, MagnetizationModel, MaterialError,
                              PairPotential, PenaltyChi,
                              cell_energy, coercivity_ratio_cell,
                              coercivity_ratio_field, field_energy, field_energy_rows,
                              field_energy_smooth, field_energy_smooth_grad, magnetization,
                              magnetization_first, magnetization_hessian_form,
                              quadratic_form, quadratic_min_under_strain,
                              rotation_reflection_distances)

SQRT3 = math.sqrt(3.0)


# ----------------------------------------------------------------------
# pair potentials
# ----------------------------------------------------------------------

def second_derivative(f, x, h=1e-5):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / h ** 2


@pytest.mark.parametrize("pot", [PairPotential(alpha=1.3, beta=0.8),
                                 PairPotential.shifted_lj(beta=0.6)])
def test_potential_axioms(pot):
    r = np.linspace(0.05, 6.0, 800)
    w = pot(r)
    assert np.all(w >= 0.0)
    assert pot(1.0) == 0.0
    assert np.all(w[np.abs(r - 1.0) > 1e-3] > 0.0)
    # tail limit, checked far out
    assert abs(pot(1e3) - pot.beta) <= 1e-6 * pot.beta
    # curvature at the well bottom, by finite differences
    assert second_derivative(pot, 1.0) == pytest.approx(pot.alpha, rel=1e-4)


def test_shifted_lj_forces_alpha():
    pot = PairPotential.shifted_lj(beta=0.5)
    assert pot.alpha == 72.0 * 0.5
    with pytest.raises(MaterialError):
        PairPotential(family="shifted-lj", alpha=1.0, beta=1.0)


def test_potential_deriv_matches_fd():
    pot = PairPotential(alpha=1.7, beta=0.9)
    for r in (0.5, 0.9, 1.0, 1.4, 3.0):
        fd = (pot(r + 1e-6) - pot(r - 1e-6)) / 2e-6
        assert pot.deriv(r) == pytest.approx(fd, abs=1e-8)


@pytest.mark.parametrize("family", POTENTIAL_FAMILIES)
def test_every_family_is_differentiable(family):
    beta = 0.6
    pot = PairPotential(family=family, alpha=72.0 * beta, beta=beta)
    for r in (0.7, 0.95, 1.0, 1.2, 2.5):
        fd = (pot(r + 1e-6) - pot(r - 1e-6)) / 2e-6
        assert pot.deriv(r) == pytest.approx(fd, rel=1e-6, abs=1e-7)


def test_unknown_family_rejected():
    with pytest.raises(MaterialError, match="unknown potential family 'tabulated'"):
        PairPotential(family="tabulated")


@pytest.mark.parametrize("pot", [
    PairPotential(alpha=1.3, beta=0.8), PairPotential.shifted_lj(beta=0.6)])
def test_potential_writes_into_out(pot):
    # r = 0 and a tiny r reach the shifted-lj guard and its overflow
    r = np.concatenate([[0.0, 1e-300, 1.0],
                        np.random.default_rng(0).uniform(0.0, 5.0, 500)])
    for f in (pot.__call__, pot.deriv):
        with np.errstate(over="ignore"):
            fresh = f(r)
            out = np.full_like(r, np.nan)
            assert f(r, out=out) is out
        assert np.array_equal(out, fresh)
        assert type(f(1.5)) is type(fresh[0]) and f(1.5) == f(np.array([1.5]))[0]


def test_tail_infimum():
    pot = PairPotential(alpha=1.0, beta=1.0)
    assert 0.0 < pot.tail_infimum(2.0) <= pot(2.0)


# ----------------------------------------------------------------------
# cell energy
# ----------------------------------------------------------------------

def test_cell_energy_identity_and_scaling(pot):
    vecs = lattice_vectors(0.25)
    assert cell_energy(np.eye(2), pot, vecs) == pytest.approx(0.0, abs=1e-15)
    # uniform doubling stretches every bond to length 2
    val = cell_energy(2.0 * np.eye(2), pot, vecs)
    assert val == pytest.approx(1.5 * pot(2.0), rel=1e-14)


def test_cell_energy_frame_indifference(pot):
    rng = np.random.default_rng(7)
    vecs = lattice_vectors(0.4)
    n = 10_000
    F = rng.normal(size=(n, 2, 2)) * rng.uniform(0.2, 3.0, (n, 1, 1))
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    Q = np.stack([np.stack([np.cos(th), -np.sin(th)], axis=1),
                  np.stack([np.sin(th), np.cos(th)], axis=1)], axis=1)
    flip = rng.random(n) < 0.5
    Q[flip] = Q[flip] @ np.diag([1.0, -1.0])
    w1 = cell_energy(F, pot, vecs)
    w2 = cell_energy(Q @ F, pot, vecs)
    assert np.all(np.abs(w1 - w2) <= 1e-12 * (1.0 + np.abs(w1)))


def test_cell_energy_zero_only_on_orthogonal(pot):
    rng = np.random.default_rng(8)
    vecs = lattice_vectors(0.0)
    for _ in range(50):
        Q = random_orthogonal(rng)
        assert cell_energy(Q, pot, vecs) <= 1e-28
        F = Q + 0.05 * rng.normal(size=(2, 2))
        if np.linalg.norm(F - Q) > 1e-3:
            assert cell_energy(F, pot, vecs) > 0.0


# ----------------------------------------------------------------------
# quadratic forms
# ----------------------------------------------------------------------

def test_quadratic_form_values():
    assert quadratic_form(np.zeros((2, 2)), 1.0) == 0.0
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert quadratic_form(J, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert quadratic_form(np.eye(2), 1.0) == pytest.approx(1.5, abs=1e-15)


def test_quadratic_form_symmetric_part_only():
    rng = np.random.default_rng(9)
    for _ in range(100):
        G = rng.normal(size=(2, 2))
        S = 0.5 * (G + G.T)
        assert quadratic_form(G, 1.3) == pytest.approx(quadratic_form(S, 1.3), rel=1e-13)


def test_quadratic_form_positive_definite_on_symmetric():
    rng = np.random.default_rng(10)
    for _ in range(200):
        S = rng.normal(size=(2, 2))
        S = 0.5 * (S + S.T)
        if np.linalg.norm(S) > 1e-8:
            assert quadratic_form(S, 0.7) > 0.0


def test_linearization_of_cell_energy(pot):
    # |W_cell(Id + tG) - t^2 Q(G)/2| / t^2 shrinks with t
    rng = np.random.default_rng(11)
    vecs = lattice_vectors(0.3)
    G = rng.normal(size=(100, 2, 2))
    G /= np.linalg.norm(G, axis=(1, 2))[:, None, None]
    ratios = []
    for t in (1e-2, 1e-3, 1e-4):
        W = cell_energy(np.eye(2) + t * G, pot, vecs)
        Q = quadratic_form(G, pot.alpha)
        ratios.append(np.abs(W - 0.5 * t * t * Q).max() / t ** 2)
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[1] <= 1e-3 * pot.alpha


def test_quadratic_min_under_strain():
    val, argmin = quadratic_min_under_strain(0.0, 1.0)
    assert val == 0.0
    r, alpha = 0.8, 1.7
    val, argmin = quadratic_min_under_strain(r, alpha)
    assert val == pytest.approx(0.5 * alpha * r ** 2, rel=1e-15)
    assert argmin[0, 0] == r and argmin[1, 1] == pytest.approx(-r / 3.0)
    assert quadratic_form(argmin, alpha) == pytest.approx(val, rel=1e-13)
    # random search cannot beat the closed form
    rng = np.random.default_rng(12)
    G = rng.normal(size=(100_000, 2, 2))
    G[:, 0, 0] = 1.0
    assert quadratic_form(G, 1.0).min() >= 0.5 - 1e-9


# ----------------------------------------------------------------------
# magnetization
# ----------------------------------------------------------------------

def test_magnetization_identity_and_rotations():
    assert np.allclose(magnetization(np.eye(2)), [1.0, 0.0], atol=1e-15)
    for th in np.linspace(-3.0, 3.0, 25):
        R = rotation_matrix(th)
        assert np.allclose(magnetization(R), [math.cos(th), math.sin(th)], atol=1e-14)


def test_magnetization_equivariance():
    rng = np.random.default_rng(13)
    for _ in range(300):
        F = np.eye(2) + 0.5 * rng.normal(size=(2, 2))
        if np.linalg.det(F) <= 0.05:
            continue
        R = random_rotation(rng)
        assert np.allclose(magnetization(R @ F), R @ magnetization(F), atol=1e-12)


def test_magnetization_exact_on_symmetric_stretch():
    # symmetric positive definite arguments carry no rotation at all
    rng = np.random.default_rng(14)
    for _ in range(100):
        S = 0.1 * rng.normal(size=(2, 2))
        S = 0.5 * (S + S.T)
        assert np.allclose(magnetization(np.eye(2) + S), [1.0, 0.0], atol=1e-14)


def test_magnetization_rejects_flipped_orientation():
    with pytest.raises(MaterialError):
        magnetization(np.diag([1.0, -1.0]))


def test_field_energy_values(magmodel):
    assert field_energy(np.eye(2), magmodel) == 0.0
    th = 0.4
    assert field_energy(rotation_matrix(th), magmodel) == pytest.approx(
        magmodel.kappa * (1.0 - math.cos(th)), rel=1e-13)
    big = 3.0 * np.eye(2)  # Frobenius norm beyond the cutoff
    assert field_energy(big, magmodel) == 0.0
    rng = np.random.default_rng(15)
    for _ in range(100):
        F = np.eye(2) + 0.3 * rng.normal(size=(2, 2))
        if np.linalg.det(F) > 0.05:
            v = field_energy(F, magmodel)
            assert 0.0 <= v <= 2.0 * magmodel.kappa


def test_field_energy_smooth_matches_sharp_inside(magmodel):
    F = rotation_matrix(0.3)  # |F| = sqrt(2), far below the band
    assert field_energy_smooth(F, magmodel) == pytest.approx(
        field_energy(F, magmodel), rel=1e-14)


def test_field_energy_on_the_degenerate_set(magmodel):
    # t = s = 0: m1 is the first row's direction, and 1 at the origin; the
    # gradient takes the term as flat there
    refl = np.array([[0.6, 0.8], [0.8, -0.6]])
    for energy in (field_energy, field_energy_smooth):
        assert energy(refl, magmodel) == pytest.approx(magmodel.kappa * 0.4, rel=1e-15)
        assert energy(np.zeros((2, 2)), magmodel) == 0.0
    assert not np.any(field_energy_smooth_grad(np.stack([refl, np.zeros((2, 2))]), magmodel))


def test_field_energy_rows_has_no_sharp_gradient(magmodel):
    rows, grad = np.eye(2).ravel()[:, None], np.empty((1, 2, 2))
    with pytest.raises(MaterialError, match="no gradient"):
        field_energy_rows(rows, magmodel, False, np.empty(1), grad)


def test_model_requires_cutoff_above_sqrt2():
    with pytest.raises(MaterialError):
        MagnetizationModel(kappa=1.0, T=1.2)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("cls, field", [
    (PairPotential, "alpha"), (PairPotential, "beta"),
    (PenaltyChi, "c_chi"), (PenaltyChi, "delta_det"), (PenaltyChi, "cutoff_norm"),
    (PenaltyChi, "width"), (MagnetizationModel, "kappa"), (MagnetizationModel, "T")],
    ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_parameters_reject_a_non_finite_field(cls, field, value):
    with pytest.raises(MaterialError, match=f"^{field} must be finite, got {value}$"):
        cls(**{field: value})


def test_shifted_lj_rejects_a_non_finite_alpha():
    # |nan - 72 beta| > tol is false, so the pair check alone lets nan pass
    with pytest.raises(MaterialError, match="^alpha must be finite, got nan$"):
        PairPotential(family="shifted-lj", alpha=math.nan, beta=1.0)


def test_hessian_form_values_and_fd_oracle():
    rng = np.random.default_rng(16)
    S = np.array([[0.3, 0.1], [0.1, -0.2]])
    assert magnetization_hessian_form(S) == 0.0
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert magnetization_hessian_form(J) == pytest.approx(-1.0, abs=1e-15)
    t = 1e-4
    for _ in range(100):
        G = rng.normal(size=(2, 2))
        assert magnetization_hessian_form(G) <= 0.0
        fd = (magnetization_first(np.eye(2) + t * G) - 2.0
              + magnetization_first(np.eye(2) - t * G)) / t ** 2
        assert magnetization_hessian_form(G) == pytest.approx(fd, abs=1e-6)


# ----------------------------------------------------------------------
# orientation penalty
# ----------------------------------------------------------------------

def test_chi_neighborhood_properties(chi):
    rng = np.random.default_rng(17)
    for _ in range(200):
        R = random_rotation(rng)
        E = rng.normal(size=(2, 2))
        E *= chi.delta_det / 4.0 * 0.99 / max(np.linalg.norm(E), 1e-12)
        assert chi(R + E) == 0.0                       # near the rotations
        refl = R @ np.diag([1.0, -1.0])
        assert chi(refl + E) >= chi.c_chi - 1e-15      # near the reflections
        big = rng.normal(size=(2, 2))
        big *= (chi.cutoff_norm + 1.0) / np.linalg.norm(big)
        assert chi(big) == 0.0                         # beyond the cutoff
        Q = random_rotation(rng)
        F = rng.normal(size=(2, 2)) * 2.0
        assert chi(Q @ F) == pytest.approx(chi(F), abs=1e-12)


def test_chi_gradient_fd(chi):
    rng = np.random.default_rng(18)
    checked = 0
    while checked < 30:
        F = rng.normal(size=(2, 2)) * rng.uniform(0.5, 4.0)
        g = chi.grad(F)
        D = rng.normal(size=(2, 2))
        t = 1e-6
        fd = (chi(F + t * D) - chi(F - t * D)) / (2.0 * t)
        assert float(np.sum(g * D)) == pytest.approx(fd, abs=2e-5)
        checked += 1


# ----------------------------------------------------------------------
# distances to the orthogonal group
# ----------------------------------------------------------------------

def test_distances_special_cases():
    d_rot, d_refl = rotation_reflection_distances(np.eye(2))
    assert d_rot == pytest.approx(0.0, abs=1e-15)
    assert d_refl == pytest.approx(2.0, abs=1e-14)
    d_rot, d_refl = rotation_reflection_distances(np.diag([1.0, -1.0]))
    assert d_rot == pytest.approx(2.0, abs=1e-14)
    assert d_refl == pytest.approx(0.0, abs=1e-15)


def test_distances_brute_force_oracle():
    # scan a fine angle grid of rotations and reflections
    rng = np.random.default_rng(19)
    thetas = np.linspace(0.0, 2.0 * np.pi, 20000, endpoint=False)
    rots = np.stack([np.stack([np.cos(thetas), -np.sin(thetas)], axis=1),
                     np.stack([np.sin(thetas), np.cos(thetas)], axis=1)], axis=1)
    refls = rots @ np.diag([1.0, -1.0])
    for _ in range(25):
        F = rng.normal(size=(2, 2)) * rng.uniform(0.3, 3.0)
        d_rot, d_refl = rotation_reflection_distances(F)
        brute_rot = np.linalg.norm(rots - F, axis=(1, 2)).min()
        brute_refl = np.linalg.norm(refls - F, axis=(1, 2)).min()
        assert d_rot == pytest.approx(brute_rot, abs=1e-6)
        assert d_refl == pytest.approx(brute_refl, abs=1e-6)


def test_coercivity_ratios_positive(pot, chi, magmodel):
    rng = np.random.default_rng(20)
    vecs = lattice_vectors(0.3)
    F = rng.normal(size=(4000, 2, 2)) * rng.uniform(0.1, 3.5, size=(4000, 1, 1))
    keep = np.linalg.norm(F, axis=(1, 2)) <= 7.0
    Fc = F[keep]
    from fraclat.material import distance_to_O2
    Fc = Fc[distance_to_O2(Fc) >= 1e-3]
    assert coercivity_ratio_cell(Fc, pot, vecs).min() > 0.0
    Ft = F[np.linalg.norm(F, axis=(1, 2)) <= magmodel.T]
    diff = Ft - np.eye(2)
    Ft = Ft[np.einsum("nij,nij->n", diff, diff) >= 1e-6]
    # orientation-reversing samples are fine: the field term is gated away
    assert coercivity_ratio_field(Ft, pot, chi, magmodel, vecs).min() > 0.0

import math

import numpy as np
import pytest

from fraclat.continuum import (AffinePiece, CleavageProblem, CrackLine,
                               ContinuumDisplacement, GeometryError, a_crit,
                               build_u_cr, build_u_cr_symmetric, build_u_el,
                               clip_polygon_rect, clip_segment_rect,
                               crack_branch_energy, elastic_branch_energy,
                               energy_F_limit, energy_limit, min_energy,
                               shoelace_area, slicing_lower_bound,
                               surface_density_bound, surface_density_margins)
from fraclat.material import quadratic_form

SQRT3 = math.sqrt(3.0)


# ----------------------------------------------------------------------
# exact geometry helpers
# ----------------------------------------------------------------------

def test_shoelace_known_areas():
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    assert shoelace_area(square) == pytest.approx(2.0, abs=1e-15)
    assert shoelace_area(square[::-1]) == pytest.approx(-2.0, abs=1e-15)


def test_clip_polygon_against_rect():
    tri = np.array([[-1.0, -1.0], [3.0, -1.0], [1.0, 2.0]])
    clipped = clip_polygon_rect(tri, (0.0, 2.0, 0.0, 1.0))
    assert len(clipped) >= 4
    assert abs(shoelace_area(clipped)) < 2.0
    # fully inside stays unchanged in area
    small = np.array([[0.2, 0.2], [0.5, 0.2], [0.3, 0.4]])
    same = clip_polygon_rect(small, (0.0, 2.0, 0.0, 1.0))
    assert abs(shoelace_area(same)) == pytest.approx(abs(shoelace_area(small)), rel=1e-14)


def test_clip_segment():
    got = clip_segment_rect(np.array([-1.0, 0.5]), np.array([3.0, 0.5]), (0.0, 2.0, 0.0, 1.0))
    q0, q1 = got
    assert np.allclose(q0, [0.0, 0.5]) and np.allclose(q1, [2.0, 0.5])
    assert clip_segment_rect(np.array([-1.0, 2.0]), np.array([3.0, 2.0]),
                             (0.0, 2.0, 0.0, 1.0)) is None


# ----------------------------------------------------------------------
# limit energies of the named configurations
# ----------------------------------------------------------------------

def test_zero_displacement_zero_energy():
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.0, a=0.0)
    u = build_u_el(prob)
    bulk, surface, total = energy_limit(u, prob.alpha, prob.beta, prob.phi)
    assert total == 0.0


@pytest.mark.parametrize("phi", [0.0, 0.3])
@pytest.mark.parametrize("l", [1.0, 2.0])
def test_elastic_energy_exact(phi, l):
    prob = CleavageProblem(alpha=1.4, beta=0.7, l=l, phi=phi, a=0.9)
    u = build_u_el(prob, s=0.3)
    bulk, surface, total = energy_limit(u, prob.alpha, prob.beta, prob.phi)
    assert surface == 0.0
    assert total == pytest.approx(prob.alpha * l * prob.a ** 2 / SQRT3, rel=1e-12)
    # gradient read-offs
    A = u.pieces[0].A
    assert A[0, 0] == prob.a and A[1, 1] == pytest.approx(-prob.a / 3.0)
    assert quadratic_form(0.5 * (A + A.T), prob.alpha) == pytest.approx(
        0.5 * prob.alpha * prob.a ** 2, rel=1e-13)


@pytest.mark.parametrize("phi", [0.0, 0.3])
def test_crack_energy_exact(phi):
    prob = CleavageProblem(alpha=1.1, beta=1.7, l=2.0, phi=phi, a=3.0)
    u = build_u_cr(prob, p=1.0, s=0.1, t=0.4)
    bulk, surface, total = energy_limit(u, prob.alpha, prob.beta, prob.phi)
    assert bulk == 0.0
    assert total == pytest.approx(2.0 * prob.beta / prob.gamma, rel=1e-12)
    # crack segment spans the unit height along the best direction
    seg = u.crack[0]
    assert seg.length == pytest.approx(1.0 / prob.gamma, rel=1e-12)
    assert np.allclose(seg.jump, [prob.a * prob.l, 0.3], atol=1e-15)


def test_crack_line_must_cross_horizontal_sides():
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.3, a=3.0)
    with pytest.raises(GeometryError):
        build_u_cr(prob, p=0.99)  # exits through the right side
    with pytest.raises(GeometryError):
        build_u_cr(prob, p=-0.2)


def test_overlapping_pieces_rejected():
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.0, a=0.0)
    full = np.array([[-0.25, 0.0], [1.25, 0.0], [1.25, 1.0], [-0.25, 1.0]])
    u = ContinuumDisplacement(
        pieces=[AffinePiece(full, np.zeros((2, 2)), np.zeros(2)),
                AffinePiece(full, np.eye(2), np.zeros(2))],
        crack=[], domain_l=1.0)
    with pytest.raises(GeometryError):
        energy_limit(u, 1.0, 1.0, 0.0)


# ----------------------------------------------------------------------
# critical load and branch selection
# ----------------------------------------------------------------------

def test_a_crit_unit_parameters():
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.0, a=0.0)
    assert a_crit(prob) == pytest.approx(2.0, abs=1e-12)


def test_branch_equality_at_crossover():
    rng = np.random.default_rng(3)
    for _ in range(100):
        prob = CleavageProblem(alpha=rng.uniform(0.5, 2.0), beta=rng.uniform(0.5, 2.0),
                               l=rng.uniform(0.7, 3.0), phi=rng.uniform(0.0, np.pi / 3 * 0.99),
                               a=0.0)
        ac = a_crit(prob)
        el = elastic_branch_energy(prob, ac)
        cr = crack_branch_energy(prob)
        assert el == pytest.approx(cr, rel=1e-12)


def test_a_crit_length_scaling():
    p1 = CleavageProblem(alpha=1.3, beta=0.9, l=1.0, phi=0.2, a=0.0)
    p2 = CleavageProblem(alpha=1.3, beta=0.9, l=2.0, phi=0.2, a=0.0)
    assert a_crit(p2) == pytest.approx(a_crit(p1) / math.sqrt(2.0), rel=1e-13)


def test_min_energy_branches():
    assert min_energy(CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.0, a=0.0)) == 0.0
    # subcritical at unit parameters
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.0, a=1.0)
    assert min_energy(prob) == pytest.approx(1.0 / SQRT3, rel=1e-13)
    # far beyond critical the crack branch caps the energy
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.0, a=100.0)
    assert min_energy(prob) == pytest.approx(4.0 / SQRT3, rel=1e-13)


def test_branch_crossover_is_sharp():
    prob0 = CleavageProblem(alpha=1.2, beta=0.8, l=1.5, phi=0.25, a=0.0)
    ac = a_crit(prob0)
    for factor, elastic_wins in ((0.99, True), (1.01, False)):
        prob = CleavageProblem(alpha=1.2, beta=0.8, l=1.5, phi=0.25, a=factor * ac)
        el, cr = elastic_branch_energy(prob), crack_branch_energy(prob)
        assert (el < cr) == elastic_wins
        assert min_energy(prob) == min(el, cr)


# ----------------------------------------------------------------------
# the symmetric degenerate orientation
# ----------------------------------------------------------------------

def test_vertical_graph_crack():
    prob = CleavageProblem(alpha=1.0, beta=1.3, l=1.0, phi=0.0, a=3.0)
    u = build_u_cr_symmetric(prob, [0.0, 1.0], [0.4, 0.4])
    _, _, total = energy_limit(u, prob.alpha, prob.beta, prob.phi)
    assert total == pytest.approx(4.0 * prob.beta / SQRT3, rel=1e-12)


def test_zigzag_graph_same_energy():
    prob = CleavageProblem(alpha=1.0, beta=0.9, l=1.0, phi=0.0, a=3.0)
    x2 = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    h = 0.5 + np.array([0.0, 1.0, 0.0, -1.0, 0.0]) * (0.25 / SQRT3)
    u = build_u_cr_symmetric(prob, x2, h)
    _, _, total = energy_limit(u, prob.alpha, prob.beta, prob.phi)
    assert total == pytest.approx(4.0 * prob.beta / SQRT3, rel=1e-12)


def test_graph_slope_bound_enforced():
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.0, a=3.0)
    with pytest.raises(GeometryError):
        build_u_cr_symmetric(prob, [0.0, 0.5, 1.0], [0.2, 0.7, 0.2])  # slope 1
    with pytest.raises(GeometryError):
        build_u_cr_symmetric(prob, [0.0, 1.0], [-0.3, 0.2])  # leaves [0, l]
    with pytest.raises(GeometryError):
        bad = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.2, a=3.0)
        build_u_cr_symmetric(bad, [0.0, 1.0], [0.5, 0.5])  # only phi = 0


def test_random_admissible_graphs_degenerate():
    rng = np.random.default_rng(4)
    prob = CleavageProblem(alpha=1.0, beta=1.45, l=1.0, phi=0.0, a=3.0)
    target = 4.0 * prob.beta / SQRT3
    for _ in range(20):
        k = rng.integers(2, 7)
        x2 = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, k - 1)), [1.0]])
        slopes = rng.uniform(-1.0, 1.0, k) / SQRT3
        h = np.concatenate([[0.0], np.cumsum(slopes * np.diff(x2))])
        h += 0.5 - h.mean()
        u = build_u_cr_symmetric(prob, x2, h)
        _, _, total = energy_limit(u, prob.alpha, prob.beta, prob.phi)
        assert total == pytest.approx(target, rel=1e-12)


# ----------------------------------------------------------------------
# field functional
# ----------------------------------------------------------------------

def test_field_limit_matches_plain_for_symmetric_gradients():
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.2, a=0.7)
    u = build_u_el(prob)
    _, _, total = energy_limit(u, prob.alpha, prob.beta, prob.phi)
    assert energy_F_limit(u, prob.alpha, prob.beta, prob.phi, kappa=2.0) == \
        pytest.approx(total, rel=1e-14)
    assert energy_F_limit(u, prob.alpha, prob.beta, prob.phi, kappa=0.0) == \
        pytest.approx(total, rel=1e-14)


def test_field_limit_charges_rotations():
    # infinitesimal rigid rotation of the whole slab
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.5, phi=0.0, a=0.0)
    w = 1.0
    W = np.array([[0.0, -w], [w, 0.0]])
    poly = np.array([[-0.25, 0.0], [1.75, 0.0], [1.75, 1.0], [-0.25, 1.0]])
    u = ContinuumDisplacement([AffinePiece(poly, W, np.zeros(2))], [], 1.5)
    _, _, total = energy_limit(u, prob.alpha, prob.beta, prob.phi)
    assert total == pytest.approx(0.0, abs=1e-15)  # antisymmetric strain is free
    kappa = 1.3
    got = energy_F_limit(u, prob.alpha, prob.beta, prob.phi, kappa=kappa)
    assert got == pytest.approx(0.5 * kappa * w ** 2 * prob.l, rel=1e-13)


# ----------------------------------------------------------------------
# surface density bound and slicing
# ----------------------------------------------------------------------

def test_surface_bound_exact_cases():
    lhs, rhs, P = surface_density_bound(0.0, np.array([1.0, 0.0]))
    assert lhs == pytest.approx(2.0, abs=1e-14)
    assert rhs == pytest.approx(2.0, abs=1e-14)
    assert P == pytest.approx(0.0, abs=1e-14)
    lhs, rhs, P = surface_density_bound(0.0, np.array([0.0, 1.0]))
    assert lhs == pytest.approx(SQRT3, abs=1e-14)
    assert rhs == pytest.approx(SQRT3, abs=1e-14)
    assert P == pytest.approx(SQRT3, abs=1e-14)


def test_surface_bound_random_sweep():
    rng = np.random.default_rng(5)
    for _ in range(100):
        phi = rng.uniform(0.0, np.pi / 3.0 * 0.9999)
        th = rng.uniform(0.0, 2.0 * np.pi, 200)
        nus = np.column_stack([np.cos(th), np.sin(th)])
        assert surface_density_margins(float(phi), nus).min() >= -1e-12


def test_slicing_bound_tight_on_minimizers():
    prob = CleavageProblem(alpha=1.3, beta=0.8, l=2.0, phi=0.3, a=0.6)
    u_el = build_u_el(prob)
    _, _, total = energy_limit(u_el, prob.alpha, prob.beta, prob.phi)
    assert slicing_lower_bound(u_el, prob) == pytest.approx(total, rel=1e-12)
    u_cr = build_u_cr(prob, p=1.0)
    _, _, total = energy_limit(u_cr, prob.alpha, prob.beta, prob.phi)
    assert slicing_lower_bound(u_cr, prob) == pytest.approx(total, rel=1e-12)


def test_slicing_bound_two_parallel_cracks():
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=2.0, phi=0.3, a=1.0)
    u1 = build_u_cr(prob, p=0.7)
    u2 = build_u_cr(prob, p=1.3)
    seg2 = u2.crack[0]
    # three rigid pieces separated by two parallel cracks
    mid = AffinePiece(np.array([[u1.crack[0].p0[0], 0.0], [seg2.p0[0], 0.0],
                                [seg2.p1[0], 1.0], [u1.crack[0].p1[0], 1.0]]),
                      np.zeros((2, 2)), np.array([0.5 * prob.a * prob.l, 0.0]))
    u = ContinuumDisplacement(
        pieces=[u1.pieces[0], mid, u2.pieces[1]],
        crack=[u1.crack[0],
               CrackLine(seg2.p0, seg2.p1, seg2.normal, seg2.jump)],
        domain_l=prob.l)
    bound = slicing_lower_bound(u, prob)
    assert bound >= 4.0 * prob.beta / prob.gamma - 1e-12
    _, _, total = energy_limit(u, prob.alpha, prob.beta, prob.phi)
    assert bound <= total + 1e-12


def test_straight_crack_direction_scan():
    # among straight cracks spanning the bar, the one along the best
    # bond direction is the strict minimizer when phi != 0
    from fraclat.continuum import surface_densities
    from fraclat.lattice import cleavage_direction, lattice_vectors, perp

    for phi in (0.1, 0.3, 0.5):
        vecs = lattice_vectors(phi)
        data = cleavage_direction(phi)
        beta = 1.0

        def straight_cost(direction):
            direction = direction / np.linalg.norm(direction)
            if abs(direction[1]) < 0.2:
                return np.inf  # cannot span the unit height
            nu = perp(direction)
            return surface_densities(nu[None], vecs, beta)[0] / abs(direction[1])

        best = straight_cost(data.v_gamma)
        assert best == pytest.approx(2.0 * beta / data.gamma, rel=1e-13)
        for th in np.linspace(0.0, np.pi, 720, endpoint=False):
            d = np.array([math.cos(th), math.sin(th)])
            if abs(abs(d @ data.v_gamma) - 1.0) < 1e-6:
                continue  # the optimal direction itself
            cost = straight_cost(d)
            if np.isfinite(cost):
                assert cost > best + 1e-12
    # the scan cost agrees with the full energy on a tilted crack
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=2.0, phi=0.3, a=1.0)
    from fraclat.continuum import AffinePiece, CrackLine
    direction = np.array([math.cos(1.25), math.sin(1.25)])
    p = 0.9
    top = p + direction[0] / direction[1]
    nu = perp(direction)
    left = AffinePiece(np.array([[-0.25, 0.0], [p, 0.0], [top, 1.0], [-0.25, 1.0]]),
                       np.zeros((2, 2)), np.zeros(2))
    right = AffinePiece(np.array([[p, 0.0], [2.25, 0.0], [2.25, 1.0], [top, 1.0]]),
                        np.zeros((2, 2)), np.array([2.0, 0.0]))
    u = ContinuumDisplacement([left, right],
                              [CrackLine(np.array([p, 0.0]), np.array([top, 1.0]),
                                         nu / np.linalg.norm(nu), np.array([2.0, 0.0]))],
                              2.0)
    _, _, total = energy_limit(u, prob.alpha, prob.beta, prob.phi)
    expect = surface_densities((nu / np.linalg.norm(nu))[None], lattice_vectors(0.3),
                               1.0)[0] / abs(direction[1])
    assert total == pytest.approx(expect, rel=1e-12)


def test_slicing_below_energy_on_candidate_zoo():
    rng = np.random.default_rng(6)
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.15, a=1.2)
    for _ in range(20):
        p = rng.uniform(0.3, 0.6)
        u = build_u_cr(prob, p=p, s=rng.normal(), t=rng.normal())
        _, _, total = energy_limit(u, prob.alpha, prob.beta, prob.phi)
        assert slicing_lower_bound(u, prob) <= total + 1e-12


def test_problem_validation():
    with pytest.raises(GeometryError):
        CleavageProblem(alpha=1.0, beta=1.0, l=0.3, phi=0.0, a=0.0)
    with pytest.raises(GeometryError):
        CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.0, a=-1.0)
    with pytest.raises(GeometryError):
        CleavageProblem(alpha=-1.0, beta=1.0, l=1.0, phi=0.0, a=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["alpha", "beta", "l", "phi", "a", "eta"])
def test_problem_rejects_a_non_finite_field(field, value):
    kwargs = {"alpha": 1.0, "beta": 1.0, "l": 1.0, "phi": 0.3, "a": 1.0, "eta": 0.25,
              field: value}
    with pytest.raises(GeometryError, match=f"^{field} must be finite, got {value}$"):
        CleavageProblem(**kwargs)

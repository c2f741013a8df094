import math

import numpy as np
import pytest

from fraclat.continuum import (CleavageProblem, a_crit, build_u_cr, build_u_el,
                               crack_branch_energy, elastic_branch_energy)
from fraclat.discrete_energy import (Displacement, bc_cleavage, energy_rescaled,
                                     interpolate_gradients)
from fraclat.lattice import LatticeSpec, build_mesh
from fraclat.solver import (SolveConfig, SolverError, convergence_study,
                            fit_loglog_slope, magnet_demo, minimize,
                            nonequicoercivity_demo, recovery_sequence,
                            rotated_band_displacement, three_piece_rotation)

SQRT3 = math.sqrt(3.0)


def problem_with(mult, phi=0.3, l=1.0):
    base = CleavageProblem(alpha=1.0, beta=1.0, l=l, phi=phi, a=0.0)
    return CleavageProblem(alpha=1.0, beta=1.0, l=l, phi=phi, a=mult * a_crit(base))


# ----------------------------------------------------------------------
# recovery sequences
# ----------------------------------------------------------------------

def test_recovery_elastic_reproduces_gradient(mesh32, pot_unit):
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.3, a=0.8)
    u = recovery_sequence(build_u_el(prob), mesh32)
    gu, _ = interpolate_gradients(u)
    G = np.array([[prob.a, 0.0], [0.0, -prob.a / 3.0]])
    assert np.abs(gu - G).max() < 1e-11
    total = energy_rescaled(u, pot_unit, domain="omega").total
    assert total == pytest.approx(elastic_branch_energy(prob), rel=0.07)


def test_recovery_crack_gap_shrinks(pot_unit, chi):
    prob = problem_with(1.5)
    target = crack_branch_energy(prob)
    gaps = []
    for eps in (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0):
        mesh = build_mesh(LatticeSpec(phi=prob.phi, eps=eps, l=prob.l, eta=0.25))
        u = recovery_sequence(build_u_cr(prob, p=0.45), mesh)
        total = energy_rescaled(u, pot_unit, mode="chi", chi=chi, domain="omega").total
        gaps.append(abs(total - target) / target)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 0.05


def test_recovery_translates_crack_off_lattice():
    # at phi = 0 a crack line with intercept on the lattice grid passes
    # through lattice points, which must trigger the deterministic shift
    prob = problem_with(1.5, phi=0.0)
    eps = 1.0 / 16.0
    mesh = build_mesh(LatticeSpec(phi=0.0, eps=eps, l=1.0, eta=0.25))
    u_cont = build_u_cr(prob, p=0.25)
    assert u_cont.crack_point_distance(mesh.points).min() < 1e-12
    u1 = recovery_sequence(u_cont, mesh)
    u2 = recovery_sequence(u_cont, mesh)
    assert np.array_equal(u1.values, u2.values)  # deterministic
    # the shifted crack line no longer hits any lattice point
    shifted = u_cont.shifted(eps / 17.0)
    assert shifted.crack_point_distance(mesh.points).min() > 1e-12


def test_recovery_without_shift_support_raises(mesh16_phi0):
    from fraclat.continuum import ContinuumDisplacement, AffinePiece, CrackLine
    pt = mesh16_phi0.points[mesh16_phi0.n_points // 2]
    seg = CrackLine(pt - [0.0, 0.1], pt + [0.0, 0.1], np.array([1.0, 0.0]),
                    np.zeros(2))
    poly = np.array([[-0.25, 0.0], [1.25, 0.0], [1.25, 1.0], [-0.25, 1.0]])
    u = ContinuumDisplacement([AffinePiece(poly, np.zeros((2, 2)), np.zeros(2))],
                              [seg], 1.0,
                              locator=lambda p: np.zeros(len(p), dtype=int))
    with pytest.raises(SolverError):
        recovery_sequence(u, mesh16_phi0)


# ----------------------------------------------------------------------
# minimization
# ----------------------------------------------------------------------

def test_minimize_zero_load_rest_state(mesh16, pot_unit, chi):
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.3, a=0.0)
    cfg = SolveConfig(max_iters=100, multistart=("zero",), mode="chi")
    res = minimize(mesh16, bc_cleavage(0.0, 1.0), pot_unit, cfg, chi=chi,
                   problem=prob)
    assert res.breakdown.total <= 1e-10


def test_minimize_monotone_history_and_determinism(mesh16, pot_unit, chi):
    prob = problem_with(0.5)
    cfg = SolveConfig(max_iters=60, multistart=("elastic",))
    res1 = minimize(mesh16, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi,
                    problem=prob)
    res2 = minimize(mesh16, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi,
                    problem=prob)
    assert res1.breakdown.total == res2.breakdown.total
    assert np.array_equal(res1.u.values, res2.u.values)
    for start in res1.starts:
        hist = start.history
        assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(hist, hist[1:]))


def test_descent_counts_evaluations_and_backtracks(mesh16, pot_unit, chi, monkeypatch):
    from fraclat import discrete_energy
    real = discrete_energy._check_pair_identity
    checks = []
    monkeypatch.setattr(discrete_energy, "_check_pair_identity",
                        lambda *args: checks.append(args) or real(*args))
    prob = problem_with(0.5)
    cfg = SolveConfig(max_iters=40, multistart=("zero", "elastic"))
    res = minimize(mesh16, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi,
                   problem=prob)
    for start in res.starts:
        assert start.evals >= start.iters + 1
        # one evaluation at the start, then one per trial: accepted or backtracked
        assert start.evals == len(start.history) + start.backtracks
    assert sum(start.backtracks for start in res.starts) > 0
    # every descent evaluation and every reported energy checks the pair identity
    assert len(checks) == sum(start.evals for start in res.starts) + len(res.starts)


def test_descent_trajectory_does_not_depend_on_the_workspace(mesh16, pot_unit, chi,
                                                            monkeypatch):
    from fraclat import solver
    from fraclat.discrete_energy import Assembly
    prob = problem_with(1.5)
    cfg = SolveConfig(max_iters=40, multistart=("zero", "elastic", "cleaved"), n_cleaved=2)

    def run():
        finals = []
        descend = solver._descend

        def recording(*args):
            finals.append(descend(*args))
            return finals[-1]

        with monkeypatch.context() as m:
            m.setattr(solver, "_descend", recording)
            res = minimize(mesh16, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi,
                           problem=prob)
        return res, finals

    reused, reused_finals = run()
    real = Assembly.value_and_grad

    def on_fresh_assembly(self, x):
        return real(Assembly(self.mesh, self.pot, self.mode, self.chi, self.model,
                             self.domain, self.smooth_field), x)

    monkeypatch.setattr(Assembly, "value_and_grad", on_fresh_assembly)
    fresh, fresh_finals = run()
    assert [s.tag for s in reused.starts][:2] == ["zero", "elastic"]
    assert reused.starts[-1].tag.startswith("cleaved(p=")
    assert sum(s.iters for s in reused.starts) > 0
    assert sum(s.backtracks for s in reused.starts) > 0
    for (x1, a), (x2, b) in zip(reused_finals, fresh_finals, strict=True):
        assert np.array_equal(x1, x2)
        assert (a.tag, a.energy, a.history, a.iters, a.evals, a.backtracks, a.final_step) \
            == (b.tag, b.energy, b.history, b.iters, b.evals, b.backtracks, b.final_step)
    assert reused.breakdown == fresh.breakdown
    trials = {solver.STEP0 * solver.ARMIJO_SHRINK ** k for k in range(solver.MAX_BACKTRACKS)}
    for start in reused.starts:
        assert start.wall_s > 0.0
        assert start.final_step in trials if len(start.history) > 1 else start.final_step == 0.0


def test_minimize_never_worse_than_cleaved_inits(mesh16, pot_unit, chi):
    prob = problem_with(1.5)
    cfg = SolveConfig(max_iters=60, multistart=("cleaved",), n_cleaved=3)
    res = minimize(mesh16, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi,
                   problem=prob)
    # initial energies of the cleaved family are upper bounds for the result
    from fraclat.solver import cleaved_stations
    for p in cleaved_stations(prob, 3):
        u0 = recovery_sequence(build_u_cr(prob, float(p)), mesh16)
        from fraclat.discrete_energy import apply_bc
        u0 = apply_bc(u0, bc_cleavage(prob.a, prob.l))
        e0 = energy_rescaled(u0, pot_unit, mode="chi", chi=chi, domain="omega").total
        assert res.breakdown.total <= e0 + 1e-12


@pytest.mark.parametrize("mult,expect_crack", [(0.5, False), (1.5, True)])
def test_minimize_selects_branch(mult, expect_crack, pot_unit, chi):
    prob = problem_with(mult)
    mesh = build_mesh(LatticeSpec(phi=prob.phi, eps=1.0 / 16.0, l=prob.l, eta=0.25))
    cfg = SolveConfig(max_iters=150)
    res = minimize(mesh, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi,
                   problem=prob)
    el, cr = elastic_branch_energy(prob), crack_branch_energy(prob)
    target = min(el, cr)
    assert res.breakdown.total == pytest.approx(target, rel=0.15)
    from fraclat.crack_extraction import classify_broken
    n_broken = classify_broken(res.u).count
    assert (n_broken > 0) == expect_crack


def test_minimize_unknown_start_tag(mesh16, pot_unit, chi):
    prob = problem_with(0.5)
    for tag in ("nonsense", "perturbed"):
        cfg = SolveConfig(multistart=(tag,))
        with pytest.raises(SolverError, match=f"unknown initializer tag '{tag}'"):
            minimize(mesh16, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi,
                     problem=prob)


def test_default_multistart_does_not_depend_on_the_seed(mesh16, pot_unit, chi):
    prob = problem_with(1.5)
    runs = [minimize(mesh16, bc_cleavage(prob.a, prob.l), pot_unit,
                     SolveConfig(max_iters=60, rng_seed=seed), chi=chi, problem=prob)
            for seed in (0, 7)]
    records = [[(s.tag, s.energy, s.iters, s.evals, s.backtracks, s.history)
                for s in res.starts] for res in runs]
    assert records[0] == records[1]
    assert [tag for tag, *_ in records[0]][:2] == ["zero", "elastic"]
    assert np.array_equal(runs[0].u.values, runs[1].u.values)


# ----------------------------------------------------------------------
# study drivers
# ----------------------------------------------------------------------

def test_convergence_study_rows(pot_unit, chi):
    prob = problem_with(1.5)
    rows = convergence_study(prob, [1.0 / 16.0, 1.0 / 32.0],
                             pot=pot_unit, chi=chi, with_minimize=False)
    assert len(rows) == 4
    kinds = {r.mode for r in rows}
    assert kinds == {"chi/recovery-crack", "chi/recovery-elastic"}
    crack_rows = [r for r in rows if r.mode.endswith("crack")]
    assert abs(crack_rows[1].gap) <= abs(crack_rows[0].gap)
    for r in crack_rows:
        assert r.n_broken > 0
        assert r.crack_angle_deg < 1.0


def test_gap_ladder_guard():
    from fraclat.solver import check_gap_ladder
    # shrinking gaps pass
    check_gap_ladder([0.2, 0.1, 0.05], [1 / 16, 1 / 32, 1 / 64], beta=1.0)
    # a rebound within one energy quantum passes
    check_gap_ladder([0.2, 0.001, 0.015], [1 / 16, 1 / 32, 1 / 64], beta=1.0)
    # growth beyond slack plus quantum is flagged
    with pytest.raises(SolverError):
        check_gap_ladder([0.1, 0.25], [1 / 16, 1 / 32], beta=1.0)


def test_convergence_study_requires_decreasing_ladder(pot_unit, chi):
    prob = problem_with(1.5)
    with pytest.raises(SolverError):
        convergence_study(prob, [1.0 / 32.0, 1.0 / 16.0], pot=pot_unit, chi=chi,
                          with_minimize=False)


def test_fit_loglog_slope_exact_powerlaw():
    eps = np.array([1.0 / 4.0, 1.0 / 8.0, 1.0 / 16.0])
    vals = 3.0 * eps ** -0.5
    assert fit_loglog_slope(eps, vals) == pytest.approx(-0.5, abs=1e-12)


def test_three_piece_identity_rotation(mesh16_phi0):
    u = three_piece_rotation(mesh16_phi0, 0.0, 0.3, 0.7)
    assert np.abs(u.values).max() == 0.0


def test_three_piece_band_gradient(mesh16_phi0):
    theta = 0.8
    u = three_piece_rotation(mesh16_phi0, theta, 0.25, 0.75)
    gu, F = interpolate_gradients(u)
    pts = mesh16_phi0.points[mesh16_phi0.triangles]
    inside = (pts[..., 0] > 0.3).all(axis=1) & (pts[..., 0] < 0.7).all(axis=1)
    R = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    assert np.abs(F[inside] - R).max() < 1e-10


def test_nonequicoercivity_rates(pot_unit):
    res = nonequicoercivity_demo([1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0],
                                 theta=1.2, p=0.125, q=0.875, pot=pot_unit)
    assert res["slope_total"] == pytest.approx(-0.5, abs=0.08)
    assert res["slope_band"] == pytest.approx(-0.5, abs=0.08)
    assert res["energy_ratio"] < 2.0
    # gradient mass grows, energy does not
    masses = [r[2] for r in res["rows"]]
    assert masses[0] < masses[1] < masses[2]


def test_nonequicoercivity_validates_cuts(pot_unit):
    with pytest.raises(SolverError):
        nonequicoercivity_demo([1.0 / 16.0], theta=1.0, p=0.7, q=0.3, pot=pot_unit)


def test_magnet_demo_checks(pot_unit, chi, magmodel):
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.3, a=0.4)
    res = magnet_demo(prob, magmodel, [1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0],
                      pot=pot_unit, chi=chi, n_random=5, seed=0, band_angle=0.4)
    assert max(res["identity_gaps"]) <= 1e-12
    el = res["elastic_rows"]
    assert abs(el[-1].gap) < abs(el[0].gap)
    band = res["band_rows"]
    rels = [abs(b["field_minus_plain"] - b["limit"]) / b["limit"] for b in band]
    assert rels[-1] < 0.10
    assert rels[0] > rels[-1]


def test_rotated_band_probes_quadratic_field_term(pot_unit, chi, magmodel):
    # doubling the scaled angle quadruples the field excess, to leading order
    mesh = build_mesh(LatticeSpec(phi=0.0, eps=1.0 / 32.0, l=1.0, eta=0.25))
    excess = []
    for w in (0.2, 0.4):
        u = rotated_band_displacement(mesh, w, 0.3, 0.7)
        f = energy_rescaled(u, pot_unit, mode="f", chi=chi, model=magmodel).total
        e = energy_rescaled(u, pot_unit, mode="chi", chi=chi).total
        excess.append(f - e)
    assert excess[1] / excess[0] == pytest.approx(4.0, rel=0.02)

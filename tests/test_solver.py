import dataclasses
import gc
import math
import re
import weakref

import numpy as np
import pytest

import oracles
from fraclat import discrete_energy, lattice, multigrid, solver
from fraclat.continuum import (CleavageProblem, a_crit, build_u_cr, build_u_el,
                               crack_branch_energy, elastic_branch_energy)
from fraclat.discrete_energy import (Assembly, Displacement, bc_affine, bc_cleavage,
                                     bc_zero, energy_rescaled, interpolate_gradients)
from fraclat.lattice import LatticeSpec, build_mesh
from fraclat.material import MagnetizationModel, MaterialError, PairPotential
from fraclat.multigrid import StiffnessMultigrid, rest_preconditioner
from fraclat.solver import (ConvergenceRow, SolveConfig, SolverError, _crack_summary,
                            cleaved_stations, convergence_study, critical_load_study,
                            fit_loglog_slope,
                            magnet_demo, minimize, nonequicoercivity_demo,
                            recovery_sequence, rotated_band_displacement,
                            three_piece_rotation)

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
    total = energy_rescaled(u, pot_unit).total
    assert total == pytest.approx(elastic_branch_energy(prob), rel=0.07)


def test_recovery_crack_gap_shrinks(pot_unit, chi):
    prob = problem_with(1.5)
    target = crack_branch_energy(prob)
    gaps = []
    for eps in (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0):
        mesh = build_mesh(LatticeSpec(phi=prob.phi, eps=eps, l=prob.l))
        u = recovery_sequence(build_u_cr(prob, p=0.45), mesh)
        total = energy_rescaled(u, pot_unit, mode="chi", chi=chi).total
        gaps.append(abs(total - target) / target)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 0.05


def test_recovery_translates_crack_off_lattice():
    # at phi = 0 a crack line with intercept on the lattice grid passes
    # through lattice points, which must trigger the deterministic shift
    prob = problem_with(1.5, phi=0.0)
    eps = 1.0 / 16.0
    mesh = build_mesh(LatticeSpec(phi=0.0, eps=eps, l=1.0))
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


def crack_touches_reference(u_cont, mesh):
    return bool(u_cont.crack_point_distance(mesh.points).min() < 1e-12)


@pytest.mark.parametrize("inv_eps", [16, 32, 64, 128])
def test_crack_touch_check_agrees_with_the_distance_on_every_station(inv_eps):
    prob = problem_with(1.5, l=2.0)
    mesh = build_mesh(LatticeSpec(phi=prob.phi, eps=1.0 / inv_eps, l=prob.l))
    stations = cleaved_stations(prob, 9)
    assert len(stations) == 9
    for p in stations:
        u_cont = build_u_cr(prob, float(p))
        assert solver._touches_crack(u_cont, mesh.points) \
            == crack_touches_reference(u_cont, mesh)


@pytest.mark.parametrize("phi", [0.0, 1.03])
def test_cleaved_stations_fit_a_short_steep_bar(phi):
    # on l = 0.6 the crack line's run along v_gamma leaves no intercept both
    # 2 percent inside the window [lo, hi] of lines that cross both
    # horizontal sides and in the middle 80 percent of the bar, so the
    # stations fill the middle 90 percent of that window
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=0.6, phi=phi, a=1.0)
    w = prob.cleavage.v_gamma
    lo, hi = max(0.0, -w[0] / w[1]), min(prob.l, prob.l - w[0] / w[1])
    assert min(hi - 0.02 * prob.l, 0.9 * prob.l) < max(lo + 0.02 * prob.l, 0.1 * prob.l)
    stations = cleaved_stations(prob, 9)
    assert len(stations) == 9 and (np.diff(stations) > 0.0).all()
    assert lo + 0.05 * (hi - lo) < stations[0] and stations[-1] < hi - 0.05 * (hi - lo)
    for p in stations:
        (seg,) = build_u_cr(prob, float(p)).crack
        assert seg.p0[1] == 0.0 and seg.p1[1] == 1.0
        assert 0.0 < min(seg.p0[0], seg.p1[0]) and max(seg.p0[0], seg.p1[0]) < prob.l


def test_crack_touch_check_agrees_on_a_crack_through_lattice_points():
    from fraclat.continuum import ContinuumDisplacement, CrackLine, build_u_cr_symmetric
    prob = problem_with(1.5, phi=0.0)
    eps = 1.0 / 16.0
    mesh = build_mesh(LatticeSpec(phi=0.0, eps=eps, l=1.0))
    # a straight crack and a two-segment graph crack, each through lattice points
    for u_cont in (build_u_cr(prob, p=0.25),
                   build_u_cr_symmetric(prob, [0.0, 0.5, 1.0], [0.5, 0.5, 0.5 + eps / 2.0])):
        assert crack_touches_reference(u_cont, mesh)
        assert solver._touches_crack(u_cont, mesh.points)
        shifted = u_cont.shifted(eps / 17.0)
        assert not crack_touches_reference(shifted, mesh)
        assert not solver._touches_crack(shifted, mesh.points)
        assert np.array_equal(recovery_sequence(u_cont, mesh).values,
                              shifted.eval(mesh.points))
    # a segment whose line, but not the segment itself, runs through a lattice point
    pt, d = mesh.points[mesh.n_points // 2], np.array([math.cos(1.0), math.sin(1.0)])
    seg = CrackLine(pt + 0.1 * d, pt + 0.3 * d, np.array([-d[1], d[0]]), np.zeros(2))
    u_cont = ContinuumDisplacement([], [seg], 1.0)
    assert u_cont.crack_point_distance(pt[None]).min() > 0.09
    assert not crack_touches_reference(u_cont, mesh)
    assert not solver._touches_crack(u_cont, mesh.points)


def test_sampling_equals_the_gather_scatter_oracle():
    prob = problem_with(1.5, l=2.0)
    configs = [build_u_el(prob)]
    configs += [build_u_cr(prob, float(p), s=0.1, t=-0.2) for p in cleaved_stations(prob, 9)]
    configs.append(build_u_cr(prob, float(cleaved_stations(prob, 1)[0])).shifted(1.0 / 272.0))
    rng = np.random.default_rng(3)
    point_sets = [build_mesh(LatticeSpec(phi=prob.phi, eps=1.0 / inv_eps, l=prob.l)).points
                  for inv_eps in (16, 32, 64, 128)]
    point_sets += [rng.uniform([0.0, 0.0], [prob.l, 1.0], size=(k, 2))
                   for k in (1, 7, 1000)]
    for u_cont in configs:
        for points in point_sets:
            got, want = u_cont.eval(points), oracles.continuum_eval(u_cont, points)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# minimization
# ----------------------------------------------------------------------

# sampled chi energies on the test-07 bar (l = 2, phi = 0.3), (crack, elastic)
# per (1/eps, load / a_crit): the values of the mesh that spanned the margins
# (-0.25, 0) and (l, l + 0.25) as well, which the specimen mesh keeps bit for bit
SAMPLED_ENERGIES = {
    (16, 0.5): (1.999996957410036, 0.5060886764622319),
    (16, 1.5): (2.0, 4.674289682269888),
    (32, 0.5): (2.031249999996703, 0.513464330912198),
    (32, 1.5): (2.03125, 4.766576838940337),
    (64, 0.5): (2.03125, 0.5166485833347628),
    (64, 1.5): (2.03125, 4.784122034456092),
}


@pytest.mark.parametrize("inv_eps", [16, 32, 64])
def test_sampled_energies_are_pinned(inv_eps, pot_unit, chi):
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / inv_eps, l=2.0))
    for mult in (0.5, 1.5):
        prob = problem_with(mult, l=2.0)
        p = float(cleaved_stations(prob, 1)[0])
        got = tuple(energy_rescaled(recovery_sequence(u, mesh), pot_unit, mode="chi",
                                    chi=chi).total
                    for u in (build_u_cr(prob, p), build_u_el(prob)))
        assert got == SAMPLED_ENERGIES[inv_eps, mult]


# the per-start records (tag, energy, iterations, evaluations) of acceptance
# test 07, eps = 1/64 on the same bar: the split across the 129-bond minimum
# cut costs eps * beta * 129 at both loads, the best of the nine straight
# cracks once sampled in its place
_CLEAVED_07 = ("cleaved(cut=129)", 2.015625, 0, 1)
ACCEPTANCE_07_STARTS = {
    0.5: [("zero", 2.203125, 0, 1), ("elastic", 0.5235183941052259, 7, 8), _CLEAVED_07],
    1.5: [("zero", 2.203125, 0, 1), ("elastic", 4.824329870947011, 9, 10), _CLEAVED_07],
}


def test_the_acceptance_07_starts_are_pinned(pot_unit, chi):
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 64.0, l=2.0))
    for mult, want in ACCEPTANCE_07_STARTS.items():
        prob = problem_with(mult, l=2.0)
        res = minimize(mesh, bc_cleavage(prob.a, prob.l), pot_unit,
                       SolveConfig(max_iters=300, mode="chi"), chi=chi, problem=prob)
        assert [(s.tag, s.energy, s.iters, s.evals) for s in res.starts] == want
        assert all(s.converged for s in res.starts)


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
    # every descent evaluation checks the pair identity, and the winner's
    # breakdown is its last one's: nothing evaluates it again
    assert len(checks) == sum(start.evals for start in res.starts)


def test_descent_trajectory_does_not_depend_on_the_workspace(mesh16, pot_unit, chi,
                                                            monkeypatch):
    from fraclat import solver
    from fraclat.discrete_energy import Assembly
    prob = problem_with(1.5)
    cfg = SolveConfig(max_iters=40, multistart=("zero", "elastic", "cleaved"))

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
        return real(Assembly(self.mesh, self.pot, self.mode, self.chi, self.model), x)

    monkeypatch.setattr(Assembly, "value_and_grad", on_fresh_assembly)
    fresh, fresh_finals = run()
    assert [s.tag for s in reused.starts][:2] == ["zero", "elastic"]
    assert reused.starts[-1].tag == f"cleaved(cut={mesh16.min_cut.count})"
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


def test_descent_through_reflected_triangles_does_not_depend_on_the_block(pot_unit, chi,
                                                                          monkeypatch):
    # a start with many det F < 0 triangles, so that the penalty's triangle
    # terms join the bond scatter in the gradients of the first steps
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 16.0, l=2.0))
    prob = problem_with(1.5, l=2.0)
    bc = bc_cleavage(prob.a, prob.l)
    rng = np.random.default_rng(38)
    u0 = Displacement(mesh, 0.4 * rng.standard_normal((mesh.n_points, 2)))
    F = interpolate_gradients(discrete_energy.apply_bc(u0, bc))[1]
    assert np.count_nonzero(np.linalg.det(F) < 0.0) >= 100
    cfg = SolveConfig(max_iters=8, mode="chi")

    def descend():
        asm = Assembly(mesh, pot_unit, "chi", chi)
        return solver._descend(asm, StiffnessMultigrid(mesh, pot_unit.alpha, *bc.masks(mesh)),
                               "reflected", u0, bc, cfg)

    x, rec = descend()
    monkeypatch.setattr(discrete_energy, "BLOCK", 7)
    x7, rec7 = descend()
    assert np.array_equal(x, x7)
    assert (rec.energy, rec.history, rec.iters, rec.evals, rec.backtracks, rec.grad_norm,
            rec.final_step) == (rec7.energy, rec7.history, rec7.iters, rec7.evals,
                                rec7.backtracks, rec7.grad_norm, rec7.final_step)
    assert rec.iters > 0
    assert all(b <= a for a, b in zip(rec.history, rec.history[1:]))


def test_stalled_start_is_not_converged(mesh16, pot_unit, chi):
    # below a_crit the elastic start reaches the rounding floor of the
    # energy at |g| ~ 5e-9: its last steps drop it by less than STALL_TOL
    from fraclat import solver
    prob = problem_with(0.5)
    cfg = SolveConfig(max_iters=400, grad_tol=1e-10, multistart=("elastic",))
    res = minimize(mesh16, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi,
                   problem=prob)
    start = res.starts[0]
    tail = start.history[-solver.STALL_ITERS - 1:]
    assert all(a - b <= solver.STALL_TOL * (1.0 + abs(b)) for a, b in zip(tail, tail[1:]))
    assert start.iters < cfg.max_iters and start.grad_norm > cfg.grad_tol
    assert not start.converged and not res.best.converged


@pytest.mark.parametrize("mode", ["plain", "chi", "f"])
def test_each_start_reports_the_breakdown_of_its_final_iterate(mesh16, pot_unit, chi,
                                                              magmodel, mode, monkeypatch):
    finals, descend = [], solver._descend

    def recording(asm, *args):
        x, rec = descend(asm, *args)
        finals.append((asm, x, rec))
        return x, rec

    monkeypatch.setattr(solver, "_descend", recording)
    prob = problem_with(1.5)
    cfg = SolveConfig(max_iters=40, multistart=("zero", "elastic", "cleaved"), mode=mode)
    res = minimize(mesh16, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi,
                   model=magmodel, problem=prob)
    assert [rec for _, _, rec in finals] == res.starts
    for asm, x, rec in finals:
        assert rec.energy == asm.breakdown(x).total
    energies = [rec.energy for rec in res.starts]
    k = energies.index(min(energies))
    asm, x, rec = finals[k]
    assert res.best is rec and np.array_equal(res.u.values, x)
    assert res.breakdown == asm.breakdown(x)


def test_the_first_of_tied_starts_wins(mesh16, pot_unit, chi):
    prob = problem_with(1.5)
    cfg = SolveConfig(max_iters=40, multistart=("elastic", "elastic"))
    res = minimize(mesh16, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi,
                   problem=prob)
    first, second = res.starts
    assert first.energy == second.energy and first is not second
    assert res.best is first


def test_mode_f_minimize_reports_the_sharp_cutoff(mesh16, pot_unit, chi, magmodel):
    # the descent differentiates the smoothed field; the report uses the sharp one
    prob = problem_with(1.5)
    cfg = SolveConfig(max_iters=40, multistart=("zero", "elastic"), mode="f")
    res = minimize(mesh16, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi,
                   model=magmodel, problem=prob)
    sharp = energy_rescaled(res.u, pot_unit, mode="f", chi=chi, model=magmodel)
    assert res.breakdown == sharp and res.best.energy == sharp.total
    # the elastic start ends with triangles inside the smoothing band
    elastic = res.starts[1]
    assert elastic.tag == "elastic" and elastic.energy != elastic.history[-1]


def test_minimize_never_worse_than_cleaved_inits(mesh16, pot_unit, chi):
    prob = problem_with(1.5)
    cfg = SolveConfig(max_iters=60, multistart=("cleaved",))
    res = minimize(mesh16, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi,
                   problem=prob)
    # the initial energies of the sampled straight cracks are upper bounds
    # for the split across the minimum cut
    for p in cleaved_stations(prob, 9):
        u0 = recovery_sequence(build_u_cr(prob, float(p)), mesh16)
        from fraclat.discrete_energy import apply_bc
        u0 = apply_bc(u0, bc_cleavage(prob.a, prob.l))
        e0 = energy_rescaled(u0, pot_unit, mode="chi", chi=chi).total
        assert res.breakdown.total <= e0 + 1e-12


@pytest.mark.parametrize("mult,expect_crack", [(0.5, False), (1.5, True)])
def test_minimize_selects_branch(mult, expect_crack, pot_unit, chi):
    prob = problem_with(mult)
    mesh = build_mesh(LatticeSpec(phi=prob.phi, eps=1.0 / 16.0, l=prob.l))
    cfg = SolveConfig(max_iters=150)
    res = minimize(mesh, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi,
                   problem=prob)
    el, cr = elastic_branch_energy(prob), crack_branch_energy(prob)
    target = min(el, cr)
    assert res.breakdown.total == pytest.approx(target, rel=0.15)
    from fraclat.crack_extraction import classify_broken
    n_broken = classify_broken(res.u).count
    assert (n_broken > 0) == expect_crack


@pytest.mark.parametrize("multistart", [("nonsense",), ("perturbed",),
                                        ("zero", "elastic", "nonsense")])
def test_unknown_start_tag_is_rejected_by_the_config(multistart):
    # a config that names an unknown start cannot be made, so no mesh is
    # built and no descent runs for it
    with pytest.raises(SolverError, match=f"unknown initializer tag '{multistart[-1]}'"):
        SolveConfig(multistart=multistart)


@pytest.mark.parametrize("mode", ["total-magnetic", "bogus", ""])
def test_solve_config_rejects_unknown_mode(mode):
    with pytest.raises(SolverError, match=f"unknown mode '{mode}'; expected one of plain, chi, f"):
        SolveConfig(mode=mode)


def test_solve_config_accepts_every_energy_mode():
    assert [SolveConfig(mode=mode).mode for mode in discrete_energy.MODES] == ["plain", "chi", "f"]


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


def test_empty_multistart_has_no_starting_point():
    # minimize once found this out only after building the assembly and the multigrid
    with pytest.raises(SolverError, match="no starting point"):
        SolveConfig(multistart=())


@pytest.mark.parametrize("field, value", [
    ("max_iters", -3), ("grad_tol", -1e-6), ("grad_tol", math.nan), ("grad_tol", math.inf),
    ("max_iters", 2.5), ("max_iters", True)])
def test_solve_config_rejects_bad_values(field, value):
    # each was once accepted: max_iters = -3 reported every start with
    # iters = -3 and grad_tol = nan ran every start unconverged to
    # max_iters; max_iters = 2.5 died in the first descent, and True
    # reported iters = True
    if field != "grad_tol" and type(value) is not int:
        message = f"{field} must be an int, got {value!r}"
    else:
        message = f"{field} must be finite and >= 0, got {value}"
    with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
        SolveConfig(**{field: value})


def test_solve_config_accepts_zero_iterations():
    cfg = SolveConfig(max_iters=0, grad_tol=0.0)
    assert (cfg.max_iters, cfg.grad_tol) == (0, 0.0)


def counting_cuts(monkeypatch) -> list:
    """The meshes whose minimum cut is computed from now on, one entry per computation."""
    cuts, real = [], lattice._grip_min_cut
    monkeypatch.setattr(lattice, "_grip_min_cut", lambda mesh: cuts.append(mesh) or real(mesh))
    return cuts


def test_starts_are_built_one_at_a_time(pot_unit, chi, monkeypatch):
    seen, descend = [], solver._descend
    cuts = counting_cuts(monkeypatch)

    def recording(asm, precond, tag, *rest):
        seen.append((tag, len(cuts)))
        return descend(asm, precond, tag, *rest)

    monkeypatch.setattr(solver, "_descend", recording)
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 16.0, l=1.0))
    prob = problem_with(1.5)
    cfg = SolveConfig(max_iters=5, multistart=("zero", "cleaved", "elastic"))
    minimize(mesh, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi, problem=prob)
    assert seen == [("zero", 0), ("cleaved(cut=31)", 1), ("elastic", 1)]


def test_two_minimizations_of_one_mesh_build_its_cut_once(pot_unit, chi, monkeypatch):
    cuts = counting_cuts(monkeypatch)
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 16.0, l=2.0))
    cfg = SolveConfig(max_iters=5, multistart=("cleaved",))
    for mult in (0.5, 1.5):
        prob = problem_with(mult, l=2.0)
        minimize(mesh, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi, problem=prob)
    assert cuts == [mesh]


@pytest.mark.parametrize("inv_eps,count", [(16, 31), (32, 64), (64, 129)])
def test_min_cut_equals_the_best_sampled_straight_crack(inv_eps, count):
    # the sampled straight cracks of test 07's bar, counted by the bonds
    # their rigid split opens; none is cheaper than the cut, and the best
    # is as cheap
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / inv_eps, l=2.0))
    prob = problem_with(1.5, l=2.0)
    a, b = mesh.edges.T
    crossed = []
    for p in cleaved_stations(prob, 9):
        right = recovery_sequence(build_u_cr(prob, float(p)), mesh).values[:, 0] > 0.0
        crossed.append(int(np.count_nonzero(right[a] != right[b])))
    assert mesh.min_cut.count == min(crossed) == count


@pytest.mark.parametrize("inv_eps", [32, 64])
def test_the_cut_start_is_a_critical_point_above_a_crit(inv_eps, pot_unit, chi):
    # every cut bond opens far into exp-well's flat tail, so the split costs
    # eps * beta per bond and no descent step
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / inv_eps, l=2.0))
    prob = problem_with(1.5, l=2.0)
    res = minimize(mesh, bc_cleavage(prob.a, prob.l), pot_unit,
                   SolveConfig(multistart=("cleaved",)), chi=chi, problem=prob)
    n = mesh.min_cut.count
    rec, = res.starts
    assert (rec.tag, rec.energy, rec.iters, rec.evals) \
        == (f"cleaved(cut={n})", mesh.spec.eps * pot_unit.beta * n, 0, 1)
    assert rec.converged
    assert np.array_equal(res.u.values[:, 0] != 0.0, mesh.min_cut.right)


# ----------------------------------------------------------------------
# rest-stiffness preconditioner
# ----------------------------------------------------------------------

@pytest.mark.parametrize("pot", [PairPotential(), PairPotential.shifted_lj()],
                         ids=lambda pot: pot.family)
def test_stiffness_is_the_rest_hessian(pot):
    # K v against a central difference of the plain gradient about the rest state
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 8.0, l=1.0))
    asm = Assembly(mesh, pot, mode="plain")
    none = np.zeros(mesh.n_points, dtype=bool)
    v = np.random.default_rng(8).standard_normal((mesh.n_points, 2))
    Kv = StiffnessMultigrid(mesh, pot.alpha, none, none).stiffness(v)
    h = 1e-5
    fd = (asm.value_and_grad(h * v)[1] - asm.value_and_grad(-h * v)[1]) / (2.0 * h)
    assert np.abs(fd - Kv).max() <= 1e-6 * np.abs(Kv).max()


@pytest.fixture(scope="module")
def multigrid_bar():
    # the test-07 bar at eps = 1/32: two stencil levels and the dense one below the mesh
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 32.0, l=2.0))
    mask_x, mask_y = bc_cleavage(0.5, 2.0).masks(mesh)
    return mesh, mask_x, StiffnessMultigrid(mesh, PairPotential().alpha, mask_x, mask_y)


def test_preconditioner_is_symmetric_positive_and_zero_when_pinned(multigrid_bar):
    mesh, mask_x, M = multigrid_bar
    rng = np.random.default_rng(16)
    u, w = rng.standard_normal((2, mesh.n_points, 2))
    Mu, Mw = M(u), M(w)
    assert abs(np.vdot(u, Mw) - np.vdot(w, Mu)) <= 1e-12 * abs(np.vdot(u, Mw))
    for v in rng.standard_normal((10, mesh.n_points, 2)):
        assert np.vdot(v, M(v)) > 0.0
    assert mask_x.any() and np.all(Mu[mask_x, 0] == 0.0)
    # every free component is an unknown of M, which is right because a
    # specimen mesh has no point without a bond (test_lattice's
    # test_every_point_lies_in_omega_with_a_bond and
    # test_no_coarse_mesh_has_a_point_without_a_bond)
    bonded = np.zeros(mesh.n_points, dtype=bool)
    bonded[mesh.edges.ravel()] = True
    assert bonded.all()
    assert np.any(Mu[~mask_x, 1] != 0.0)


def test_coarse_stencils_are_the_galerkin_products(multigrid_bar):
    # the 7-colour probing reads off P^T A P exactly
    *_, M = multigrid_bar
    assert len(M._levels) == 3
    rng = np.random.default_rng(7)
    for (level, _, transfer), (coarse, _, _) in zip(M._levels, M._levels[1:]):
        xc = rng.standard_normal((coarse.n, 2))
        galerkin = transfer.restrict(level.apply(transfer.prolong(xc)))
        assert np.abs(coarse.apply(xc) - galerkin).max() <= 1e-12 * np.abs(galerkin).max()


# l = 2 bars on and off the lattice axes; at phi = 0.1, 0.3 and 0.5 some fine
# point has both coarse parents outside the mesh on some level
ROTATED_BARS = [(phi, inv_eps) for phi in (0.0, 0.1, 0.3, 0.5) for inv_eps in (16, 32, 64)]


def rotated_bar_multigrid(phi, inv_eps, bc, l=2.0):
    mesh = build_mesh(LatticeSpec(phi=phi, eps=1.0 / inv_eps, l=l))
    return StiffnessMultigrid(mesh, PairPotential().alpha, *bc.masks(mesh))


@pytest.mark.parametrize("phi, inv_eps", ROTATED_BARS)
def test_interpolation_keeps_the_constants(phi, inv_eps):
    # u2 is free everywhere under bc_cleavage, so P must carry the vertical
    # translation from every coarse level to the level above it
    M = rotated_bar_multigrid(phi, inv_eps, bc_cleavage(0.5, 2.0))
    for _, _, transfer in M._levels:
        fine = transfer.prolong(np.ones((transfer.n_coarse, 2)))
        assert np.all(fine[:, 1] == 1.0)


@pytest.mark.parametrize("bc", [bc_cleavage(0.5, 2.0), bc_zero()], ids=["cleavage", "zero"])
@pytest.mark.parametrize("l, phi, inv_eps",
                         [(2.0, phi, inv_eps) for phi, inv_eps in ROTATED_BARS]
                         + [(1.0, 1.04, 32), (3.0, 1.04, 32)])
def test_coarse_stencils_stay_galerkin_products_on_rotated_bars(l, phi, inv_eps, bc):
    # an orphan's parent whose coupling fell outside the 7-point stencil would
    # alias under the 14 probes; the two bars near phi = pi/3 have orphans on
    # other shapes than the l = 2 ones
    M = rotated_bar_multigrid(phi, inv_eps, bc, l)
    assert len(M._levels) >= 2
    rng = np.random.default_rng(inv_eps)
    for (upper, _, transfer), (level, _, _) in zip(M._levels, M._levels[1:]):
        x = rng.standard_normal((level.n, 2))
        galerkin = transfer.restrict(upper.apply(transfer.prolong(x)))
        assert np.abs(level.apply(x) - galerkin).max() <= 1e-14 * np.abs(galerkin).max()


@pytest.mark.parametrize("n", [1, 2, 5, 20])
def test_sturm_bisection_bounds_the_largest_eigenvalue(n):
    rng = np.random.default_rng(n)
    diagonal, off = rng.standard_normal(n), rng.standard_normal(n - 1)
    exact = np.linalg.eigvalsh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))[-1]
    got = multigrid._largest_eigenvalue(list(diagonal), list(off))
    assert exact <= got <= exact + 1e-14 * (1.0 + abs(exact))


def positive_definite(S):
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return True


@pytest.mark.parametrize("bc", [bc_cleavage(0.5, 1.0), bc_zero()], ids=["cleavage", "zero"])
@pytest.mark.parametrize("phi", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("inv_eps", [16, 32])
def test_the_smoothing_window_covers_the_spectrum(inv_eps, phi, bc):
    # the smoother's |p| < 1 is kept only on (0, hi], so M is SPD while every
    # level's hi is at least lambda_max(D^-1 A).  On the free components hi D - A is
    # positive definite just when hi > lambda_max, which a dense Cholesky
    # factorization decides in a fifth of an eigensolve's time.  The
    # Lanczos estimate hi / SAFETY falls short of lambda_max by at most 1 %
    # on these bars (dense eigensolves: 0.990 at 1/32, phi = 0, bc_zero)
    M = rotated_bar_multigrid(phi, inv_eps, bc, l=1.0)
    for level, smoother, _ in M._levels:
        free = np.flatnonzero(smoother.c.ravel())
        A = np.empty((len(free), len(free)))
        for row, j in zip(A, free):
            unit = np.zeros(2 * level.n)
            unit[j] = 1.0
            row[:] = level.apply(unit.reshape(-1, 2)).ravel()[free]
        A *= -1.0
        A[np.diag_indices_from(A)] += smoother.hi * level.diag.ravel()[free]
        assert positive_definite(A)


def test_the_cycle_contracts_on_the_rotated_bar():
    # test 07's bar at 1/64, which has an orphan on each of its top two
    # levels; its last five of 30 cycles contract by 0.55 at most, by 0.65
    # with damped Jacobi smoothing and by 0.92 with an interpolation that
    # drops the constants there
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 64.0, l=2.0))
    mask_x, mask_y = bc_cleavage(0.5, 2.0).masks(mesh)
    M = StiffnessMultigrid(mesh, PairPotential().alpha, mask_x, mask_y)
    free = np.column_stack([~mask_x, ~mask_y])
    e = np.random.default_rng(64).standard_normal((mesh.n_points, 2)) * free
    norms = []
    for _ in range(30):
        e -= M(M.stiffness(e) * free)
        e[:, 1] -= e[:, 1].mean()
        norms.append(math.sqrt(np.vdot(e, M.stiffness(e))))
    rates = np.divide(norms[1:], norms[:-1])
    assert np.all(rates[-5:] <= 0.6)


def test_one_preconditioner_per_mesh_alpha_and_pinned_components(pot_unit, chi,
                                                                monkeypatch):
    builds = [0]
    init = StiffnessMultigrid.__init__

    def counting(self, *args):
        builds[0] += 1
        init(self, *args)

    monkeypatch.setattr(StiffnessMultigrid, "__init__", counting)
    # a mesh of its own, so that no other test has filled its memo entry
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 8.0, l=1.0))
    cfg = SolveConfig(max_iters=3, multistart=("zero", "elastic"))
    for mult in (0.5, 1.5):  # another load, the same K
        prob = problem_with(mult)
        minimize(mesh, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi, problem=prob)
    minimize(mesh, bc_cleavage(prob.a, prob.l), PairPotential(alpha=1.0, beta=2.0), cfg,
             chi=chi, problem=prob)  # another beta, the same K
    assert builds[0] == 1
    lj = PairPotential.shifted_lj()
    assert lj.alpha != pot_unit.alpha
    minimize(mesh, bc_cleavage(prob.a, prob.l), lj, cfg, chi=chi, problem=prob)
    assert builds[0] == 2
    # an affine load pins both components of the clamped layers
    minimize(mesh, bc_affine(np.diag([0.1, -0.05])), pot_unit, cfg, chi=chi, problem=prob)
    assert builds[0] == 3
    # one operator is kept, so the first key is built again
    mask_x, mask_y = bc_cleavage(prob.a, prob.l).masks(mesh)
    M = rest_preconditioner(mesh, pot_unit.alpha, mask_x, mask_y)
    assert builds[0] == 4
    assert rest_preconditioner(mesh, pot_unit.alpha, mask_x.copy(), mask_y.copy()) is M
    assert builds[0] == 4


def test_a_kept_result_does_not_keep_its_preconditioner(pot_unit, chi):
    # the result holds its mesh, yet the next mesh's build frees the operator
    prob = problem_with(1.5)
    bc = bc_cleavage(prob.a, prob.l)
    cfg = SolveConfig(max_iters=3, multistart=("zero",))
    results, kept = [], []
    for eps in (1.0 / 8.0, 1.0 / 16.0):
        mesh = build_mesh(LatticeSpec(phi=0.3, eps=eps, l=1.0))
        results.append(minimize(mesh, bc, pot_unit, cfg, chi=chi, problem=prob))
        kept.append(weakref.ref(rest_preconditioner(mesh, pot_unit.alpha, *bc.masks(mesh))))
    gc.collect()
    assert kept[0]() is None and kept[1]() is not None
    assert list(multigrid._KEPT) == [results[1].u.mesh]


def test_kept_preconditioner_goes_with_its_mesh(pot_unit, chi):
    # the operator holds no reference to the mesh, so the memo's weak key dies
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 8.0, l=1.0))
    prob = problem_with(1.5)
    bc = bc_cleavage(prob.a, prob.l)
    res = minimize(mesh, bc, pot_unit, SolveConfig(max_iters=3, multistart=("zero",)),
                   chi=chi, problem=prob)
    kept = weakref.ref(rest_preconditioner(mesh, pot_unit.alpha, *bc.masks(mesh)))
    assert kept() is not None and list(multigrid._KEPT) == [mesh]
    del mesh, res
    gc.collect()
    assert kept() is None
    assert len(multigrid._KEPT) == 0


def test_kept_preconditioner_gives_the_answers_of_a_new_one(pot_unit, chi, monkeypatch):
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 16.0, l=2.0))
    prob = problem_with(1.5, l=2.0)
    bc = bc_cleavage(prob.a, prob.l)
    cfg = SolveConfig(max_iters=60)

    def run():
        res = minimize(mesh, bc, pot_unit, cfg, chi=chi, problem=prob)
        records = [dataclasses.replace(start, wall_s=0.0) for start in res.starts]
        return records, res.u.values.tobytes(), res.breakdown

    first = run()  # builds the mesh's operator
    kept = run()   # takes it from the memo
    monkeypatch.setattr(solver, "rest_preconditioner", StiffnessMultigrid)
    fresh = run()
    assert sum(start.iters for start in fresh[0]) > 0
    assert first == kept == fresh


def test_critical_load_approaches_a_crit_on_one_preconditioner_per_rung(chi, monkeypatch):
    builds = [0]
    init = StiffnessMultigrid.__init__

    def counting(self, *args):
        builds[0] += 1
        init(self, *args)

    monkeypatch.setattr(StiffnessMultigrid, "__init__", counting)
    prob = problem_with(0.0, l=2.0)
    out = critical_load_study(prob, [1.0 / 16.0, 1.0 / 32.0], chi=chi)
    rows = out["rows"]
    ratios = [row.a_crit_eps / row.a_crit for row in rows]
    assert 0.5 < ratios[0] < ratios[1] < 1.0
    assert ratios == pytest.approx([0.9438, 0.9653], abs=1e-3)
    # the elastic gap at 0.5 a_crit shrinks; the crack branch is below its limit
    assert 0.0 < rows[1].elastic_gap < rows[0].elastic_gap
    assert rows[0].crack_gap < rows[1].crack_gap < 0.0
    assert all(row.converged and row.minimizations == 13 for row in rows)
    # thirteen minimizations on each rung's mesh build its operator once
    assert builds[0] == len(rows)
    assert out["slope_a_crit"] > 0.0 and out["slope_elastic_gap"] > 0.0


def test_critical_load_bracket_must_straddle_the_crossing(chi, monkeypatch):
    # a_crit^eps is 0.944 a_crit at 1/16, below this bracket
    monkeypatch.setattr(solver, "CRITICAL_BRACKET", (1.2, 1.5))
    with pytest.raises(SolverError, match="does not cross the crack branch"):
        critical_load_study(problem_with(0.0, l=2.0), [1.0 / 16.0, 1.0 / 32.0], chi=chi)


@pytest.mark.parametrize("ladder", [[1.0 / 16.0], [1.0 / 16.0, 1.0 / 16.0],
                                    [1.0 / 32.0, 1.0 / 16.0]])
def test_critical_load_ladder_is_checked_before_any_mesh(ladder, monkeypatch):
    monkeypatch.setattr(solver, "_mesh_for", lambda *args: pytest.fail("mesh built"))
    with pytest.raises(SolverError, match="two or more strictly decreasing"):
        critical_load_study(problem_with(0.0, l=2.0), ladder)


@pytest.mark.parametrize("build", [StiffnessMultigrid, rest_preconditioner],
                         ids=["constructor", "memo"])
def test_masks_must_be_bool_with_one_entry_per_point(build, multigrid_bar):
    # an int 0/1 mask would read ~1 = -2 and ~0 = -1, both true, as free
    mesh, mask_x, _ = multigrid_bar
    none = np.zeros(mesh.n_points, dtype=bool)
    with pytest.raises(ValueError, match="mask_x must be a bool array"):
        build(mesh, 1.0, mask_x.astype(np.int64), none)
    with pytest.raises(ValueError, match=r"mask_y must be a bool array of shape \(\d+,\)"):
        build(mesh, 1.0, mask_x, none[1:])
    assert mesh not in multigrid._KEPT


@pytest.mark.parametrize("eps", [1.0 / 16.0, 1.0 / 32.0], ids=["1/16", "1/32"])
@pytest.mark.parametrize("mult", [0.5, 1.5])
def test_elastic_start_converges_in_few_iterations(eps, mult, pot_unit, chi):
    prob = problem_with(mult, l=2.0)
    mesh = build_mesh(LatticeSpec(phi=prob.phi, eps=eps, l=prob.l))
    cfg = SolveConfig(max_iters=300, multistart=("elastic",))
    res = minimize(mesh, bc_cleavage(prob.a, prob.l), pot_unit, cfg, chi=chi, problem=prob)
    start = res.starts[0]
    assert start.converged and start.grad_norm <= cfg.grad_tol
    assert start.iters <= 30


# ----------------------------------------------------------------------
# study drivers
# ----------------------------------------------------------------------

def test_convergence_study_rows(chi):
    prob = problem_with(1.5)
    rows = convergence_study(prob, [1.0 / 16.0, 1.0 / 32.0], chi=chi, with_minimize=False)
    assert len(rows) == 4
    kinds = {r.mode for r in rows}
    assert kinds == {"chi/recovery-crack", "chi/recovery-elastic"}
    crack_rows = [r for r in rows if r.mode.endswith("crack")]
    assert abs(crack_rows[1].gap) <= abs(crack_rows[0].gap)
    for r in crack_rows:
        assert r.n_broken > 0
        assert r.crack_angle_deg < 1.0


@pytest.mark.parametrize("mode", ["chi", "f"])
def test_convergence_study_rows_are_the_per_sample_evaluations(pot_unit, chi, magmodel,
                                                               monkeypatch, mode):
    prob = problem_with(1.5)
    ladder = [1.0 / 16.0, 1.0 / 32.0]
    p = float(cleaved_stations(prob, 1)[0])
    expected = []
    for eps in ladder:
        mesh = build_mesh(LatticeSpec(phi=prob.phi, eps=eps, l=prob.l))
        u_cr = recovery_sequence(build_u_cr(prob, p), mesh)
        u_el = recovery_sequence(build_u_el(prob), mesh)
        n, est, ang = _crack_summary(u_cr, prob.beta)
        expected += [
            ConvergenceRow(eps, f"{mode}/recovery-crack", energy_rescaled(
                u_cr, pot_unit, mode, chi, magmodel).total,
                crack_branch_energy(prob), n, est, ang).row(),
            ConvergenceRow(eps, f"{mode}/recovery-elastic", energy_rescaled(
                u_el, pot_unit, mode, chi, magmodel).total,
                elastic_branch_energy(prob)).row()]

    # one assembly per rung; no assembly lives while a sample is built or
    # through the crack classification, and no crack set (all-triangle
    # arrays) through an energy evaluation
    assemblies, cracks = weakref.WeakSet(), []  # a CrackSet is not hashable
    inits = []
    init, build = Assembly.__init__, solver.build_modified
    sample = solver.recovery_sequence

    def tracked_init(self, *args, **kwargs):
        assert all(ref() is None for ref in cracks)
        assemblies.add(self)
        inits.append(args[0].spec.eps)
        init(self, *args, **kwargs)

    def tracked_sample(u_cont, mesh):
        assert len(assemblies) == 0
        return sample(u_cont, mesh)

    def tracked_build(*args):
        crack = build(*args)
        cracks.append(weakref.ref(crack))
        return crack

    def summary(u, beta):
        assert len(assemblies) == 0
        return _crack_summary(u, beta)

    monkeypatch.setattr(Assembly, "__init__", tracked_init)
    monkeypatch.setattr(solver, "build_modified", tracked_build)
    monkeypatch.setattr(solver, "_crack_summary", summary)
    monkeypatch.setattr(solver, "recovery_sequence", tracked_sample)
    rows = convergence_study(prob, ladder, config=SolveConfig(mode=mode),
                             chi=chi, model=magmodel, with_minimize=False)
    assert inits == ladder
    # repr keeps every bit and makes nan equal to nan
    assert [list(map(repr, r.row())) for r in rows] == [list(map(repr, r)) for r in expected]
    assert any(r[5] > 0 for r in expected)


def test_one_rung_fits_its_memory_budget(chi):
    # one 1/128 rung without minimize on the l = 2 bar: the int32 topology
    # and the blocked classification took its tracemalloc peak from 18.4 MB
    # to 13.3 MB, the mesh on the specimen alone to 10.0 MB, and an
    # assembly that reads the mesh's bond weights and signs in place to
    # 8.4 MB; the peak is the breakdown's
    import tracemalloc
    prob = problem_with(1.5, l=2.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        convergence_study(prob, [1.0 / 128.0], chi=chi, with_minimize=False)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 9e6


def test_gap_ladder_guard():
    from fraclat.solver import check_gap_ladder
    # shrinking gaps pass
    check_gap_ladder([0.2, 0.1, 0.05], [1 / 16, 1 / 32, 1 / 64], beta=1.0)
    # a rebound within one energy quantum passes
    check_gap_ladder([0.2, 0.001, 0.015], [1 / 16, 1 / 32, 1 / 64], beta=1.0)
    # growth beyond slack plus quantum is flagged
    with pytest.raises(SolverError):
        check_gap_ladder([0.1, 0.25], [1 / 16, 1 / 32], beta=1.0)


def test_convergence_study_requires_decreasing_ladder(chi):
    prob = problem_with(1.5)
    with pytest.raises(SolverError):
        convergence_study(prob, [1.0 / 32.0, 1.0 / 16.0], chi=chi, with_minimize=False)


def test_fit_loglog_slope_exact_powerlaw():
    eps = np.array([1.0 / 4.0, 1.0 / 8.0, 1.0 / 16.0])
    vals = 3.0 * eps ** -0.5
    assert fit_loglog_slope(eps, vals) == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize("eps", [[], [0.125], [0.125, 0.125]])
def test_fit_loglog_slope_needs_two_distinct_eps(eps, pot_unit):
    # one rung once gave a slope of -0.3828 from a rank-deficient polyfit
    with pytest.raises(SolverError, match="two distinct eps values"):
        fit_loglog_slope(eps, [1.0] * len(eps))
    if eps:
        with pytest.raises(SolverError, match="two distinct eps values"):
            nonequicoercivity_demo(eps, theta=1.2, p=0.125, q=0.875, pot=pot_unit)


@pytest.mark.parametrize("values", [[1.0, 0.0], [1.0, math.nan]], ids=["zero", "nan"])
def test_fit_loglog_slope_needs_finite_positive_quantities(values):
    with pytest.raises(SolverError, match="finite positive values"):
        fit_loglog_slope([0.125, 0.0625], values)


@pytest.mark.parametrize("theta", [0.0, 2.0 * math.pi, -2.0 * math.pi, 4.0 * math.pi],
                         ids=["0", "2pi", "-2pi", "4pi"])
def test_nonequicoercivity_refuses_a_zero_rotation(pot_unit, theta, monkeypatch):
    # theta = 0 leaves every piece in place, so the gradient mass is 0; a whole
    # turn once wrote masses of about 3e-15 and a slope of -0.963, all rounding
    def no_mesh(*args):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(solver, "_mesh_for", no_mesh)
    with pytest.raises(SolverError, match="whole number of turns"):
        nonequicoercivity_demo([1.0 / 8.0, 1.0 / 16.0], theta=theta, p=0.125, q=0.875,
                               pot=pot_unit)


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


def test_nonequicoercivity_rows_are_the_gradient_masses(pot_unit, monkeypatch):
    calls, interpolate = [], discrete_energy.interpolate_gradients
    for module in (discrete_energy, solver):
        monkeypatch.setattr(module, "interpolate_gradients",
                            lambda u: calls.append(u) or interpolate(u))
    ladder, theta, p, q = [1.0 / 16.0, 1.0 / 32.0], 1.2, 0.125, 0.875
    res = nonequicoercivity_demo(ladder, theta=theta, p=p, q=q, pot=pot_unit)
    assert len(calls) == len(ladder)  # one interpolation per rung
    for eps, row in zip(ladder, res["rows"]):
        mesh = build_mesh(LatticeSpec(phi=0.0, eps=eps, l=1.0))
        u = three_piece_rotation(mesh, theta, p, q)
        grad_u, _ = interpolate(u)
        x1 = mesh.points[mesh.triangles][:, :, 0]
        band = (x1 >= p).all(axis=1) & (x1 <= q).all(axis=1)
        # np.linalg.norm sums a stack's squares in its memory order, and the
        # package's norms sum them row by row, as it does on a contiguous stack
        masses = [float(mesh.triangle_area
                        * np.linalg.norm(np.ascontiguousarray(grad_u[m]), axis=(1, 2)).sum())
                  for m in (slice(None), band)]
        assert row == (eps, energy_rescaled(u, pot_unit).total, *masses)


def test_nonequicoercivity_validates_cuts(pot_unit):
    with pytest.raises(SolverError):
        nonequicoercivity_demo([1.0 / 16.0], theta=1.0, p=0.7, q=0.3, pot=pot_unit)


def test_magnet_demo_checks(chi, magmodel):
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.3, a=0.4)
    res = magnet_demo(prob, magmodel, [1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0],
                      chi=chi, n_random=5, seed=0, band_angle=0.4)
    assert max(res["identity_gaps"]) <= 1e-12
    el = res["elastic_rows"]
    assert abs(el[-1].gap) < abs(el[0].gap)
    band = res["band_rows"]
    rels = [abs(b.energy - b.target) / b.target for b in band]
    assert rels[-1] < 0.10
    assert rels[0] > rels[-1]


def test_magnet_demo_rows_are_the_per_mode_energies(pot_unit, chi, magmodel, monkeypatch):
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.3, a=0.4)
    ladder, angle = [1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0], 0.4
    built, init = [], Assembly.__init__
    monkeypatch.setattr(Assembly, "__init__",
                        lambda self, *a, **k: init(self, *a, **k) or built.append(self.mode))
    res = magnet_demo(prob, magmodel, ladder, chi=chi, n_random=0, seed=0,
                      band_angle=angle)
    assert built == ["f"] * len(ladder)  # one mode-f assembly per rung
    monkeypatch.undo()
    for eps, el, band in zip(ladder, res["elastic_rows"], res["band_rows"]):
        mesh = build_mesh(LatticeSpec(phi=prob.phi, eps=eps, l=prob.l))
        u_el = recovery_sequence(build_u_el(prob), mesh)
        assert el.energy == energy_rescaled(u_el, pot_unit, "f", chi, magmodel).total
        u = rotated_band_displacement(mesh, angle, 0.3 * prob.l, 0.7 * prob.l)
        f = energy_rescaled(u, pot_unit, "f", chi, magmodel).total
        e = energy_rescaled(u, pot_unit, "chi", chi).total
        assert band.energy == f - e


def test_magnet_demo_builds_one_mesh_per_rung(chi, magmodel, monkeypatch):
    # the identity checks run on the first rung's mesh, not on a second copy
    prob = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.3, a=0.4)
    ladder, built = [1.0 / 8.0, 1.0 / 16.0], []
    monkeypatch.setattr(solver, "build_mesh", lambda spec: built.append(spec) or build_mesh(spec))
    res = magnet_demo(prob, magmodel, ladder, chi=chi, n_random=2, seed=0, band_angle=0.4)
    assert [spec.eps for spec in built] == ladder
    assert len(res["identity_gaps"]) == 2


@pytest.mark.parametrize("study", [
    lambda prob, family: convergence_study(prob, [1.0 / 16.0], family=family),
    lambda prob, family: critical_load_study(prob, [1.0 / 16.0, 1.0 / 32.0], family=family),
    lambda prob, family: magnet_demo(prob, MagnetizationModel(), [1.0 / 16.0], family=family,
                                     n_random=1, seed=0, band_angle=0.4)],
    ids=["convergence", "critical", "magnet"])
def test_a_study_takes_alpha_and_beta_from_its_problem(study, monkeypatch):
    # shifted-lj forces alpha = 72 beta; a study once ran it next to an
    # alpha = 1 problem and compared its energies with that problem's limit
    monkeypatch.setattr(solver, "_mesh_for", lambda *args: pytest.fail("mesh built"))
    with pytest.raises(MaterialError, match="alpha = 72 beta"):
        study(problem_with(1.5, l=2.0), "shifted-lj")


def test_rotated_band_probes_quadratic_field_term(pot_unit, chi, magmodel):
    # doubling the scaled angle quadruples the field excess, to leading order
    mesh = build_mesh(LatticeSpec(phi=0.0, eps=1.0 / 32.0, l=1.0))
    excess = []
    for w in (0.2, 0.4):
        u = rotated_band_displacement(mesh, w, 0.3, 0.7)
        f = energy_rescaled(u, pot_unit, mode="f", chi=chi, model=magmodel).total
        e = energy_rescaled(u, pot_unit, mode="chi", chi=chi).total
        excess.append(f - e)
    assert excess[1] / excess[0] == pytest.approx(4.0, rel=0.02)

"""Acceptance suite: every headline prediction checked at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
all).  Tolerances are fixed here and match the package documentation; no
criterion is tuned at run time.
"""

import math
import time

import numpy as np
import pytest

from fraclat.continuum import (CleavageProblem, a_crit, build_u_cr,
                               build_u_cr_symmetric, build_u_el,
                               crack_branch_energy, elastic_branch_energy,
                               energy_limit, min_energy,
                               surface_density_bound, surface_density_margins)
from fraclat.crack_extraction import (angle_between_lines_deg, build_modified,
                                      classify_broken, principal_normal,
                                      spring_crossing_count,
                                      symmetric_quartic_sum)
from fraclat.discrete_energy import (bc_cleavage, energy_rescaled,
                                     renormalization_sides)
from fraclat.lattice import (LatticeSpec, build_mesh, cleavage_direction,
                             lattice_vectors)
from fraclat.material import (MagnetizationModel, PairPotential, PenaltyChi,
                              cell_energy, distance_to_O2, field_energy,
                              magnetization_first, magnetization_hessian_form,
                              quadratic_form)
from fraclat.solver import (SolveConfig, cleaved_stations, minimize,
                            nonequicoercivity_demo, recovery_sequence)

SQRT3 = math.sqrt(3.0)
LADDER = (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0)


def report(num: int, description: str, ok: bool, detail: str, t0: float):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status}  {description}  ({detail}; "
          f"{time.perf_counter() - t0:.2f}s)")
    assert ok, f"criterion {num} failed: {description} [{detail}]"


def bench_problem(mult: float) -> CleavageProblem:
    base = CleavageProblem(alpha=1.0, beta=1.0, l=2.0, phi=0.3, a=0.0)
    return CleavageProblem(alpha=1.0, beta=1.0, l=2.0, phi=0.3,
                           a=mult * a_crit(base))


def test_01_linearization_of_cell_energy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    pot = PairPotential(alpha=1.0, beta=1.0)
    vecs = lattice_vectors(0.3)
    G = rng.standard_normal((100, 2, 2))
    G /= np.linalg.norm(G, axis=(1, 2))[:, None, None]
    ratios = []
    for t in (1e-2, 1e-3, 1e-4):
        W = cell_energy(np.eye(2) + t * G, pot, vecs)
        Q = quadratic_form(G, pot.alpha)
        ratios.append(float(np.abs(W - 0.5 * t * t * Q).max()) / t ** 2)
    ok = ratios[1] <= 1e-3 * pot.alpha and ratios[0] > ratios[1] > ratios[2]
    report(1, "cell energy linearizes to the quadratic form",
           ok, f"ratio(1e-3)={ratios[1]:.3e} <= 1e-3, decreasing {ratios}", t0)


def test_02_exact_limit_energies_on_grid():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in np.linspace(0.5, 2.0, 10):
        for beta in np.linspace(0.5, 2.0, 10):
            for l in (1.0, 2.0):
                for phi in (0.0, 0.3):
                    prob = CleavageProblem(alpha=float(alpha), beta=float(beta),
                                           l=l, phi=phi, a=0.9)
                    _, _, tot = energy_limit(build_u_el(prob), prob.alpha,
                                             prob.beta, prob.phi)
                    expect = prob.alpha * l * prob.a ** 2 / SQRT3
                    worst = max(worst, abs(tot - expect) / expect)
                    p = float(cleaved_stations(prob, 1)[0])
                    _, _, tot = energy_limit(build_u_cr(prob, p), prob.alpha,
                                             prob.beta, prob.phi)
                    expect = 2.0 * prob.beta / prob.gamma
                    worst = max(worst, abs(tot - expect) / expect)
    report(2, "limit energies of the two minimizers are exact",
           worst <= 1e-12, f"worst relative error {worst:.2e}", t0)


def test_03_critical_load():
    t0 = time.perf_counter()
    unit = CleavageProblem(alpha=1.0, beta=1.0, l=1.0, phi=0.0, a=0.0)
    err_unit = abs(a_crit(unit) - 2.0)
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        prob = CleavageProblem(alpha=float(rng.uniform(0.5, 2.0)),
                               beta=float(rng.uniform(0.5, 2.0)),
                               l=float(rng.uniform(0.7, 3.0)),
                               phi=float(rng.uniform(0.0, np.pi / 3 * 0.99)), a=0.0)
        el = elastic_branch_energy(prob, a_crit(prob))
        cr = crack_branch_energy(prob)
        worst = max(worst, abs(el - cr) / cr)
    ok = err_unit <= 1e-12 and worst <= 1e-12
    report(3, "critical load formula and branch crossover",
           ok, f"|a_crit-2|={err_unit:.2e}, worst branch gap {worst:.2e}", t0)


def test_04_anisotropic_surface_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = np.inf
    n_phi, n_nu = 200, 500
    for phi in rng.uniform(0.0, np.pi / 3.0 * 0.999999, n_phi):
        th = rng.uniform(0.0, 2.0 * np.pi, n_nu)
        nus = np.column_stack([np.cos(th), np.sin(th)])
        worst = min(worst, float(surface_density_margins(float(phi), nus).min()))
    # spot check the scalar route agrees
    for _ in range(50):
        phi = float(rng.uniform(0.0, np.pi / 3.0 * 0.99))
        th = float(rng.uniform(0.0, 2.0 * np.pi))
        lhs, rhs, _ = surface_density_bound(phi, np.array([np.cos(th), np.sin(th)]))
        worst = min(worst, lhs - rhs)
    report(4, f"surface density bound on {n_phi * n_nu} direction pairs",
           worst >= -1e-12, f"worst margin {worst:.2e}", t0)


def test_05_quartic_trace_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    H = rng.standard_normal((10_000, 2, 2)) * 2.0
    H = 0.5 * (H + np.swapaxes(H, 1, 2))
    worst = 0.0
    for phi in np.linspace(0.0, np.pi / 3.0 * 0.999, 20):
        V = lattice_vectors(float(phi))
        lhs = (np.einsum("vi,nij,vj->nv", V, H, V) ** 2).sum(axis=1)
        tr = np.trace(H, axis1=1, axis2=2)
        tr2 = np.einsum("nij,nji->n", H, H)
        rhs = 3.0 / 8.0 * (2.0 * tr2 + tr ** 2)
        worst = max(worst, float(np.abs(lhs - rhs).max() / (1.0 + np.abs(lhs).max())))
    # the scalar helper agrees with the sweep
    for k in range(20):
        lhs, rhs = symmetric_quartic_sum(H[k], lattice_vectors(0.2))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    report(5, "quartic trace identity over 10^4 matrices x 20 angles",
           worst <= 1e-12, f"worst relative deviation {worst:.2e}", t0)


def test_06_recovery_sequence_convergence():
    t0 = time.perf_counter()
    prob = bench_problem(1.5)
    pot = PairPotential(alpha=prob.alpha, beta=prob.beta)
    chi = PenaltyChi()
    target = crack_branch_energy(prob)
    p = float(cleaved_stations(prob, 1)[0])
    gaps = []
    for eps in LADDER:
        mesh = build_mesh(LatticeSpec(phi=prob.phi, eps=eps, l=prob.l))
        u = recovery_sequence(build_u_cr(prob, p), mesh)
        total = energy_rescaled(u, pot, mode="chi", chi=chi).total
        gaps.append(abs(total - target) / target)
    # monotone in the weak sense: the crossed-bond count is an integer, so
    # exact ties across a halving are generic; the ladder must never climb
    # and must genuinely decay end to end
    monotone = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    ok = gaps[-1] <= 0.10 and monotone and gaps[-1] < 0.5 * gaps[0]
    report(6, "sampled crack energies converge to 2 beta / gamma",
           ok, "relative gaps " + ", ".join(f"{g:.4f}" for g in gaps), t0)


def test_07_cleavage_law_minimization():
    t0 = time.perf_counter()
    eps = 1.0 / 64.0
    chi = PenaltyChi()
    results = {}
    for mult in (0.5, 1.5):
        prob = bench_problem(mult)
        pot = PairPotential(alpha=prob.alpha, beta=prob.beta)
        mesh = build_mesh(LatticeSpec(phi=prob.phi, eps=eps, l=prob.l))
        cfg = SolveConfig(max_iters=300, rng_seed=7, mode="chi")
        res = minimize(mesh, bc_cleavage(prob.a, prob.l), pot, cfg, chi=chi,
                       problem=prob)
        target = min_energy(prob)
        rel = abs(res.breakdown.total - target) / target
        classes = classify_broken(res.u)
        detail = {"rel": rel, "n_broken": classes.count, "tag": res.best.tag,
                  "unconverged": [s.tag for s in res.starts if not s.converged]}
        if mult > 1.0:
            crack = build_modified(res.u, classes)
            ref = cleavage_direction(prob.phi).v_gamma_perp
            detail["angle"] = angle_between_lines_deg(principal_normal(crack), ref)
        results[mult] = detail
    sub, sup = results[0.5], results[1.5]
    ok = (sub["rel"] <= 0.10 and sub["n_broken"] == 0
          and sup["rel"] <= 0.10 and sup["n_broken"] > 0
          and sup["angle"] <= 5.0
          and not sub["unconverged"] and not sup["unconverged"])
    report(7, "best-of-multistart tracks the cleavage law at eps=1/64 from converged starts",
           ok, f"subcritical rel={sub['rel']:.4f} intact, supercritical "
           f"rel={sup['rel']:.4f} broken={sup['n_broken']} angle={sup['angle']:.2f} deg, "
           f"unconverged starts {sub['unconverged']} / {sup['unconverged']}", t0)


def test_08_spring_counting():
    t0 = time.perf_counter()
    prob = bench_problem(1.5)
    p = float(cleaved_stations(prob, 1)[0])
    u_cont = build_u_cr(prob, p)
    seg = u_cont.crack[0]
    length = float(np.linalg.norm(seg.p1 - seg.p0))
    mesh = build_mesh(LatticeSpec(phi=prob.phi, eps=1.0 / 128.0, l=prob.l))
    V = mesh.vecs
    targets = length * 2.0 * np.abs(V @ seg.normal) / SQRT3
    scaled = np.array([
        spring_crossing_count(seg.p0, seg.p1, mesh, d) * mesh.spec.eps
        for d in range(3)])
    ref = targets.max()
    devs = np.abs(scaled - targets)
    ok = bool(np.all(devs <= 0.05 * np.maximum(targets, ref)))
    report(8, "crossed-bond counts track the geometric density at eps=1/128",
           ok, f"count*eps={np.round(scaled, 4)}, targets={np.round(targets, 4)}", t0)


def test_09_coercivity_positivity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    pot = PairPotential(alpha=1.0, beta=1.0)
    chi = PenaltyChi()
    model = MagnetizationModel(kappa=1.5, T=2.0)
    vecs = lattice_vectors(0.3)

    # bounded-norm samples away from the orthogonal group
    F = rng.standard_normal((60_000, 2, 2)) * rng.uniform(0.05, 3.2, (60_000, 1, 1))
    F = F[np.linalg.norm(F, axis=(1, 2)) <= 7.0]
    F = F[distance_to_O2(F) >= 1e-3][:10_000]
    assert len(F) == 10_000
    ratio1 = cell_energy(F, pot, vecs) / distance_to_O2(F) ** 2
    # bounded-norm samples away from the identity, field term added
    G = np.eye(2) + rng.standard_normal((60_000, 2, 2)) * rng.uniform(
        0.002, 1.2, (60_000, 1, 1))
    G = G[np.linalg.norm(G, axis=(1, 2)) <= model.T]
    diff = G - np.eye(2)
    G = G[np.sqrt(np.einsum("nij,nij->n", diff, diff)) >= 1e-3][:10_000]
    assert len(G) == 10_000
    diff = G - np.eye(2)
    num = cell_energy(G, pot, vecs) + chi(G) + field_energy(G, model)
    ratio2 = num / np.einsum("nij,nij->n", diff, diff)
    ok = float(ratio1.min()) > 0.0 and float(ratio2.min()) > 0.0
    report(9, "coercivity ratios stay strictly positive on 10^4 samples each",
           ok, f"min ratios {ratio1.min():.3e}, {ratio2.min():.3e}", t0)


def test_10_nonequicoercivity_rate():
    t0 = time.perf_counter()
    res = nonequicoercivity_demo(LADDER, theta=1.2, p=0.125, q=0.875, l=1.0,
                                 pot=PairPotential(alpha=1.0, beta=1.0))
    slope = res["slope_total"]
    ratio = res["energy_ratio"]
    ok = abs(slope + 0.5) <= 0.05 and ratio < 2.0
    report(10, "gradient mass grows like 1/sqrt(eps) at bounded energy",
           ok, f"slope {slope:.4f} (target -0.5 +/- 0.05), energy ratio {ratio:.3f}",
           t0)


def test_11_magnet_renormalization_and_hessian():
    t0 = time.perf_counter()
    from fraclat.solver import _random_admissible
    mesh = build_mesh(LatticeSpec(phi=0.3, eps=1.0 / 16.0, l=1.0))
    pot = PairPotential(alpha=1.0, beta=1.0)
    chi = PenaltyChi()
    model = MagnetizationModel(kappa=1.5, T=2.0)
    rng = np.random.default_rng(111)
    worst_gap = 0.0
    for _ in range(20):
        u = _random_admissible(mesh, model, rng)
        lhs, rhs = renormalization_sides(u, pot, chi, model)
        worst_gap = max(worst_gap, abs(lhs - rhs) / (1.0 + abs(lhs)))
    worst_fd = 0.0
    t = 1e-4
    for _ in range(100):
        G = rng.standard_normal((2, 2))
        fd = (magnetization_first(np.eye(2) + t * G) - 2.0
              + magnetization_first(np.eye(2) - t * G)) / t ** 2
        worst_fd = max(worst_fd, abs(magnetization_hessian_form(G) - fd))
    ok = worst_gap <= 1e-12 and worst_fd <= 1e-6
    report(11, "renormalization identity and magnetization Hessian",
           ok, f"worst identity gap {worst_gap:.2e}, worst Hessian gap {worst_fd:.2e}",
           t0)


def test_12_symmetric_orientation_degeneracy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(112)
    prob = CleavageProblem(alpha=1.0, beta=1.35, l=1.0, phi=0.0, a=3.0)
    target = 4.0 * prob.beta / SQRT3
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 8))
        x2 = np.concatenate([[0.0], np.sort(rng.uniform(0.02, 0.98, k)), [1.0]])
        slopes = rng.uniform(-1.0, 1.0, k + 1) / SQRT3
        h = np.concatenate([[0.0], np.cumsum(slopes * np.diff(x2))])
        h += 0.5 - 0.5 * (h.min() + h.max())
        u = build_u_cr_symmetric(prob, x2, h)
        _, _, total = energy_limit(u, prob.alpha, prob.beta, prob.phi)
        worst = max(worst, abs(total - target) / target)
    report(12, "all admissible graph cracks carry the same energy at phi=0",
           worst <= 1e-12, f"worst relative deviation {worst:.2e} over 100 graphs", t0)

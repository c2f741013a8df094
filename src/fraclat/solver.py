"""Minimization of the discrete energies and the convergence experiments.

The landscape is nonconvex (a fully cracked bar and a stretched elastic
bar are both critical), so no global optimality is claimed: the driver
runs a projected descent with Armijo backtracking from a fixed family of
starting guesses (unloaded, homogeneously stretched, and split rigidly
across the grips' minimum cut, ``TriangleMesh.min_cut``) and reports the
best local minimum next to the sampled-configuration upper bounds.  For
exp-well a fully opened bond costs eps * beta, so the split start is the
crack branch's energy, eps * beta times the fewest bonds that separate
the grips, and at loads where every cut bond opens fully it is an exact
critical point.  The family draws no random numbers, so a minimization
depends only on its inputs, and each start is built only when its
descent begins.

The descent directions are limited-memory quasi-Newton (L-BFGS) ones
whose initial inverse Hessian is one multigrid cycle on the rest-state
bond stiffness (:class:`fraclat.multigrid.StiffnessMultigrid`).  That
stiffness depends only on the mesh, alpha = W''(1) and the pinned
components, so one preconditioner serves every start of a minimization,
and the last one built is kept for the next minimization of the same
mesh at another load (:func:`fraclat.multigrid.rest_preconditioner`), as
in :func:`critical_load_study`.  It keeps the iteration count of a start
nearly flat as eps shrinks.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .continuum import (CleavageProblem, ContinuumDisplacement, a_crit, build_u_cr,
                        build_u_el, crack_branch_energy,
                        elastic_branch_energy, min_energy)
from .crack_extraction import (angle_between_lines_deg, build_modified,
                               classify_broken, crack_energy_estimate,
                               principal_normal)
from .discrete_energy import (MODES, Assembly, BoundaryCondition, Displacement,
                              EnergyBreakdown, apply_bc, bc_cleavage, bc_zero,
                              energy_rescaled, gradient_l1_norm, interpolate_gradients,
                              project_gradient, renormalization_sides)
from .lattice import (LatticeSpec, TriangleMesh, build_mesh,
                      cleavage_direction, rotation_matrix)
from .material import MagnetizationModel, PairPotential, PenaltyChi, frobenius_norms
from .multigrid import StiffnessMultigrid, rest_preconditioner


class SolverError(RuntimeError):
    """Diverged iteration or an inconsistent study result.

    When a line search produces a NaN energy the offending iterate is
    attached as the ``iterate`` attribute for post-mortem dumps.
    """

    def __init__(self, message, iterate=None):
        super().__init__(message)
        self.iterate = iterate


# fixed line-search, quasi-Newton and initializer constants of the descent
STEP0 = 1.0            # first trial step of every line search
ARMIJO_SHRINK = 0.5    # step factor after a rejected trial
ARMIJO_SLOPE = 1e-4    # sufficient-decrease fraction of the directional slope
MAX_BACKTRACKS = 40    # trials per line search before the start gives up
LBFGS_MEMORY = 2       # (s, y) pairs kept by the quasi-Newton direction
STALL_TOL = 1e-14      # relative energy drop that counts as no progress
STALL_ITERS = 3        # consecutive stalled steps that end a start

START_TAGS = ("zero", "elastic", "cleaved")


@dataclass(frozen=True)
class SolveConfig:
    """Deterministic optimizer settings; the same config gives the same
    iterate sequence.  Every field is checked on construction."""

    max_iters: int = 400
    grad_tol: float = 1e-6
    multistart: tuple = ("zero", "elastic", "cleaved")
    rng_seed: int = 0  # read by nothing; kept while the benchmark still sets it
    mode: str = "chi"

    def __post_init__(self):
        # a count: a bool is an int too
        if not isinstance(self.max_iters, int) or isinstance(self.max_iters, bool):
            raise SolverError(f"max_iters must be an int, got {self.max_iters!r}")
        for name in ("max_iters", "grad_tol"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # false for nan too
                raise SolverError(f"{name} must be finite and >= 0, got {value}")
        if self.mode not in MODES:
            raise SolverError(f"unknown mode {self.mode!r}; expected one of {', '.join(MODES)}")
        for tag in self.multistart:
            if tag not in START_TAGS:
                raise SolverError(f"unknown initializer tag {tag!r}")


@dataclass
class StartResult:
    tag: str
    energy: float
    iters: int
    grad_norm: float
    converged: bool
    history: list | None = None  # energy after each accepted step
    evals: int = 0       # energy-and-gradient evaluations of the descent
    backtracks: int = 0  # line-search trials rejected by the Armijo test
    final_step: float = 0.0  # last accepted line-search step; 0 when none was taken
    wall_s: float = 0.0      # wall time of the descent


@dataclass
class MinimizeResult:
    u: Displacement
    breakdown: EnergyBreakdown
    best: StartResult  # the record of the start that gave ``u``
    starts: list

    @property
    def best_tag(self) -> str:  # read by nothing in fraclat; kept while the benchmark reads it
        return self.best.tag


@dataclass
class ConvergenceRow:
    """One line of a convergence table."""

    eps: float
    mode: str
    energy: float
    target: float
    n_broken: int = 0
    crack_energy_est: float = float("nan")
    crack_angle_deg: float = float("nan")
    starts: tuple = ()  # a minimization's start records; none for a sampled row
    best: StartResult | None = None  # the one of ``starts`` that won

    @property
    def gap(self) -> float:
        return self.energy - self.target

    def row(self) -> list:
        return [self.eps, self.mode, self.energy, self.target, self.gap,
                self.n_broken, self.crack_energy_est, self.crack_angle_deg]


CONVERGENCE_HEADER = ["eps", "mode", "energy", "target", "gap",
                      "n_broken", "crack_energy_est", "crack_angle_deg"]


@dataclass
class CriticalRow:
    """One rung of :func:`critical_load_study`."""

    eps: float
    a_crit_eps: float   # load at which the elastic branch reaches the crack branch
    a_crit: float       # the limit's critical load
    elastic_gap: float  # E_el^eps - its limit, at the bracket's lower load
    crack_gap: float    # E_cr^eps - its limit
    starts: tuple       # the record of each of the rung's minimizations, one start each

    @property
    def minimizations(self) -> int:  # the rung's minimize calls, all on one mesh
        return len(self.starts)

    @property
    def converged(self) -> bool:  # False when one of them stopped early
        return all(rec.converged for rec in self.starts)

    def row(self) -> list:
        return [self.eps, self.a_crit_eps, self.a_crit_eps / self.a_crit,
                self.elastic_gap, self.crack_gap, self.minimizations, self.converged]


CRITICAL_HEADER = ["eps", "a_crit_eps", "a_crit_ratio", "elastic_gap", "crack_gap",
                   "minimizations", "converged"]


# ----------------------------------------------------------------------
# recovery sequences
# ----------------------------------------------------------------------

def recovery_sequence(u_cont: ContinuumDisplacement, mesh: TriangleMesh) -> Displacement:
    """Sample a continuum configuration pointwise at the lattice points.

    If a lattice point sits on the crack polyline (within 1e-12) the
    whole crack is first translated by eps/17 along its normal, a fixed
    deterministic offset that clears the lattice.
    """
    if u_cont.crack and _touches_crack(u_cont, mesh.points):
        if u_cont.shifted is None:
            raise SolverError("a lattice point sits on the crack and the "
                              "configuration cannot be translated")
        u_cont = u_cont.shifted(mesh.spec.eps / 17.0)
        if _touches_crack(u_cont, mesh.points):
            raise SolverError("crack still touches the lattice after translation")
    return Displacement(mesh, u_cont.eval(mesh.points))


_CRACK_TOUCH = 1e-12  # distance below which a lattice point sits on the crack
_LINE_BAND = 1e-9     # half-width of the band around a crack line that is checked


def _touches_crack(u_cont: ContinuumDisplacement, points: np.ndarray) -> bool:
    """Whether ``u_cont.crack_point_distance(points).min() < _CRACK_TOUCH``.

    The distance to a segment's line never exceeds the distance to the
    segment, so only the points within ``_LINE_BAND`` of some segment's
    line can touch the crack; the segment distance is computed for those
    alone.
    """
    near = np.zeros(len(points), dtype=bool)
    for seg in u_cont.crack:
        t = seg.p1 - seg.p0
        n = np.array([-t[1], t[0]]) / math.hypot(t[0], t[1])
        offset = points @ n
        offset -= float(seg.p0 @ n)
        near |= np.abs(offset, out=offset) < _LINE_BAND
    if not near.any():
        return False
    return bool(u_cont.crack_point_distance(points[near]).min() < _CRACK_TOUCH)


# ----------------------------------------------------------------------
# projected descent
# ----------------------------------------------------------------------

def _lbfgs_direction(g: np.ndarray, pairs, precond: StiffnessMultigrid) -> np.ndarray:
    """Quasi-Newton direction ``-H g`` by the two-loop recursion.

    ``H`` is the limited-memory inverse Hessian built from ``H0 = precond``
    and the kept ``(s, y, rho)`` triples, oldest first.  The loops update
    in place, with one scratch array for all the pairs.
    """
    q = g.copy()
    scratch = np.empty_like(g)
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.vdot(s, q))
        alphas.append(a)
        q -= np.multiply(y, a, out=scratch)
    d = precond(q)
    for a, (s, y, rho) in zip(reversed(alphas), pairs):
        b = rho * float(np.vdot(y, d))
        d += np.multiply(s, a - b, out=scratch)
    return np.negative(d, out=d)


def _descend(asm: Assembly, precond: StiffnessMultigrid, tag: str, u0: Displacement,
             bc: BoundaryCondition, config: SolveConfig) -> tuple[np.ndarray, StartResult]:
    """Projected descent from one start, preconditioned by ``precond``.

    Returns the final iterate and its record; the record's energy is the
    descended objective at that iterate.  Every trial point costs one
    :meth:`Assembly.value_and_grad` call, which also yields the gradient
    of an accepted point.
    """
    start = time.perf_counter()
    mask_x, mask_y = bc.masks(asm.mesh)
    x = apply_bc(u0, bc).values
    fx, g = asm.value_and_grad(x)
    if not math.isfinite(fx):
        raise SolverError("non-finite energy at the starting point")
    g = project_gradient(g, mask_x, mask_y)
    history = [fx]
    evals, backtracks, step = 1, 0, 0.0
    pairs = deque(maxlen=LBFGS_MEMORY)  # (s, y, 1 / (y . s)), oldest first
    stalled = 0

    def done(iters: int, converged: bool):
        return x, StartResult(tag=tag, energy=fx, iters=iters,
                              grad_norm=float(np.linalg.norm(g)), converged=converged,
                              history=history, evals=evals, backtracks=backtracks,
                              final_step=step, wall_s=time.perf_counter() - start)

    for it in range(1, config.max_iters + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= config.grad_tol:
            return done(it - 1, True)
        if stalled >= STALL_ITERS:  # no progress, and |g| is still above the tolerance
            return done(it - 1, False)
        d = _lbfgs_direction(g, pairs, precond)
        slope = float(np.vdot(g, d))
        if slope >= 0.0:  # quasi-Newton direction lost descent; restart from -M g
            pairs.clear()
            d = -precond(g)
            slope = float(np.vdot(g, d))
        t = STEP0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            x_new = x + t * d
            f_new, g_new = asm.value_and_grad(x_new)
            evals += 1
            if math.isnan(f_new):
                raise SolverError(
                    f"energy became NaN during line search at iteration {it}",
                    iterate=x_new)
            if f_new <= fx + ARMIJO_SLOPE * t * slope:
                accepted = True
                break
            backtracks += 1
            t *= ARMIJO_SHRINK
        if not accepted:
            return done(it, False)
        step = t
        g_new = project_gradient(g_new, mask_x, mask_y)
        s_vec = x_new - x
        y_vec = g_new - g
        sy = float(np.vdot(s_vec, y_vec))
        if sy > 1e-14:
            pairs.append((s_vec, y_vec, 1.0 / sy))
        drop = fx - f_new
        x, fx, g = x_new, f_new, g_new
        history.append(fx)
        stalled = stalled + 1 if drop <= STALL_TOL * (1.0 + abs(fx)) else 0
    return done(config.max_iters, False)


def cleaved_stations(problem: CleavageProblem, n: int) -> np.ndarray:
    """Uniform grid of crack intercepts whose lines stay inside the bar.

    Targets the middle 80 percent of the bar, intersected with the
    interval of intercepts for which the tilted crack line crosses both
    horizontal sides; the tilt shrinks that interval by the horizontal
    run of the best-aligned direction over the unit height.
    """
    w = problem.cleavage.v_gamma
    run = w[0] / w[1]
    lo = max(0.0, -run)
    hi = min(problem.l, problem.l - run)
    if hi <= lo:
        raise SolverError("no interior crack line fits this bar")
    lo2 = max(lo + 0.02 * problem.l, 0.1 * problem.l)
    hi2 = min(hi - 0.02 * problem.l, 0.9 * problem.l)
    if hi2 <= lo2:
        lo2, hi2 = lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)
    return lo2 + (hi2 - lo2) * (np.arange(n) + 0.5) / n


def _initializers(mesh: TriangleMesh, problem: CleavageProblem,
                  config: SolveConfig):
    """Deterministic family of starting displacements, in a fixed order.

    The tags were checked when ``config`` was made; the starts are made
    one at a time, as the returned iterator is advanced.  The ``cleaved``
    start is the rigid split across the grips' minimum cut: u = 0, with
    u1 = a * l on the right grip's side.
    """
    for tag in config.multistart:
        if tag == "zero":
            yield "zero", Displacement.zero(mesh)
        elif tag == "elastic":
            yield "elastic", _elastic_ramp(mesh, problem)
        else:
            cut = mesh.min_cut
            values = np.zeros((mesh.n_points, 2))
            values[cut.right, 0] = problem.a * problem.l
            yield f"cleaved(cut={cut.count})", Displacement(mesh, values)


def _elastic_ramp(mesh: TriangleMesh, problem: CleavageProblem) -> Displacement:
    """Admissible homogeneous stretch: linear ramp between the pinned layers."""
    eps = mesh.spec.eps
    x1 = mesh.points[:, 0]
    span = problem.l - 2.0 * eps
    ramp = np.clip((x1 - eps) / span, 0.0, 1.0)
    values = np.zeros((mesh.n_points, 2))
    values[:, 0] = problem.a * problem.l * ramp
    values[:, 1] = -(problem.a / 3.0) * (mesh.points[:, 1] - 0.5)
    return Displacement(mesh, values)


def minimize(mesh: TriangleMesh, bc: BoundaryCondition, pot: PairPotential,
             config: SolveConfig, chi: PenaltyChi | None = None,
             model: MagnetizationModel | None = None, *,
             problem: CleavageProblem) -> MinimizeResult:
    """Best local minimum over the configured multistart family.

    ``problem`` sets the loads of the ``elastic`` ramp and of the
    ``cleaved`` split; the mesh computes its minimum cut on the first
    ``cleaved`` start and keeps it for the next minimization.
    """
    # one assembly and one preconditioner serve every start; the
    # preconditioner is the last call's when the mesh, alpha and pinned
    # components are the same.  In modes plain and chi a start's record
    # already holds the energy of its final iterate, and only the winner is
    # broken down; in mode f the descent differentiates the smoothed field
    # cutoff and each start reports the sharp one
    asm = Assembly(mesh, pot, mode=config.mode, chi=chi, model=model)
    precond = rest_preconditioner(mesh, pot.alpha, *bc.masks(mesh))
    results = []
    best = None
    for k, (tag, u0) in enumerate(_initializers(mesh, problem, config)):
        x, rec = _descend(asm, precond, tag, u0, bc, config)
        bd = None
        if config.mode == "f":
            bd = asm.breakdown(x)
            rec.energy = bd.total
        results.append(rec)
        if best is None or rec.energy < results[best[0]].energy:
            best = (k, x, bd)
    if best is None:
        raise SolverError("no starting point; check the multistart list")
    k, x, bd = best
    if bd is None:
        bd = asm.breakdown(x)
    return MinimizeResult(u=Displacement(mesh, x), breakdown=bd, best=results[k],
                          starts=results)


# ----------------------------------------------------------------------
# study drivers
# ----------------------------------------------------------------------

def _crack_summary(u: Displacement, beta: float):
    """(count, estimated crack energy, angle to the cleavage normal).

    The count is of the broken triangles, those with at least two sides
    stretched by a factor 2 or more; F is formed on them alone.
    """
    classes = classify_broken(u)
    if classes.count == 0:
        return 0, float("nan"), float("nan")
    crack = build_modified(u, classes)
    est = crack_energy_estimate(crack, beta, u.mesh.vecs)
    ref = cleavage_direction(u.mesh.spec.phi)
    angle = angle_between_lines_deg(principal_normal(crack), ref.v_gamma_perp)
    return classes.count, est, angle


def _mesh_for(problem: CleavageProblem, eps: float) -> TriangleMesh:
    return build_mesh(LatticeSpec(phi=problem.phi, eps=eps, l=problem.l))


def convergence_study(problem: CleavageProblem, eps_list,
                      config: SolveConfig | None = None,
                      pot: PairPotential | None = None,
                      chi: PenaltyChi | None = None,
                      model: MagnetizationModel | None = None,
                      with_minimize: bool = True) -> list:
    """Track discrete energies along an eps ladder against the limit value.

    Per eps the table gets a sampled-crack row, a sampled-elastic row and
    (optionally) a best-of-multistart minimization row, all in
    ``config.mode``; mode ``f`` needs the field ``model``.  The
    sampled-crack gaps are checked to shrink monotonically up to 10
    percent slack.
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise SolverError("eps_list must be strictly decreasing")
    pot = pot or PairPotential(alpha=problem.alpha, beta=problem.beta)
    chi = chi or PenaltyChi()
    config = config or SolveConfig()
    mode = config.mode
    target = min_energy(problem)
    rows = []
    crack_gaps = []
    p_mid = float(cleaved_stations(problem, 1)[0])
    for eps in eps_list:
        mesh = _mesh_for(problem, eps)
        # sample both configurations before the rung's one assembly is built
        # and drop it before the crack is classified: neither step then runs
        # while the assembly's workspace is alive, which keeps the peak down
        u_cr = recovery_sequence(build_u_cr(problem, p_mid), mesh)
        u_el = recovery_sequence(build_u_el(problem), mesh)
        asm = Assembly(mesh, pot, mode=mode, chi=chi, model=model)
        e_cr = asm.breakdown(u_cr.values).total
        e_el = asm.breakdown(u_el.values).total
        del asm
        n, est, ang = _crack_summary(u_cr, problem.beta)
        rows.append(ConvergenceRow(eps, f"{mode}/recovery-crack", e_cr,
                                   crack_branch_energy(problem), n, est, ang))
        crack_gaps.append(abs(e_cr - crack_branch_energy(problem)))
        rows.append(ConvergenceRow(eps, f"{mode}/recovery-elastic", e_el,
                                   elastic_branch_energy(problem)))

        if with_minimize:
            bc = bc_cleavage(problem.a, problem.l)
            res = minimize(mesh, bc, pot, config, chi=chi, model=model,
                           problem=problem)
            n, est, ang = _crack_summary(res.u, problem.beta)
            rows.append(ConvergenceRow(eps, f"{mode}/minimize", res.breakdown.total,
                                       target, n, est, ang, tuple(res.starts), res.best))
    check_gap_ladder(crack_gaps, eps_list, pot.beta)
    return rows


def check_gap_ladder(gaps, eps_list, beta: float):
    """Flag gap growth along a refinement ladder beyond slack and quantum.

    The sampled energy moves in quanta of eps * beta (one bond), so a gap
    may rebound by that much off an accidentally tight rung; only growth
    beyond 10 percent slack plus one quantum is an error.
    """
    for (g0, g1), eps in zip(zip(gaps, gaps[1:]), eps_list[1:]):
        if g1 > 1.1 * g0 + eps * beta + 1e-12:
            raise SolverError(
                f"sampled-crack gaps fail to shrink along the ladder: {list(gaps)}")


# the loads that bracket a_crit^eps, and the width that ends the bisection,
# in units of the limit's a_crit
CRITICAL_BRACKET = (0.5, 1.5)
CRITICAL_TOL = 1e-3


def critical_load_study(problem: CleavageProblem, eps_list,
                        config: SolveConfig | None = None,
                        pot: PairPotential | None = None,
                        chi: PenaltyChi | None = None,
                        model: MagnetizationModel | None = None) -> dict:
    """The discrete critical load a_crit^eps and both branch gaps along an eps ladder.

    Per rung, the crack branch's energy E_cr^eps is the ``cleaved``
    start's, the rigid split across the grips' minimum cut, descended at
    the bracket's upper load, where the cut bonds are open; with a flat
    tail (exp-well) it is eps * beta times the cut and does not depend on
    the load.  a_crit^eps is then bisected, to ``CRITICAL_TOL`` a_crit,
    as the load at which the converged ``elastic`` start's energy
    E_el^eps(a) reaches E_cr^eps; the bracket must hold E_el^eps below
    E_cr^eps at its lower load and above it at its upper one.  ``config``
    sets everything but the starts.  The rung's minimizations all run on
    one mesh and so share its preconditioner.  Returns the rows and the
    log-log slopes of |a_crit^eps / a_crit - 1| and of both gaps'
    magnitudes.
    """
    eps_list = list(eps_list)
    if len(eps_list) < 2 or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise SolverError(f"eps_list must be two or more strictly decreasing rungs, "
                          f"got {eps_list}")
    pot = pot or PairPotential(alpha=problem.alpha, beta=problem.beta)
    chi = chi or PenaltyChi()
    config = config or SolveConfig()
    limit = a_crit(problem)
    bracket = tuple(m * limit for m in CRITICAL_BRACKET)
    rows = []
    for eps in eps_list:
        mesh = _mesh_for(problem, eps)
        starts = []

        def energy(a: float, start: str) -> float:
            res = minimize(mesh, bc_cleavage(a, problem.l), pot,
                           replace(config, multistart=(start,)), chi=chi, model=model,
                           problem=replace(problem, a=a))
            starts.extend(res.starts)
            return res.breakdown.total

        lo, hi = bracket
        e_cr = energy(hi, "cleaved")
        e_lo, e_hi = energy(lo, "elastic"), energy(hi, "elastic")
        if not e_lo < e_cr < e_hi:
            raise SolverError(
                f"eps = {eps}: the elastic branch ({e_lo:.6g} at {lo:.6g}, {e_hi:.6g} at "
                f"{hi:.6g}) does not cross the crack branch ({e_cr:.6g}) in the bracket")
        while hi - lo > CRITICAL_TOL * limit:
            mid = 0.5 * (lo + hi)
            if energy(mid, "elastic") < e_cr:
                lo = mid
            else:
                hi = mid
        rows.append(CriticalRow(eps, 0.5 * (lo + hi), limit,
                                e_lo - elastic_branch_energy(problem, bracket[0]),
                                e_cr - crack_branch_energy(problem), tuple(starts)))

    def slope(values):
        return fit_loglog_slope(eps_list, [abs(v) for v in values])

    return {"rows": rows,
            "slope_a_crit": slope([r.a_crit_eps / limit - 1.0 for r in rows]),
            "slope_elastic_gap": slope([r.elastic_gap for r in rows]),
            "slope_crack_gap": slope([r.crack_gap for r in rows])}


# ----------------------------------------------------------------------
# demonstration configurations
# ----------------------------------------------------------------------

def three_piece_rotation(mesh: TriangleMesh, theta: float, p: float,
                         q: float) -> Displacement:
    """Bar cut at x1 = p and x1 = q with the middle band rigidly rotated.

    The rotation is anchored at mid-height of the left cut and the right
    piece is translated to match the band at mid-height of the right cut.
    Returns the rescaled displacement of this deformation.
    """
    if not 0.0 < p < q:
        raise SolverError("cuts must satisfy 0 < p < q")
    R = rotation_matrix(theta)
    z0 = np.array([p, 0.5])
    z1 = np.array([q, 0.5])
    c = z0 - R @ z0
    d = (R @ z1 + c) - z1
    pts = mesh.points
    y = pts.copy()
    band = (pts[:, 0] >= p) & (pts[:, 0] <= q)
    right = pts[:, 0] > q
    y[band] = pts[band] @ R.T + c
    y[right] = pts[right] + d
    return Displacement(mesh, (y - pts) / math.sqrt(mesh.spec.eps))


def fit_loglog_slope(eps_values, quantities) -> float:
    """Least-squares slope of log(quantity) against log(eps), at two or more distinct eps."""
    if len(set(eps_values)) < 2:
        raise SolverError(f"a log-log slope needs two distinct eps values, got {list(eps_values)}")
    x = np.log(np.asarray(eps_values, dtype=float))
    y = np.log(np.asarray(quantities, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


NONEQ_HEADER = ["eps", "energy", "grad_l1_total", "grad_l1_band"]


def nonequicoercivity_demo(eps_list, theta: float, p: float, q: float,
                           l: float = 1.0, pot: PairPotential | None = None) -> dict:
    """Energy and gradient mass of the rotated-band configuration per eps.

    The energy stays of order one while the L1 norm of the displacement
    gradient grows like eps^(-1/2); the fitted log-log slope is returned.
    """
    if not 0.0 < p < q < l:
        raise SolverError("need 0 < p < q < l")
    pot = pot or PairPotential()
    rows = []
    for eps in eps_list:
        mesh = build_mesh(LatticeSpec(phi=0.0, eps=eps, l=l))
        u = three_piece_rotation(mesh, theta, p, q)
        bd = energy_rescaled(u, pot, mode="plain")
        grad_norms = frobenius_norms(interpolate_gradients(u)[0])
        rows.append((eps, bd.total, gradient_l1_norm(mesh, grad_norms),
                     gradient_l1_norm(mesh, grad_norms, _band_triangles(mesh, p, q))))
    eps_arr = [r[0] for r in rows]
    slope_total = fit_loglog_slope(eps_arr, [r[2] for r in rows])
    slope_band = fit_loglog_slope(eps_arr, [r[3] for r in rows])
    energies = [r[1] for r in rows]
    return {"rows": rows, "slope_total": slope_total, "slope_band": slope_band,
            "energy_ratio": max(energies) / min(energies)}


def _band_triangles(mesh: TriangleMesh, p: float, q: float) -> np.ndarray:
    """Mask of the triangles fully inside the band p <= x1 <= q."""
    x1 = mesh.points[mesh.triangles][:, :, 0]
    return (x1 >= p).all(axis=1) & (x1 <= q).all(axis=1)


def rotated_band_displacement(mesh: TriangleMesh, w: float, p: float,
                              q: float) -> Displacement:
    """Band rotated by the scaled angle sqrt(eps) * w and lifted by one unit.

    The scaled angle keeps the displacement gradient bounded on the band
    (the deformation gradient there is exactly the rotation), so the
    configuration probes the quadratic field term: the field energy
    exceeds the penalized one by about (kappa/2) w^2 per unit band area.
    The constant offset keeps every cut triangle beyond the field cutoff
    at all lattice spacings, where the field term vanishes identically.
    """
    eps = mesh.spec.eps
    R = rotation_matrix(math.sqrt(eps) * w)
    z0 = np.array([0.5 * (p + q), 0.5])
    pts = mesh.points
    band = (pts[:, 0] >= p) & (pts[:, 0] <= q)
    values = np.zeros_like(pts)
    values[band] = (pts[band] - z0) @ (R - np.eye(2)).T / math.sqrt(eps) \
        + np.array([0.0, 1.0])
    return Displacement(mesh, values)


def magnet_demo(problem: CleavageProblem, model: MagnetizationModel, eps_list,
                pot: PairPotential | None = None, chi: PenaltyChi | None = None,
                n_random: int = 20, seed: int = 0,
                band_angle: float = 0.4) -> dict:
    """Renormalization identity checks and field-term convergence rows."""
    pot = pot or PairPotential(alpha=problem.alpha, beta=problem.beta)
    chi = chi or PenaltyChi()
    rng = np.random.default_rng(seed)
    identity_gaps, el_rows, band_rows = [], [], []
    for k, eps in enumerate(eps_list):
        mesh = _mesh_for(problem, eps)
        if k == 0:  # the identity is checked on random fields of the first rung
            for _ in range(n_random):
                u = _random_admissible(mesh, model, rng)
                lhs, rhs = renormalization_sides(u, pot, chi, model)
                identity_gaps.append(abs(lhs - rhs) / (1.0 + abs(lhs)))
        asm = Assembly(mesh, pot, mode="f", chi=chi, model=model)
        u_el = recovery_sequence(build_u_el(problem), mesh)
        f_el = asm.breakdown(u_el.values).total
        el_rows.append(ConvergenceRow(eps, "f/recovery-elastic", f_el,
                                      elastic_branch_energy(problem)))
        p, q = 0.3 * problem.l, 0.7 * problem.l
        u_band = rotated_band_displacement(mesh, band_angle, p, q)
        bd = asm.breakdown(u_band.values)
        f_band = bd.total
        # the chi-mode energy is the same breakdown without its field term
        e_band = EnergyBreakdown("chi", bd.bulk, bd.boundary, bd.penalty).total
        band_area = (q - p) * 1.0
        band_rows.append({"eps": eps, "field_minus_plain": f_band - e_band,
                          "limit": 0.5 * model.kappa * band_angle ** 2 * band_area})
    return {"identity_gaps": identity_gaps, "elastic_rows": el_rows,
            "band_rows": band_rows}


def _random_admissible(mesh: TriangleMesh, model: MagnetizationModel,
                       rng: np.random.Generator) -> Displacement:
    """Random admissible displacement with every triangle inside |F| <= T."""
    values = rng.standard_normal((mesh.n_points, 2))
    u = apply_bc(Displacement(mesh, values), bc_zero())
    for _ in range(60):
        _, F = interpolate_gradients(u)
        det = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
        norm = frobenius_norms(F)
        if norm.max() <= 0.95 * model.T and det.min() > 0.2:
            return u
        u = Displacement(mesh, 0.5 * u.values)
    raise SolverError("could not scale a random configuration into |F| <= T")

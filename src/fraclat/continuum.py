"""The continuum Griffith functional and the cleavage boundary problem.

Candidate displacements are piecewise affine with a polyline crack
separating the pieces, which covers all minimizers of the limiting bar
problem and every configuration the recovery constructions need.  On
this class both the elastic bulk integral and the anisotropic surface
integral have piecewise-constant integrands, so energies are evaluated
exactly by polygon areas (shoelace formula after clipping) and segment
lengths; there is no quadrature error.

The bar problem: a slab (0, l) x (0, 1) stretched uniaxially by a at the
vertical sides either deforms homogeneously (energy ``alpha l a^2 /
sqrt(3)``) or breaks along a line tilted like the best-aligned bond
direction (energy ``2 beta / gamma``); the two branches cross at
``a_crit = sqrt(2 sqrt(3) beta / (alpha gamma l))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import (SQRT3, CleavageData, LatticeSpec, cleavage_direction, lattice_vectors,
                      perp, require_finite, row_dots, rows_times)
from .material import PairPotential, quadratic_form, quadratic_min_under_strain

_GEOM_TOL = 1e-12


class GeometryError(ValueError):
    """Invalid candidate geometry (overlaps, bad crack line, slope violation)."""


# ----------------------------------------------------------------------
# exact polygon helpers
# ----------------------------------------------------------------------

def shoelace_area(poly: np.ndarray) -> float:
    """Signed area of a polygon given by its vertex loop."""
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def clip_polygon_halfplane(poly: np.ndarray, n: np.ndarray, c: float) -> np.ndarray:
    """Keep the part of the polygon with n . x <= c (Sutherland-Hodgman step)."""
    if len(poly) == 0:
        return poly
    out = []
    d = poly @ n - c
    for i in range(len(poly)):
        j = (i + 1) % len(poly)
        pi, pj = poly[i], poly[j]
        di, dj = d[i], d[j]
        if di <= _GEOM_TOL:
            out.append(pi)
        if (di < -_GEOM_TOL and dj > _GEOM_TOL) or (di > _GEOM_TOL and dj < -_GEOM_TOL):
            t = di / (di - dj)
            out.append(pi + t * (pj - pi))
    return np.array(out) if out else np.zeros((0, 2))


def clip_polygon_rect(poly: np.ndarray, rect) -> np.ndarray:
    x0, x1, y0, y1 = rect
    for n, c in (((-1.0, 0.0), -x0), ((1.0, 0.0), x1),
                 ((0.0, -1.0), -y0), ((0.0, 1.0), y1)):
        poly = clip_polygon_halfplane(poly, np.array(n), c)
    return poly


def clip_segment_rect(p0: np.ndarray, p1: np.ndarray, rect):
    """Parametric clip of a segment against a rectangle; None if outside."""
    x0, x1, y0, y1 = rect
    d = p1 - p0
    t0, t1 = 0.0, 1.0
    for comp, lo, hi in ((0, x0, x1), (1, y0, y1)):
        if abs(d[comp]) < _GEOM_TOL:
            if p0[comp] < lo - _GEOM_TOL or p0[comp] > hi + _GEOM_TOL:
                return None
            continue
        ta = (lo - p0[comp]) / d[comp]
        tb = (hi - p0[comp]) / d[comp]
        ta, tb = min(ta, tb), max(ta, tb)
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 > t1 + _GEOM_TOL:
            return None
    return p0 + t0 * d, p0 + t1 * d


def _oriented_normals(directions: np.ndarray) -> np.ndarray:
    """Unit normal of each row of a (k, 2) array of directions.

    Each normal has a nonnegative first component; ties point along e2.
    """
    n = perp(directions / np.sqrt(row_dots(directions, directions))[:, None])
    flip = (n[:, 0] < -_GEOM_TOL) | ((np.abs(n[:, 0]) <= _GEOM_TOL) & (n[:, 1] < 0.0))
    return np.where(flip[:, None], -n, n)


# ----------------------------------------------------------------------
# candidate class
# ----------------------------------------------------------------------

@dataclass
class AffinePiece:
    """One affine piece u(x) = A x + b on a polygonal region."""

    polygon: np.ndarray
    A: np.ndarray
    b: np.ndarray


@dataclass
class CrackLine:
    """One straight crack segment with unit normal and jump vector."""

    p0: np.ndarray
    p1: np.ndarray
    normal: np.ndarray
    jump: np.ndarray

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.p1 - self.p0))


@dataclass
class ContinuumDisplacement:
    """Piecewise-affine displacement with a polyline crack.

    ``locator`` maps sample points to piece indices (used for pointwise
    evaluation when building discrete samples); ``shifted`` rebuilds the
    configuration with the crack translated by a signed offset along its
    normal, when the construction supports it.
    """

    pieces: list
    crack: list
    domain_l: float
    locator: Callable[[np.ndarray], np.ndarray] | None = None
    shifted: Callable[[float], "ContinuumDisplacement"] | None = None

    @property
    def omega(self):
        return (0.0, self.domain_l, 0.0, 1.0)

    def eval(self, points: np.ndarray) -> np.ndarray:
        if self.locator is None:
            raise GeometryError("this configuration has no point locator")
        idx = self.locator(np.asarray(points, dtype=float))
        out = np.zeros((len(points), 2))
        # each piece is evaluated on every point and written where it
        # applies, which is cheaper than gathering and scattering its points
        for k, piece in enumerate(self.pieces):
            sel = idx == k
            if np.any(sel):
                vals = rows_times(points, piece.A)
                vals += piece.b
                np.copyto(out, vals, where=sel[:, None])
        return out

    def crack_point_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance from each point to the crack polyline (inf if no crack)."""
        if not self.crack:
            return np.full(len(points), np.inf)
        d = np.full(len(points), np.inf)
        for seg in self.crack:
            t = seg.p1 - seg.p0
            L2 = float(t @ t)
            s = np.clip((points - seg.p0) @ t / L2, 0.0, 1.0)
            proj = seg.p0 + s[:, None] * t
            d = np.minimum(d, np.linalg.norm(points - proj, axis=1))
        return d


def _clipped_pieces(u: ContinuumDisplacement):
    """(piece, area inside the specimen) for every piece that reaches into it."""
    for piece in u.pieces:
        clipped = clip_polygon_rect(np.asarray(piece.polygon, dtype=float), u.omega)
        if len(clipped) >= 3:
            yield piece, abs(shoelace_area(clipped))


def _clipped_cracks(u: ContinuumDisplacement):
    """(segment, clipped end points) for every crack segment inside the specimen."""
    for seg in u.crack:
        clipped = clip_segment_rect(seg.p0, seg.p1, u.omega)
        if clipped is not None:
            yield seg, clipped[0], clipped[1]


def _check_no_overlap(u: ContinuumDisplacement):
    total = 0.0
    for _, area in _clipped_pieces(u):
        total += area
    if total > u.domain_l * (1.0 + 1e-9) + 1e-12:
        raise GeometryError(
            f"pieces overlap: clipped area {total} exceeds the specimen area {u.domain_l}")


# ----------------------------------------------------------------------
# the limiting functionals
# ----------------------------------------------------------------------

def surface_densities(nus: np.ndarray, vecs: np.ndarray, beta: float) -> np.ndarray:
    """Anisotropic crack density (2 beta / sqrt(3)) * sum_v |v . nu| per normal.

    ``nus`` is a (k, 2) array of unit normals, ``vecs`` the (3, 2) bond directions.
    """
    return 2.0 * beta / SQRT3 * np.abs(np.matmul(vecs, nus[:, :, None])[:, :, 0]).sum(axis=1)


def energy_limit(u: ContinuumDisplacement, alpha: float, beta: float,
                 phi: float) -> tuple[float, float, float]:
    """Exact bulk, surface and total energy of a candidate configuration."""
    _check_no_overlap(u)
    vecs = lattice_vectors(phi)
    bulk = 0.0
    for piece, area in _clipped_pieces(u):
        sym = 0.5 * (piece.A + piece.A.T)
        bulk += 4.0 / SQRT3 * 0.5 * float(quadratic_form(sym, alpha)) * area
    surface = 0.0
    for seg, q0, q1 in _clipped_cracks(u):
        surface += float(np.linalg.norm(q1 - q0)) \
            * float(surface_densities(seg.normal[None], vecs, beta)[0])
    return bulk, surface, bulk + surface


def energy_F_limit(u: ContinuumDisplacement, alpha: float, beta: float,
                   phi: float, kappa: float) -> float:
    """Limit energy with the external-field contribution.

    Adds ``(kappa/2) * ((a21 - a12)/2)^2`` per unit area, the quadratic
    cost of the local rotation against the field; symmetric gradients add
    nothing.
    """
    bulk, surface, total = energy_limit(u, alpha, beta, phi)
    extra = 0.0
    for piece, area in _clipped_pieces(u):
        w = 0.5 * (piece.A[1, 0] - piece.A[0, 1])
        extra += 0.5 * kappa * w * w * area
    return total + extra


# ----------------------------------------------------------------------
# the cleavage problem
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CleavageProblem:
    """Uniaxially stretched bar: material, geometry and boundary strain."""

    alpha: float = PairPotential.alpha
    beta: float = PairPotential.beta
    l: float = LatticeSpec.l
    phi: float = 0.0
    a: float = 0.0
    eta: float = LatticeSpec.eta  # read by nothing; kept while the benchmark still sets it

    def __post_init__(self):
        require_finite(GeometryError, alpha=self.alpha, beta=self.beta, l=self.l,
                       phi=self.phi, a=self.a, eta=self.eta)
        if self.l < 1.0 / SQRT3 - 1e-12:
            raise GeometryError("bar length l must be at least 1/sqrt(3)")
        if self.a < 0.0:
            raise GeometryError("boundary strain a must be nonnegative")
        if min(self.alpha, self.beta) <= 0.0:
            raise GeometryError("alpha and beta must be positive")

    @property
    def cleavage(self) -> CleavageData:
        return cleavage_direction(self.phi)

    @property
    def gamma(self) -> float:
        return self.cleavage.gamma


def a_crit(problem: CleavageProblem) -> float:
    """Boundary strain at which the elastic and cracked branches cross."""
    return math.sqrt(2.0 * SQRT3 * problem.beta
                     / (problem.alpha * problem.gamma * problem.l))


def elastic_branch_energy(problem: CleavageProblem, a: float | None = None) -> float:
    a = problem.a if a is None else a
    return problem.alpha * problem.l * a ** 2 / SQRT3


def crack_branch_energy(problem: CleavageProblem) -> float:
    return 2.0 * problem.beta / problem.gamma


def min_energy(problem: CleavageProblem) -> float:
    """Minimal limit energy under the uniaxial boundary conditions."""
    return min(elastic_branch_energy(problem), crack_branch_energy(problem))


def build_u_el(problem: CleavageProblem, s: float = 0.0) -> ContinuumDisplacement:
    """Homogeneous elastic minimizer with gradient diag(a, -a/3)."""
    l, a = problem.l, problem.a
    poly = np.array([[0.0, 0.0], [l, 0.0], [l, 1.0], [0.0, 1.0]])
    A = quadratic_min_under_strain(a, problem.alpha)[1]
    piece = AffinePiece(poly, A, np.array([0.0, s]))
    return ContinuumDisplacement(
        pieces=[piece], crack=[], domain_l=l,
        locator=lambda pts: np.zeros(len(pts), dtype=int),
        shifted=None)


def build_u_cr(problem: CleavageProblem, p: float, s: float = 0.0,
               t: float = 0.0) -> ContinuumDisplacement:
    """Cracked minimizer: two rigid pieces split along the line through (p, 0).

    The crack line follows the best-aligned bond direction and must cross
    both horizontal sides of the bar inside (0, l).
    """
    l = problem.l
    w = problem.cleavage.v_gamma  # oriented so w . e2 > 0
    top = p + w[0] / w[1]
    if not (_GEOM_TOL < p < l - _GEOM_TOL and _GEOM_TOL < top < l - _GEOM_TOL):
        raise GeometryError(
            f"crack line through p={p} exits a vertical side (top intercept {top})")
    nu = _oriented_normals(w[None])[0]
    jump = np.array([problem.a * l, t - s])
    left = AffinePiece(np.array([[0.0, 0.0], [p, 0.0], [top, 1.0], [0.0, 1.0]]),
                       np.zeros((2, 2)), np.array([0.0, s]))
    right = AffinePiece(np.array([[p, 0.0], [l, 0.0], [l, 1.0], [top, 1.0]]),
                        np.zeros((2, 2)), np.array([problem.a * l, t]))
    seg = CrackLine(np.array([p, 0.0]), np.array([top, 1.0]), nu, jump)
    anchor = np.array([p, 0.0])

    def locator(pts: np.ndarray) -> np.ndarray:
        side = (pts - anchor) @ nu
        return (side > 0.0).astype(int)

    def shifted(c: float) -> ContinuumDisplacement:
        dp = c * (nu[0] * w[1] - nu[1] * w[0]) / w[1]
        return build_u_cr(problem, p + dp, s, t)

    return ContinuumDisplacement([left, right], [seg], l, locator, shifted)


def build_u_cr_symmetric(problem: CleavageProblem, h_x2: np.ndarray,
                         h_values: np.ndarray, s: float = 0.0,
                         t: float = 0.0) -> ContinuumDisplacement:
    """Cracked configuration split along the graph x1 = h(x2) (phi = 0 only).

    ``h`` is piecewise linear through (h_x2, h_values) with |h'| bounded
    by 1/sqrt(3); every admissible graph carries the same energy in the
    symmetric lattice orientation.
    """
    if problem.phi != 0.0:
        raise GeometryError("graph cracks are minimizers only at phi = 0")
    h_x2 = np.asarray(h_x2, dtype=float)
    h_values = np.asarray(h_values, dtype=float)
    if h_x2[0] != 0.0 or h_x2[-1] != 1.0 or np.any(np.diff(h_x2) <= 0.0):
        raise GeometryError("h must be sampled on an increasing grid spanning [0, 1]")
    if np.any(h_values < -_GEOM_TOL) or np.any(h_values > problem.l + _GEOM_TOL):
        raise GeometryError("h must take values in [0, l]")
    slopes = np.diff(h_values) / np.diff(h_x2)
    if np.any(np.abs(slopes) > 1.0 / SQRT3 + 1e-12):
        raise GeometryError(
            f"graph slope {np.abs(slopes).max()} exceeds the bound 1/sqrt(3)")

    l = problem.l
    graph = np.column_stack([h_values, h_x2])
    left_poly = np.vstack([[[0.0, 0.0]], graph, [[0.0, 1.0]]])
    right_poly = np.vstack([[[l, 0.0]], [[l, 1.0]], graph[::-1]])
    left = AffinePiece(left_poly, np.zeros((2, 2)), np.array([0.0, s]))
    right = AffinePiece(right_poly, np.zeros((2, 2)), np.array([problem.a * l, t]))
    jump = np.array([problem.a * problem.l, t - s])
    crack = []
    for k in range(len(graph) - 1):
        d = graph[k + 1] - graph[k]
        crack.append(CrackLine(graph[k].copy(), graph[k + 1].copy(),
                               _oriented_normals(d[None])[0], jump))

    def locator(pts: np.ndarray) -> np.ndarray:
        hx = np.interp(pts[:, 1], h_x2, h_values)
        return (pts[:, 0] > hx).astype(int)

    def shifted(c: float) -> ContinuumDisplacement:
        return build_u_cr_symmetric(problem, h_x2, h_values + c, s, t)

    return ContinuumDisplacement([left, right], crack, l, locator, shifted)


# ----------------------------------------------------------------------
# sharp surface bounds
# ----------------------------------------------------------------------

def anisotropy_gap_term(gamma: float, v_gamma: np.ndarray, nu: np.ndarray) -> float | np.ndarray:
    """Nonnegative remainder P(gamma, nu) of the surface density bound; nu has shape (..., 2)."""
    nu = np.asarray(nu, dtype=float)
    if gamma > SQRT3 / 2.0 + 1e-14:
        return (1.0 - SQRT3 * math.sqrt(max(1.0 - gamma ** 2, 0.0)) / gamma) \
            * np.abs(nu @ v_gamma)
    return np.maximum(SQRT3 * np.abs(nu[..., 1]) - np.abs(nu[..., 0]), 0.0)


def _surface_density_sides(phi: float, nu: np.ndarray):
    """(lhs, rhs, P) of the surface density bound; nu has shape (..., 2)."""
    data = cleavage_direction(phi)
    lhs = np.abs(nu @ lattice_vectors(phi).T).sum(axis=-1)
    P = anisotropy_gap_term(data.gamma, data.v_gamma, nu)
    rhs = SQRT3 / data.gamma * np.abs(nu[..., 0]) + P
    return lhs, rhs, P


def surface_density_bound(phi: float, nu: np.ndarray) -> tuple[float, float, float]:
    """Check sum_v |v . nu| >= (sqrt(3)/gamma) |e1 . nu| + P(gamma, nu).

    Returns (lhs, rhs, P) and raises if the inequality fails beyond
    floating tolerance; equality holds for phi = 0 and for nu parallel or
    normal to the best-aligned direction.
    """
    lhs, rhs, P = map(float, _surface_density_sides(phi, np.asarray(nu, dtype=float)))
    if lhs < rhs - 1e-12:
        raise GeometryError(f"surface density bound violated: {lhs} < {rhs}")
    return lhs, rhs, P


def surface_density_margins(phi: float, nus: np.ndarray) -> np.ndarray:
    """Vectorized slack lhs - rhs of the surface density bound over unit normals."""
    lhs, rhs, _ = _surface_density_sides(phi, np.asarray(nus, dtype=float))
    return lhs - rhs


def slicing_lower_bound(u: ContinuumDisplacement, problem: CleavageProblem) -> float:
    """Exact horizontal-slice lower bound for the limit energy.

    Sums the one-dimensional strain energy of each slice, the per-slice
    jump count priced at the cheapest crack, and the anisotropy remainder
    over the crack; never exceeds the full energy.
    """
    data = problem.cleavage
    bulk = 0.0
    for piece, area in _clipped_pieces(u):
        bulk += problem.alpha / SQRT3 * piece.A[0, 0] ** 2 * area
    jumps = 0.0
    remainder = 0.0
    for seg, q0, q1 in _clipped_cracks(u):
        length = float(np.linalg.norm(q1 - q0))
        jumps += crack_branch_energy(problem) * length * abs(seg.normal[0])
        remainder += 2.0 * problem.beta / SQRT3 \
            * anisotropy_gap_term(data.gamma, data.v_gamma, seg.normal) * length
    bound = bulk + jumps + remainder
    _, _, total = energy_limit(u, problem.alpha, problem.beta, problem.phi)
    if bound > total + 1e-12 * (1.0 + abs(total)):
        raise GeometryError(f"slice bound {bound} exceeds the energy {total}")
    return bound

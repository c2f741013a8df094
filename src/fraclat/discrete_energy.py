"""Assembly of the discrete spring energies on a lattice mesh.

Displacements are stored in the square-root-of-eps rescaled frame: the
deformation of a point x is ``y(x) = x + sqrt(eps) u(x)`` and the reported
energy is ``eps`` times the raw pair sum, so that elastic and fully
cracked configurations carry comparable, order-one energies.

The raw pair sum over nearest-neighbor bonds equals the sum of
per-triangle cell energies plus a boundary term collecting bonds that
belong to fewer than two mesh triangles; both routes are assembled and
cross-checked on every evaluation.

:class:`Assembly` holds the index and weight arrays of one energy on one
mesh and evaluates it, with its gradient, on raw displacement arrays;
:func:`energy_rescaled` and :func:`gradient` build one per call.

Energy modes
------------
plain
    cell energies plus the boundary term.
chi
    plain plus the orientation penalty, summed per triangle with weight
    eps (the same scaling as the cell energies).
f
    chi plus the external-field term ``(1/eps) * integral of f over the
    triangulated specimen``, evaluated exactly as a triangle sum since
    the integrand is piecewise constant (weight ``sqrt(3) eps / 4`` per
    triangle).
total-magnetic
    chi plus the magnetic energy ``-(kappa/eps) * integral of m1``.
    Subtracting the renormalization constant ``kappa |Omega_eps| / eps``
    recovers the ``f`` mode exactly whenever every triangle satisfies
    |F| <= T.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .lattice import SQRT3, TriangleMesh, classify_edges
from .material import (MagnetizationModel, PairPotential, PenaltyChi, field_energy,
                       field_energy_smooth, field_energy_smooth_grad,
                       magnetization_first)

MODES = ("plain", "chi", "f", "total-magnetic")

_CONSISTENCY_RTOL = 1e-12


class DiscreteEnergyError(RuntimeError):
    """Assembly failure (inconsistent sums, bad mode, non-finite input)."""


@dataclass
class Displacement:
    """Rescaled displacement values at the mesh points."""

    mesh: TriangleMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_points, 2):
            raise DiscreteEnergyError(
                f"expected values of shape {(self.mesh.n_points, 2)}, got {self.values.shape}")

    @classmethod
    def zero(cls, mesh: TriangleMesh) -> "Displacement":
        return cls(mesh, np.zeros((mesh.n_points, 2)))


@dataclass
class EnergyBreakdown:
    """Energy split into bulk, boundary, penalty and field contributions."""

    mode: str
    bulk: float
    boundary: float
    penalty: float = 0.0
    field: float = 0.0

    @property
    def total(self) -> float:
        return self.bulk + self.boundary + self.penalty + self.field

    def row(self) -> list:
        return [self.mode, self.bulk, self.boundary, self.penalty, self.field, self.total]


# ----------------------------------------------------------------------
# interpolation
# ----------------------------------------------------------------------

def _basis_inverse(mesh: TriangleMesh) -> np.ndarray:
    return np.linalg.inv(np.column_stack([mesh.vecs.v1, mesh.vecs.v2]))


def _interpolant_gradients(values: np.ndarray, corners, Minv: np.ndarray,
                           den: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Per-triangle gradient of the affine interpolant of point values.

    Returns the component-major array ``G[j, i, t]``, the derivative of
    value component i along x_j on triangle t.  ``corners`` holds the
    three vertex index arrays and ``den`` each triangle's orientation
    sign times the length scale.  One matrix product serves all
    triangles.  ``ws`` supplies the result and scratch buffers; the empty
    workspace allocates them.
    """
    t0, t1, t2 = corners
    D = _buffer(ws.D, (2, 2, len(den)))  # D[k, i]: component i of edge difference k
    for i in range(2):
        c = np.ascontiguousarray(values[:, i])
        c0 = np.take(c, t0, out=ws.c0, mode="clip")
        np.subtract(np.take(c, t1, out=ws.ck, mode="clip"), c0, out=D[0, i])
        np.subtract(np.take(c, t2, out=ws.ck, mode="clip"), c0, out=D[1, i])
    G = np.matmul(Minv.T, D.reshape(2, -1), out=ws.G).reshape(D.shape)
    G /= den
    return G


def interpolate_gradients(u: Displacement) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle displacement gradient and deformation gradient.

    Returns ``(grad_u, F)`` with ``F = Id + sqrt(eps) grad_u``, both of
    shape (n_triangles, 2, 2).  The affine interpolant reproduces the
    point values exactly, so affine inputs give an exact constant
    gradient.
    """
    mesh, eps = u.mesh, u.mesh.spec.eps
    G = _interpolant_gradients(u.values, mesh.triangles.T, _basis_inverse(mesh),
                               mesh.tri_sign * eps, _NO_WORKSPACE)
    grad_u = np.ascontiguousarray(G.transpose(2, 1, 0))
    F = np.eye(2) + np.sqrt(eps) * grad_u
    return grad_u, F


def gradient_l1_norm(u: Displacement, domain: str = "omega") -> float:
    """Area-weighted L1 norm of the displacement gradient over the domain."""
    grad_u, _ = interpolate_gradients(u)
    mask = u.mesh.triangle_set(domain)
    frob = np.linalg.norm(grad_u[mask], axis=(1, 2))
    return float(u.mesh.triangle_area * frob.sum())


# ----------------------------------------------------------------------
# boundary conditions
# ----------------------------------------------------------------------

@dataclass
class BoundaryCondition:
    """Dirichlet data imposed on the margin layer of the mesh.

    ``components`` selects which displacement components are pinned:
    "both", or "x" for loadings that leave the transverse component free.
    """

    g: Callable[[np.ndarray], np.ndarray]
    components: str = "both"

    def masks(self, mesh: TriangleMesh) -> tuple[np.ndarray, np.ndarray]:
        base = mesh.dirichlet
        if self.components == "both":
            return base, base
        if self.components == "x":
            return base, np.zeros_like(base)
        raise DiscreteEnergyError(f"unknown component selector {self.components!r}")

    def target(self, mesh: TriangleMesh) -> np.ndarray:
        vals = np.asarray(self.g(mesh.points), dtype=float)
        if vals.shape != (mesh.n_points, 2):
            raise DiscreteEnergyError("boundary function must return one 2-vector per point")
        return vals


def bc_zero() -> BoundaryCondition:
    return BoundaryCondition(lambda p: np.zeros_like(p))


def bc_affine(G: np.ndarray, b: np.ndarray | None = None) -> BoundaryCondition:
    G = np.asarray(G, dtype=float)
    b = np.zeros(2) if b is None else np.asarray(b, dtype=float)
    return BoundaryCondition(lambda p: p @ G.T + b)


def bc_cleavage(a: float, l: float) -> BoundaryCondition:
    """Uniaxial tension data: u1 = 0 on the left layer, a*l on the right.

    Only the first component is pinned; the transverse component remains
    free, matching a grip that allows lateral contraction.
    """

    def g(points: np.ndarray) -> np.ndarray:
        out = np.zeros_like(points)
        out[:, 0] = np.where(points[:, 0] > l / 2.0, a * l, 0.0)
        return out

    return BoundaryCondition(g, components="x")


def apply_bc(u: Displacement, bc: BoundaryCondition) -> Displacement:
    """Overwrite the pinned components with the boundary data; idempotent."""
    mask_x, mask_y = bc.masks(u.mesh)
    target = bc.target(u.mesh)
    values = u.values.copy()
    values[mask_x, 0] = target[mask_x, 0]
    values[mask_y, 1] = target[mask_y, 1]
    return Displacement(u.mesh, values)


# ----------------------------------------------------------------------
# energy assembly
# ----------------------------------------------------------------------

def _check_pair_identity(pair_total: float, bulk: float, boundary: float):
    scale = 1.0 + abs(pair_total) + abs(bulk) + abs(boundary)
    if abs(pair_total - bulk - boundary) > _CONSISTENCY_RTOL * scale:
        raise DiscreteEnergyError(
            "pair sum and triangle-plus-boundary sum disagree: "
            f"{pair_total} vs {bulk} + {boundary}")


def _chain_to_edges(dPhi_dF: np.ndarray, Minv: np.ndarray, pref: np.ndarray) -> np.ndarray:
    """d Phi(F) / d(edge differences); column c acts on vertex c+1.

    Chain rule through ``F = Id + sqrt(eps) / (sign eps) [d1 d2] Minv``;
    the per-triangle factor ``pref`` is that derivative times the
    coefficient of the term.
    """
    P = (dPhi_dF.reshape(-1, 2) @ Minv.T).reshape(dPhi_dF.shape)
    return P * pref[:, None, None]


def _buffer(view, shape) -> np.ndarray:
    """The workspace ``view``, or a fresh array when there is no workspace."""
    return np.empty(shape) if view is None else view


def _zeros(view, n: int) -> np.ndarray:
    """The workspace ``view`` cleared, or a fresh zero array."""
    if view is None:
        return np.zeros(n)
    view.fill(0.0)
    return view


class _Workspace:
    """Buffers that let one :class:`Assembly` evaluate without allocating.

    The evaluation passes every view as an ``out=`` argument.  On the
    empty workspace (``_Workspace()``) all views are None, so numpy
    allocates each array as it goes.

    ``xc``, ``z``, ``r`` and the two masks live through a whole
    evaluation, and the bond half ``[e1, e0]`` of the ``bincount`` index
    stream is written once.  Everything else shares one float pool that
    the phases use in turn: the bond phase's scratch; then F (always the
    first 4M entries) with either the edge differences or the three
    ``(3, M)`` stretch arrays, whose spent rows also hold the cell sums,
    det F and the penalty values; last the two gradient weight streams,
    written over F once the penalty terms hold their own copies.

    Takes into a view use ``mode="clip"`` (every index is in range):
    under the default mode numpy fills a temporary copy of ``out``.
    """

    xc = z = r = pos = flip = index = None
    z0 = rr = wr = wr_bd = None
    G = D = c0 = ck = a = b = t = cells = det = det2 = chi_vals = None
    wx = wy = coef = None

    def __init__(self, asm: Assembly | None = None):
        if asm is None:
            return
        n, E, M = asm.mesh.n_points, asm._bond_ends.shape[1], len(asm._den)
        k = (asm.mode != "plain") + (asm.mode == "f")  # triangle terms with a gradient
        L = 2 * E + 3 * k * M  # longest index and weight streams
        self.xc, self.z, self.r = np.empty((2, n)), np.empty((2, E)), np.empty(E)
        self.pos, self.flip = np.empty(E, dtype=bool), np.empty(M, dtype=bool)
        self.index = np.empty(L, dtype=np.intp)
        self.index[:2 * E] = asm._bond_ends[::-1].ravel()
        pool = np.empty(max(2 * E, 13 * M, 2 * L))
        self.z0 = pool[:2 * E].reshape(2, E)
        self.rr = self.wr = pool[:E]
        self.wr_bd = pool[E:2 * E]
        self.G = pool[:4 * M].reshape(2, 2 * M)
        self.D = pool[4 * M:8 * M].reshape(2, 2, M)
        self.c0, self.ck = pool[8 * M:9 * M], pool[9 * M:10 * M]
        self.a, self.b, self.t = (pool[j * M:(j + 3) * M].reshape(3, M) for j in (4, 7, 10))
        self.cells, self.det, self.det2 = self.t
        self.chi_vals = self.a[0]
        self.wx, self.wy = pool[:L], pool[L:2 * L]
        self.coef = self.wx[E:2 * E]  # the -gx slot, written after gx and gy


_NO_WORKSPACE = _Workspace()


class Assembly:
    """The rescaled energy of one mesh with its index and weight arrays precomputed.

    Built once per (mesh, potential, mode, penalty, field model, domain)
    and evaluated on raw ``(N, 2)`` displacement arrays.  Every
    evaluation computes the bond stretches and the per-triangle
    deformation gradients once, checks the raw pair sum against the cell
    sum plus the boundary term to 1e-12 relative, evaluates the
    orientation penalty only on triangles with det F < 0 (it vanishes
    identically elsewhere) and scatters gradients with ``np.bincount``.
    ``smooth_field`` selects the smoothed field cutoff in mode ``f``; only
    that form has a gradient.

    The first :meth:`value_and_grad` call allocates a private workspace
    that every later evaluation, :meth:`breakdown` included, reuses, so a
    descent allocates no large temporaries after its first step; an
    assembly that only ever computes breakdowns allocates per call and
    holds no buffers between calls.  Evaluations of one assembly must not
    run concurrently.
    """

    def __init__(self, mesh: TriangleMesh, pot: PairPotential, mode: str = "plain",
                 chi: PenaltyChi | None = None,
                 model: MagnetizationModel | None = None,
                 domain: str = "omega", smooth_field: bool = False):
        if mode not in MODES:
            raise DiscreteEnergyError(f"unknown mode {mode!r}")
        if mode != "plain" and chi is None:
            raise DiscreteEnergyError(f"mode {mode!r} needs a penalty definition")
        if mode in ("f", "total-magnetic") and model is None:
            raise DiscreteEnergyError(f"mode {mode!r} needs a magnetization model")
        self.mesh, self.pot, self.mode = mesh, pot, mode
        self.chi, self.model, self.domain = chi, model, domain
        self.smooth_field = smooth_field
        eps = mesh.spec.eps
        self.eps, self._sqrt_eps = eps, np.sqrt(eps)

        edge_mask = mesh.edge_set(domain)
        self._bond_ends = np.ascontiguousarray(mesh.edges[edge_mask].T)  # (2, E)
        self._bond_dirs = np.ascontiguousarray(
            mesh.vecs.as_array()[mesh.edge_dir[edge_mask]].T)  # (2, E)
        self._bond_weight = 2.0 * classify_edges(mesh, domain)[edge_mask]

        tri_mask = mesh.triangle_set(domain)
        self._corners = np.ascontiguousarray(mesh.triangles[tri_mask].T)  # (3, M)
        self._den = mesh.tri_sign[tri_mask] * eps
        self._minv = _basis_inverse(mesh)
        self._vecs = mesh.vecs.as_array()
        self._ws = _NO_WORKSPACE

    # chain-rule factors of the per-triangle terms, coefficient included;
    # only the gradient needs them
    @cached_property
    def _pref_chi(self) -> np.ndarray:
        return self.eps * self._sqrt_eps / self._den

    @cached_property
    def _pref_field(self) -> np.ndarray:
        return SQRT3 * self.eps / 4.0 * self._sqrt_eps / self._den

    def breakdown(self, x: np.ndarray) -> EnergyBreakdown:
        """Energy of the displacement values ``x``, split into its parts."""
        return self._evaluate(x, False)[0]

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Total energy of ``x`` and its gradient with respect to ``x``."""
        if self.mode == "total-magnetic":
            raise DiscreteEnergyError("no gradient for mode 'total-magnetic'")
        if self.mode == "f" and not self.smooth_field:
            raise DiscreteEnergyError("the sharp field cutoff has no gradient; "
                                      "assemble with smooth_field=True")
        if not self.pot.differentiable:
            raise DiscreteEnergyError("gradient needs a differentiable potential family")
        if self._ws is _NO_WORKSPACE:
            self._ws = _Workspace(self)
        bd, grad = self._evaluate(x, True)
        return bd.total, grad

    def _evaluate(self, x: np.ndarray, with_grad: bool):
        n = self.mesh.n_points
        x = np.asarray(x, dtype=float)
        if x.shape != (n, 2):
            raise DiscreteEnergyError(f"expected values of shape {(n, 2)}, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise DiscreteEnergyError("displacement contains non-finite entries")
        eps, pot, chi, model, ws = self.eps, self.pot, self.chi, self.model, self._ws
        xc = _buffer(ws.xc, (2, n))
        xc[...] = x.T

        # bonds: deformed bond vectors z (in units of eps) and stretches r = |z|
        e0, e1 = self._bond_ends
        z = np.take(xc, e1, axis=1, out=ws.z, mode="clip")
        z -= np.take(xc, e0, axis=1, out=ws.z0, mode="clip")
        z /= self._sqrt_eps
        z += self._bond_dirs
        zx, zy = z
        r = np.multiply(zx, zx, out=ws.r)
        r += np.multiply(zy, zy, out=ws.rr)
        np.sqrt(r, out=r)
        Wr = pot(r, out=ws.wr)
        pair_total = eps * float(Wr.sum())
        boundary = eps * float(np.multiply(self._bond_weight, Wr, out=ws.wr_bd).sum())

        # triangles: F[j, i] holds the component F_ij on every triangle, and
        # the cell energy is half the pair energy of the sides |F v|
        F = _interpolant_gradients(xc.T, self._corners, self._minv, self._den, ws)
        F *= self._sqrt_eps
        F[0, 0] += 1.0
        F[1, 1] += 1.0
        (F00, F10), (F01, F11) = F
        V = self._vecs
        a = np.multiply.outer(V[:, 0], F00, out=ws.a)  # (3, M): F v for each bond direction
        a += np.multiply.outer(V[:, 1], F01, out=ws.t)
        b = np.multiply.outer(V[:, 0], F10, out=ws.b)
        b += np.multiply.outer(V[:, 1], F11, out=ws.t)
        a *= a
        b *= b
        a += b
        W = pot(np.sqrt(a, out=a), out=ws.b)  # b is spent
        cells = np.add(W[0], W[1], out=ws.cells)
        cells += W[2]
        cells *= 0.5
        bulk = eps * float(cells.sum())
        _check_pair_identity(pair_total, bulk, boundary)

        def matrices(sel):  # (k, 2, 2) deformation gradients of the selection
            return np.ascontiguousarray(F[:, :, sel].transpose(2, 1, 0))

        penalty = fieldval = 0.0
        tri_terms = []  # (triangle selection, d Phi / d edge differences)
        if self.mode != "plain":
            det = np.multiply(F00, F11, out=ws.det)
            det -= np.multiply(F01, F10, out=ws.det2)
            support = np.flatnonzero(np.less(det, 0.0, out=ws.flip))
            Fs = matrices(support)
            chi_vals = _zeros(ws.chi_vals, len(det))
            chi_vals[support] = chi(Fs)
            penalty = eps * float(chi_vals.sum())
            if with_grad and len(support):
                tri_terms.append((support, _chain_to_edges(
                    chi.grad(Fs), self._minv, self._pref_chi[support])))
        if self.mode in ("f", "total-magnetic"):
            Fd = matrices(slice(None))
            if self.mode == "total-magnetic":
                fieldval = -model.kappa * SQRT3 * eps / 4.0 \
                    * float(magnetization_first(Fd).sum())
            else:
                fvals = field_energy_smooth(Fd, model) if self.smooth_field \
                    else field_energy(Fd, model)
                fieldval = SQRT3 * eps / 4.0 * float(np.sum(fvals))
                if with_grad:
                    tri_terms.append((slice(None), _chain_to_edges(
                        field_energy_smooth_grad(Fd, model), self._minv,
                        self._pref_field)))
        bd = EnergyBreakdown(mode=self.mode, bulk=bulk, boundary=boundary,
                             penalty=penalty, field=fieldval)
        if not with_grad:
            return bd, None

        # gradient, always with a workspace: one bincount per component over
        # the index stream, whose bond half [e1, e0] is already in place;
        # F is spent from here on
        coef = pot.deriv(r, out=ws.coef)
        coef *= self._sqrt_eps
        np.divide(coef, r, out=coef, where=np.greater(r, 0.0, out=ws.pos))
        E = len(r)
        index, wx, wy = ws.index, ws.wx, ws.wy
        np.multiply(coef, zx, out=wx[:E])
        np.multiply(coef, zy, out=wy[:E])
        np.negative(wx[:E], out=wx[E:2 * E])
        np.negative(wy[:E], out=wy[E:2 * E])
        t0, t1, t2 = self._corners
        o = 2 * E
        for sel, P in tri_terms:
            m = len(P)
            index[o:o + 3 * m].reshape(3, m)[:] = t1[sel], t2[sel], t0[sel]
            for i, w in enumerate((wx, wy)):
                part = w[o:o + 3 * m].reshape(3, m)
                part[0], part[1] = P[:, i, 0], P[:, i, 1]
                np.add(part[0], part[1], out=part[2])
                np.negative(part[2], out=part[2])
            o += 3 * m
        grad = np.empty((n, 2))
        grad[:, 0] = np.bincount(index[:o], wx[:o], minlength=n)
        grad[:, 1] = np.bincount(index[:o], wy[:o], minlength=n)
        return bd, grad


def energy_rescaled(u: Displacement, pot: PairPotential, mode: str = "plain",
                    chi: PenaltyChi | None = None,
                    model: MagnetizationModel | None = None,
                    domain: str = "omega") -> EnergyBreakdown:
    """Rescaled energy eps * E(id + sqrt(eps) u) with the selected extras.

    The bulk part sums cell energies over the domain's triangles, the
    boundary part collects under-covered bonds, and the two together are
    verified against the raw pair sum to 1e-12 relative on every call.
    Builds a transient :class:`Assembly`; callers evaluating one energy
    many times should build the assembly once instead.
    """
    return Assembly(u.mesh, pot, mode, chi, model, domain).breakdown(u.values)


def energy_deformation(mesh: TriangleMesh, y_values: np.ndarray, pot: PairPotential,
                       domain: str = "omega") -> EnergyBreakdown:
    """Unrescaled pair energy of a raw deformation y, with the same split."""
    eps = mesh.spec.eps
    u = Displacement(mesh, (y_values - mesh.points) / np.sqrt(eps))
    bd = energy_rescaled(u, pot, mode="plain", domain=domain)
    return EnergyBreakdown(mode="plain", bulk=bd.bulk / eps, boundary=bd.boundary / eps)


def specimen_area(mesh: TriangleMesh, domain: str = "omega") -> float:
    """Total area of the domain's triangles (the triangulated specimen)."""
    return mesh.triangle_area * float(mesh.triangle_set(domain).sum())


def renormalization_sides(u: Displacement, pot: PairPotential, chi: PenaltyChi,
                          model: MagnetizationModel,
                          domain: str = "omega") -> tuple[float, float]:
    """Both sides of the magnet renormalization identity.

    Returns ``(field_total, magnetic_total - kappa |Omega_eps| / eps)``;
    the two agree exactly whenever every triangle satisfies |F| <= T.
    """
    lhs = energy_rescaled(u, pot, mode="f", chi=chi, model=model, domain=domain).total
    tot = energy_rescaled(u, pot, mode="total-magnetic", chi=chi, model=model,
                          domain=domain).total
    area = specimen_area(u.mesh, domain)
    return lhs, tot + model.kappa / u.mesh.spec.eps * area


# ----------------------------------------------------------------------
# analytic gradient
# ----------------------------------------------------------------------

def gradient(u: Displacement, pot: PairPotential, mode: str = "plain",
             chi: PenaltyChi | None = None,
             model: MagnetizationModel | None = None,
             domain: str = "omega") -> np.ndarray:
    """Analytic gradient of :func:`energy_rescaled` with respect to u.

    The field term is differentiated in its smoothed form; modes that are
    not differentiable (tabulated potentials, 'total-magnetic') are
    rejected.
    """
    asm = Assembly(u.mesh, pot, mode, chi, model, domain, smooth_field=True)
    return asm.value_and_grad(u.values)[1]


def project_gradient(g: np.ndarray, mask_x: np.ndarray, mask_y: np.ndarray) -> np.ndarray:
    """Zero the gradient on pinned components (the feasible-set projection)."""
    out = g.copy()
    out[mask_x, 0] = 0.0
    out[mask_y, 1] = 0.0
    return out


# ----------------------------------------------------------------------
# CSV interchange
# ----------------------------------------------------------------------

DISPLACEMENT_HEADER = ["index", "x", "y", "u1", "u2"]
ENERGY_HEADER = ["mode", "bulk", "boundary", "penalty", "field", "total"]


def format_float(x: float) -> str:
    return f"{x:.17g}"


def displacement_to_csv(u: Displacement, path: str):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DISPLACEMENT_HEADER)
        for i, (p, v) in enumerate(zip(u.mesh.points, u.values)):
            writer.writerow([i, format_float(p[0]), format_float(p[1]),
                             format_float(v[0]), format_float(v[1])])


def displacement_from_csv(path: str, mesh: TriangleMesh) -> Displacement:
    """Read a displacement written by :func:`displacement_to_csv`.

    Every mesh point must appear exactly once, at its own coordinates,
    with a finite displacement.  The first faulty row in file order is
    reported by its line, with the first of its faults in the order
    malformed, index out of range, repeated, off the mesh, non-finite.
    Rows are parsed one by one up to the first malformed or out-of-range
    one; the remaining checks run on the parsed rows as arrays.
    """
    n = mesh.n_points
    index, data, lines = array("q"), array("d"), array("q")  # flat: no object kept per value
    stop = None  # the error of a malformed or out-of-range row, which ends parsing
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != DISPLACEMENT_HEADER:
            raise DiscreteEnergyError(f"line 1: unexpected displacement header {header}")
        for row in reader:
            line = f"line {reader.line_num}"
            try:
                i, x, y, u1, u2 = row
                i, x, y, u1, u2 = int(i), float(x), float(y), float(u1), float(u2)
            except ValueError as exc:
                stop = DiscreteEnergyError(f"{line}: malformed row {row}: {exc}")
                break
            if not 0 <= i < n:
                stop = DiscreteEnergyError(
                    f"{line}: point index {i} outside the mesh's 0..{n - 1}")
                break
            index.append(i)
            data.extend((x, y, u1, u2))
            lines.append(reader.line_num)
    idx = np.frombuffer(index, dtype=np.int64)
    data = np.frombuffer(data).reshape(-1, 4)
    counts = np.bincount(idx, minlength=n)
    repeated = np.zeros(len(idx), dtype=bool)
    if counts.max() > 1:  # sort only when some point repeats
        order = np.argsort(idx, kind="stable")  # equal indices keep their file order
        repeated[order[1:]] = idx[order[1:]] == idx[order[:-1]]
    off_mesh = ~np.isclose(data[:, :2], mesh.points[idx],
                           atol=1e-9 * max(1.0, mesh.spec.l)).all(axis=1)
    non_finite = ~np.isfinite(data[:, 2:]).all(axis=1)
    faulty = np.flatnonzero(repeated | off_mesh | non_finite)
    if len(faulty):
        k = faulty[0]
        fault = ("appears twice" if repeated[k] else
                 "does not match the mesh" if off_mesh[k] else
                 "has a non-finite displacement")
        raise DiscreteEnergyError(f"line {lines[k]}: point {idx[k]} {fault}")
    if stop is not None:
        raise stop
    missing = np.flatnonzero(counts == 0)
    if len(missing):
        raise DiscreteEnergyError(
            f"csv lacks {len(missing)} of the mesh's {n} points, first {missing[0]}")
    values = np.empty((n, 2))
    values[idx] = data[:, 2:]
    return Displacement(mesh, values)

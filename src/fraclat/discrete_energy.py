"""Assembly of the discrete spring energies on a lattice mesh.

Displacements are stored in the square-root-of-eps rescaled frame: the
deformation of a point x is ``y(x) = x + sqrt(eps) u(x)`` and the reported
energy is ``eps`` times the raw pair sum, so that elastic and fully
cracked configurations carry comparable, order-one energies.

The raw pair sum over nearest-neighbor bonds equals the sum of
per-triangle cell energies plus a boundary term collecting bonds that
belong to fewer than two mesh triangles; both routes are assembled and
cross-checked on every evaluation.

:class:`Assembly` evaluates one energy on one mesh's own arrays, with its
gradient, on raw displacement arrays; :func:`energy_rescaled` and
:func:`gradient` build one per call.  One kernel, :func:`_grad_u`, forms
the per-triangle displacement gradient for both the assembly and
:func:`interpolate_gradients`, component-major, into buffers its caller
provides.

The gradient has two parts.  The bonds' forces are scattered onto their
ends with one ``np.bincount`` per component.  The triangle terms (the
penalty's and the field's) are summed per triangle into one chain-rule
product and added to one per-point accumulator.

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

Every mode has a gradient.  The total magnetic energy, chi plus
``-(kappa/eps) * integral of m1``, is no mode: :func:`renormalization_sides`
forms it to check that subtracting ``kappa |Omega_eps| / eps`` recovers
mode ``f`` whenever every triangle satisfies |F| <= T.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import BLOCK, EDGE_WEIGHTS, SQRT3, TriangleMesh
from .material import (MagnetizationModel, PairPotential, PenaltyChi, field_energy_rows,
                       magnetization_first)

MODES = ("plain", "chi", "f")

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

def corner_differences(xc: np.ndarray, corners, D: np.ndarray, c0: np.ndarray | None = None):
    """Write ``D[k, i]``, component i of the edge from corner 0 to corner k + 1, k = 0, 1.

    ``xc`` holds the point values component-major, (2, N), and ``corners``
    the M triangles' three vertex index arrays; each corner's two
    components are taken at once.  The take buffer ``c0`` (2, M) is
    allocated when not given.
    """
    t0, t1, t2 = corners
    first = xc.take(t0, axis=1, out=c0, mode="clip")
    xc.take(t1, axis=1, out=D[0], mode="clip")
    xc.take(t2, axis=1, out=D[1], mode="clip")
    D -= first


def _grad_u(xc: np.ndarray, corners, minv: np.ndarray, den: np.ndarray, D: np.ndarray,
            G: np.ndarray, c0: np.ndarray | None = None):
    """Write component-major grad u, ``G[j, i, t] = d u_i / d x_j`` on triangle t.

    ``xc`` and ``c0`` are as in :func:`corner_differences`.  ``G = minv.T @
    D / den`` with ``den`` the orientation signs times eps; ``D`` and ``G``
    are distinct contiguous (2, 2, M) buffers.
    """
    corner_differences(xc, corners, D, c0)
    np.matmul(minv.T, D.reshape(2, -1), out=G.reshape(2, -1))
    G /= den


def interpolate_gradients(u: Displacement, tri=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle displacement gradient and deformation gradient.

    Returns ``(grad_u, F)`` with ``F = Id + sqrt(eps) grad_u``, both of
    shape (n_triangles, 2, 2): views, not copies, of the component-major
    arrays of :func:`_grad_u`, so ``F[t]`` is triangle t's matrix but the
    stack is not contiguous.  Affine inputs give an exact constant gradient.
    An index array ``tri`` keeps rows ``tri`` alone, with the same bits;
    it gathers only those rows' corner values.
    """
    mesh, eps = u.mesh, u.mesh.spec.eps
    corners = mesh.triangles.T[:, tri]  # (3, k)
    k = corners.shape[1]
    if isinstance(tri, slice):
        xc = np.ascontiguousarray(u.values.T)
    else:
        # the rows' own corner values, component-major and indexed locally:
        # a transient of O(k) instead of a copy of the whole field
        xc = np.ascontiguousarray(u.values.take(corners.ravel(), axis=0).T)
        corners = np.arange(3 * k).reshape(3, k)
    D, G = np.empty((2, 2, k)), np.empty((2, 2, k))
    # the first row of G takes the corner values until the product overwrites it
    _grad_u(xc, corners, mesh.basis_inverse, mesh.tri_sign[tri] * eps, D, G, G[0])
    # F is written over the spent edge differences; adding the whole
    # identity turns an off-diagonal -0.0 into +0.0
    F = np.multiply(G, np.sqrt(eps), out=D)
    F += np.eye(2)[:, :, None]
    return G.transpose(2, 1, 0), F.transpose(2, 1, 0)


def gradient_l1_norm(mesh: TriangleMesh, grad_norms: np.ndarray, mask=slice(None)) -> float:
    """Area-weighted L1 norm of the displacement gradient over the triangles in mask.

    The mask defaults to every triangle.

    ``grad_norms`` holds |grad u| per triangle, the :func:`frobenius_norms`
    of ``interpolate_gradients(u)[0]``, so one interpolation serves
    several masks.
    """
    return float(mesh.triangle_area * grad_norms[mask].sum())


# ----------------------------------------------------------------------
# boundary conditions
# ----------------------------------------------------------------------

@dataclass
class BoundaryCondition:
    """Dirichlet data imposed on the mesh's pinned layers, ``mesh.dirichlet``.

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


def _chain_to_edges(dPhi_dF: np.ndarray, Minv: np.ndarray, coef: float, sign: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """d Phi(F) / d(edge differences); column c acts on vertex c+1.

    Chain rule through ``F = Id + sqrt(eps) / (sign eps) [d1 d2] Minv``:
    ``coef`` is the coefficient of the term times ``sqrt(eps) / eps`` and
    ``sign`` the triangles' orientation signs.  ``out``, if given, is a
    contiguous buffer shaped like ``dPhi_dF`` that receives the result.
    """
    P = np.matmul(dPhi_dF.reshape(-1, 2), Minv.T,
                  out=None if out is None else out.reshape(-1, 2)).reshape(dPhi_dF.shape)
    P *= coef
    P *= sign[:, None, None]
    return P


class _Workspace:
    """Buffers that let one :class:`Assembly` evaluate without allocating.

    The kernel walks the bonds, then the triangles, in blocks of at most
    ``BLOCK`` and passes every view as an ``out=`` argument.  Only what is
    summed or scattered is full-length:

    * ``wr``, the per-bond W, scaled in place by the boundary weights once
      the pair sum is taken;
    * ``cells``, ``chi_vals`` and, in mode ``f``, ``field_vals``, one value
      per triangle (zero off the penalty's support);
    * with a gradient, the bond streams and the accumulator of the
      triangle terms, which :meth:`add_gradient` makes.

    Everything else is one block of ``block`` bonds or triangles long:
    the bond vectors ``z``, their take buffer ``z0`` and the stretches
    ``r`` (whose spent row takes the boundary weights); the edge differences
    ``D``, the deformation gradients ``G`` (whose first two rows also take
    the corner values), the stretch arrays ``a``, ``b`` and ``t`` (whose
    spent rows hold the signs times eps, then det F) and the two masks:
    22 rows of floats.  Mode ``f`` adds the row-major (k, 2, 2) chain-rule
    ``stack`` d Phi / dF, its product ``P`` and the ``field`` and
    ``field_masks`` work rows of :func:`~fraclat.material.field_energy_rows`.
    The buffers are flat or row-major, so that the views of a short last
    block are contiguous.

    Takes into a view use ``mode="clip"`` (every index is in range):
    under the default mode numpy fills a temporary copy of ``out``.
    """

    def __init__(self, asm: Assembly):
        n, E, M = asm.mesh.n_points, asm.mesh.n_edges, asm.mesh.n_triangles
        self.block = B = min(BLOCK, max(E, M, 1))
        self.xc = np.empty((2, n))
        self.wr, self.cells = np.empty(E), np.empty(M)
        self.chi_vals = np.empty(M) if asm.mode != "plain" else None
        self.z, self.z0, self.r = np.empty(2 * B), np.empty(2 * B), np.empty(B)
        self.pos, self.flip = np.empty(B, dtype=bool), np.empty(B, dtype=bool)
        self.D, self.G = np.empty(4 * B), np.empty(4 * B)
        self.a, self.b, self.t = np.empty(3 * B), np.empty(3 * B), np.empty(3 * B)
        if asm.mode == "f":
            self.field_vals, self.stack, self.P = np.empty(M), np.empty(4 * B), np.empty(4 * B)
            self.field, self.field_masks = np.empty((11, B)), np.empty((4, B), dtype=bool)
        self.index = None  # the gradient's buffers, made by the first gradient

    def add_gradient(self, asm: Assembly):
        """Make the gradient's buffers, once.

        The ``bincount`` streams read ``[bond e1 | bond e0]``: ``index``
        holds the bond ends, ``wx`` and ``wy`` the two components of each
        bond's force on them.  Outside mode ``plain`` the triangle terms
        are summed per point in ``acc``, component-major, through one block
        of ``tri_index`` rows (each triangle's corners 1, 2 and 0) and
        ``tri_terms`` rows (their terms, component by component).
        """
        if self.index is not None:
            return
        self.index = asm._bond_ends[::-1].ravel().astype(np.intp)
        self.wx, self.wy = np.empty(len(self.index)), np.empty(len(self.index))
        if asm.mode != "plain":
            self.acc = np.empty((2, asm.mesh.n_points))
            self.tri_index = np.empty((self.block, 3), dtype=np.intp)
            self.tri_terms = np.empty((2, self.block, 3))


class Assembly:
    """The rescaled energy of one mesh, on the mesh's own arrays.

    Built once per (mesh, potential, mode, penalty, field model) and
    evaluated on raw ``(N, 2)`` displacement arrays.  The energy reads
    every bond and triangle of the mesh, which lies in the specimen
    Omega, and reads the mesh's arrays in place: its bond ends and
    direction groups, incidences, triangle corners, orientation signs and
    basis inverse.  Every evaluation computes the bond stretches and the
    per-triangle deformation gradients once, checks the raw pair sum
    against the cell sum plus the boundary term to 1e-12 relative,
    evaluates the orientation penalty only on triangles with det F < 0 (it
    vanishes identically elsewhere) and scatters the bonds' gradient terms
    with ``np.bincount``.
    In mode ``f`` :meth:`breakdown` evaluates the sharp field cutoff and
    :meth:`value_and_grad` the smoothed one, the only form with a gradient.

    One kernel serves both methods.  It walks the bonds and then the
    triangles in blocks of ``BLOCK``.  Only the per-bond and per-triangle
    values that are summed, the gradient's two bond streams and its
    per-point accumulator are full-length.  Each sum and each ``bincount``
    runs once over its whole array, and the triangle terms of the penalty
    and the field reach the accumulator triangle by triangle, so the block
    length changes no bit of the result.  The first evaluation allocates a
    private workspace that every later evaluation reuses, so a descent
    allocates no large temporaries after its first step; the first
    :meth:`value_and_grad` adds the gradient's buffers to it.  Evaluations
    of one assembly must not run concurrently.
    """

    def __init__(self, mesh: TriangleMesh, pot: PairPotential, mode: str = "plain",
                 chi: PenaltyChi | None = None,
                 model: MagnetizationModel | None = None):
        if mode not in MODES:
            raise DiscreteEnergyError(f"unknown mode {mode!r}")
        if mode != "plain" and chi is None:
            raise DiscreteEnergyError(f"mode {mode!r} needs a penalty definition")
        if mode == "f" and model is None:
            raise DiscreteEnergyError(f"mode {mode!r} needs a magnetization model")
        self.mesh, self.pot, self.mode = mesh, pot, mode
        self.chi, self.model = chi, model
        eps = mesh.spec.eps
        self.eps, self._sqrt_eps = eps, np.sqrt(eps)

        # the mesh's own arrays, the index arrays in their component-major layout
        self._vecs = mesh.vecs
        self._bond_ends = mesh.edges.T  # (2, E)
        self._corners = mesh.triangles.T  # (3, M)
        self._sign, self._minv = mesh.tri_sign, mesh.basis_inverse
        # chain-rule factors of the triangle terms: the coefficient times
        # sqrt(eps) / eps, rounded as written (the triangle's sign is exact)
        self._coef_chi = eps * self._sqrt_eps / eps
        self._coef_field = SQRT3 * eps / 4.0 * self._sqrt_eps / eps
        self._ws = None  # made by the first evaluation

    def breakdown(self, x: np.ndarray) -> EnergyBreakdown:
        """Energy of the displacement values ``x``, split into its parts."""
        return self._evaluate(x, False)[0]

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Total energy of ``x`` and its gradient with respect to ``x``."""
        bd, grad = self._evaluate(x, True)
        return bd.total, grad

    def _evaluate(self, x: np.ndarray, with_grad: bool):
        n = self.mesh.n_points
        x = np.asarray(x, dtype=float)
        if x.shape != (n, 2):
            raise DiscreteEnergyError(f"expected values of shape {(n, 2)}, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise DiscreteEnergyError("displacement contains non-finite entries")
        eps, pot = self.eps, self.pot
        if self._ws is None:
            self._ws = _Workspace(self)
        ws = self._ws
        if with_grad:
            ws.add_gradient(self)
            ws.has_terms = False  # acc is zeroed with the first triangle term
        xc = ws.xc
        xc[...] = x.T

        # bonds: deformed bond vectors z (in units of eps) and stretches r = |z|
        e0, e1 = self._bond_ends
        E, B = len(e0), ws.block
        for lo in range(0, E, B):
            blk = slice(lo, min(lo + B, E))
            k = blk.stop - lo
            z, z0, r = ws.z[:2 * k].reshape(2, k), ws.z0[:2 * k].reshape(2, k), ws.r[:k]
            xc.take(e1[blk], axis=1, out=z, mode="clip")
            z -= xc.take(e0[blk], axis=1, out=z0, mode="clip")
            z /= self._sqrt_eps
            for d, group in enumerate(self.mesh.edge_groups):  # add each bond's lattice vector
                part = slice(max(group.start, lo) - lo, min(group.stop, blk.stop) - lo)
                if part.start < part.stop:
                    z[:, part] += self._vecs[d][:, None]
            zx, zy = z
            np.multiply(zx, zx, out=r)
            r += np.multiply(zy, zy, out=z0[0])
            np.sqrt(r, out=r)
            pot(r, out=ws.wr[blk])
            if with_grad:
                # the -gx slot holds the coefficient until the gx part is written
                gx, gy = ws.wx[blk], ws.wy[blk]
                coef = pot.deriv(r, out=ws.wx[E + lo:E + blk.stop])
                coef *= self._sqrt_eps
                np.divide(coef, r, out=coef, where=np.greater(r, 0.0, out=ws.pos[:k]))
                np.multiply(coef, zx, out=gx)
                np.multiply(coef, zy, out=gy)
                np.negative(gx, out=ws.wx[E + lo:E + blk.stop])
                np.negative(gy, out=ws.wy[E + lo:E + blk.stop])
        pair_total = eps * float(ws.wr.sum())
        # each block's boundary weights, twice the per-pair ones, into the spent stretches
        weights, inc = 2.0 * EDGE_WEIGHTS, self.mesh.edge_inc_omega
        for lo in range(0, E, B):
            blk = slice(lo, min(lo + B, E))
            ws.wr[blk] *= weights.take(inc[blk], out=ws.r[:blk.stop - lo], mode="clip")
        boundary = eps * float(ws.wr.sum())

        # triangles: F[j, i] holds the component F_ij on every triangle of a
        # block, and the cell energy is half the pair energy of the sides |F v|
        M = self.mesh.n_triangles
        for lo in range(0, M, B):
            self._triangle_block(ws, slice(lo, min(lo + B, M)), with_grad)
        bulk = eps * float(ws.cells.sum())
        _check_pair_identity(pair_total, bulk, boundary)
        penalty = fieldval = 0.0
        if self.mode != "plain":
            penalty = eps * float(ws.chi_vals.sum())
        if self.mode == "f":
            fieldval = SQRT3 * eps / 4.0 * float(np.sum(ws.field_vals))
        bd = EnergyBreakdown(mode=self.mode, bulk=bulk, boundary=boundary,
                             penalty=penalty, field=fieldval)
        if not with_grad:
            return bd, None

        # gradient: one bincount per component over the bond streams, plus
        # the triangle terms
        grad = np.empty((n, 2))
        grad[:, 0] = np.bincount(ws.index, ws.wx, minlength=n)
        grad[:, 1] = np.bincount(ws.index, ws.wy, minlength=n)
        if ws.has_terms:
            grad += ws.acc.T
        return bd, grad

    def _triangle_block(self, ws: _Workspace, blk: slice, with_grad: bool):
        """Cell, penalty and field values of the triangles ``blk``; with a
        gradient, their penalty and field terms go to the accumulator."""
        k = blk.stop - blk.start
        D, G = ws.D[:4 * k].reshape(2, 2, k), ws.G[:4 * k].reshape(2, 2, k)
        corners = [c[blk] for c in self._corners]
        a, b, t = (s[:3 * k].reshape(3, k) for s in (ws.a, ws.b, ws.t))
        den = t[0]  # the orientation signs times eps, spent once G is formed
        np.copyto(den, self._sign[blk])
        den *= self.eps
        _grad_u(ws.xc, corners, self._minv, den, D, G, G[0])
        F = G
        F *= self._sqrt_eps
        F[0, 0] += 1.0
        F[1, 1] += 1.0
        (F00, F10), (F01, F11) = F
        V0, V1 = self._vecs.T[:, :, None]  # (3, 1): the directions' components
        np.multiply(V0, F00, out=a)  # (3, k): F v for each bond direction
        a += np.multiply(V1, F01, out=t)
        np.multiply(V0, F10, out=b)
        b += np.multiply(V1, F11, out=t)
        a *= a
        b *= b
        a += b
        W = self.pot(np.sqrt(a, out=a), out=b)
        cells = np.add(W[0], W[1], out=ws.cells[blk])
        cells += W[2]
        cells *= 0.5

        rows = P = None  # the triangles with a gradient term, and their chain-rule products
        if self.mode == "f":
            # the sharp cutoff for the value alone, the smoothed one with a gradient
            dPhi = ws.stack[:4 * k].reshape(k, 2, 2) if with_grad else None
            field_energy_rows((F00, F01, F10, F11), self.model, with_grad, ws.field_vals[blk],
                              dPhi, (ws.field[:, :k], ws.field_masks[:, :k]))
            if with_grad:
                rows, P = blk, _chain_to_edges(dPhi, self._minv, self._coef_field,
                                               self._sign[blk], out=ws.P[:4 * k])
        if self.mode != "plain":
            det = np.multiply(F00, F11, out=t[0])
            det -= np.multiply(F01, F10, out=t[1])
            support = np.less(det, 0.0, out=ws.flip[:k]).nonzero()[0]
            chi_vals = ws.chi_vals[blk]
            chi_vals.fill(0.0)
            if len(support):
                # contiguous stacks: matmul rounds a strided one differently
                Fs = np.ascontiguousarray(F.transpose(2, 1, 0)[support])
                chi_vals[support] = self.chi(Fs)
                if with_grad:
                    P_chi = _chain_to_edges(self.chi.grad(Fs), self._minv, self._coef_chi,
                                            self._sign[blk][support])
                    if P is None:
                        rows, P = support + blk.start, P_chi
                    else:
                        P[support] += P_chi
        if rows is not None:
            self._add_terms(ws, rows, P)

    def _add_terms(self, ws: _Workspace, rows, P: np.ndarray):
        """Add the chain-rule products ``P`` of the triangles ``rows`` to ``ws.acc``.

        Corners 1 and 2 of each triangle take its two columns, corner 0
        minus their sum.  ``np.add.at`` adds them triangle by triangle in
        ascending order, so a point sums its terms in the same order
        whatever the block length.
        """
        if not ws.has_terms:
            ws.acc.fill(0.0)
            ws.has_terms = True
        k = len(P)
        index, terms = ws.tri_index[:k], ws.tri_terms[:, :k]
        t0, t1, t2 = self._corners
        for c, corner in enumerate((t1, t2, t0)):
            index[:, c] = corner[rows]
        for i in range(2):
            p1, p2, p0 = terms[i].T
            np.copyto(p1, P[:, i, 0])
            np.copyto(p2, P[:, i, 1])
            np.add(p1, p2, out=p0)
            np.negative(p0, out=p0)
            np.add.at(ws.acc[i], index.ravel(), terms[i].ravel())


def energy_rescaled(u: Displacement, pot: PairPotential, mode: str = "plain",
                    chi: PenaltyChi | None = None,
                    model: MagnetizationModel | None = None) -> EnergyBreakdown:
    """Rescaled energy eps * E(id + sqrt(eps) u) with the selected extras.

    The energy lives on the specimen Omega, which the mesh covers.  The
    bulk part sums cell energies over the mesh triangles, the boundary
    part collects the under-covered bonds, and the two together are
    verified against the raw pair sum to 1e-12 relative on every call.
    Builds a transient :class:`Assembly` and evaluates it once.  Code that
    evaluates several configurations on one mesh can instead build the
    assembly once and call :meth:`Assembly.breakdown` on each, with the
    same result bit for bit, as :func:`fraclat.solver.magnet_demo` and
    :func:`fraclat.solver.convergence_study` do.
    """
    return Assembly(u.mesh, pot, mode, chi, model).breakdown(u.values)


def energy_deformation(mesh: TriangleMesh, y_values: np.ndarray,
                       pot: PairPotential) -> EnergyBreakdown:
    """Unrescaled pair energy of a raw deformation y, with the same split."""
    eps = mesh.spec.eps
    u = Displacement(mesh, (y_values - mesh.points) / np.sqrt(eps))
    bd = energy_rescaled(u, pot, mode="plain")
    return EnergyBreakdown(mode="plain", bulk=bd.bulk / eps, boundary=bd.boundary / eps)


def specimen_area(mesh: TriangleMesh) -> float:
    """Total area of the mesh triangles (the triangulated specimen)."""
    return mesh.triangle_area * mesh.n_triangles


def renormalization_sides(u: Displacement, pot: PairPotential, chi: PenaltyChi,
                          model: MagnetizationModel) -> tuple[float, float]:
    """Both sides of the magnet renormalization identity.

    Returns ``(field_total, magnetic_total - kappa |Omega_eps| / eps)``;
    the two agree exactly whenever every triangle satisfies |F| <= T.  The
    magnetic total swaps the mode-``f`` field term for ``-(kappa/eps) *
    integral of m1``; m1 needs det F > 0 on Omega, else MaterialError.
    """
    mesh, eps = u.mesh, u.mesh.spec.eps
    bd = energy_rescaled(u, pot, mode="f", chi=chi, model=model)
    F = interpolate_gradients(u)[1]
    magnetic = -model.kappa * SQRT3 * eps / 4.0 * float(magnetization_first(F).sum())
    return bd.total, (bd.bulk + bd.boundary + bd.penalty + magnetic
                      + model.kappa / eps * specimen_area(mesh))


# ----------------------------------------------------------------------
# analytic gradient
# ----------------------------------------------------------------------

def gradient(u: Displacement, pot: PairPotential, mode: str = "plain",
             chi: PenaltyChi | None = None,
             model: MagnetizationModel | None = None) -> np.ndarray:
    """Analytic gradient of :func:`energy_rescaled` with respect to u.

    The field term is differentiated in its smoothed form, so every mode
    has a gradient.
    """
    return Assembly(u.mesh, pot, mode, chi, model).value_and_grad(u.values)[1]


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


_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g\r\n"  # a displacement row, as format_float gives it
_CSV_DTYPE = np.dtype([("i", "i8"), ("x", "f8"), ("y", "f8"), ("u1", "f8"), ("u2", "f8")])
_CSV_BLOCK_ROWS = 4096  # rows formatted or parsed at once: bounds the transient strings


def displacement_to_csv(u: Displacement, path: str):
    """Write one ``index,x,y,u1,u2`` row per mesh point, floats to 17 digits.

    The bytes are those of :mod:`csv` writing :func:`format_float` fields
    (``\\r\\n`` line ends); rows are formatted a block at a time.
    """
    points, values = u.mesh.points, u.values
    with open(path, "w", newline="") as fh:
        fh.write(",".join(DISPLACEMENT_HEADER) + "\r\n")
        for start in range(0, len(points), _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, len(points))
            block = np.empty((stop - start, 5))
            block[:, 0] = np.arange(start, stop)
            block[:, 1:3] = points[start:stop]
            block[:, 3:] = values[start:stop]
            fh.write((_CSV_ROW * (stop - start)) % tuple(block.ravel().tolist()))


def _parse_rows_in_blocks(fh, n: int):
    """Parse the data rows with numpy's text reader; None where it differs.

    Returns ``(index, data, lines, stop)`` as :func:`_parse_rows_one_by_one`
    does, or None when numpy refuses a block or skips a line of it, so
    that the row loop can name the first malformed line.
    """
    blocks = []
    with warnings.catch_warnings():
        # numpy < 2 parses an integer such as "7.0" through a float, with
        # a deprecation warning; the row loop rejects it
        warnings.simplefilter("error", DeprecationWarning)
        warnings.simplefilter("ignore", UserWarning)  # a block of blank lines has no data
        while lines := list(itertools.islice(fh, _CSV_BLOCK_ROWS)):
            try:
                rows = np.loadtxt(lines, delimiter=",", comments=None, dtype=_CSV_DTYPE,
                                  ndmin=1)
            except (ValueError, DeprecationWarning):
                return None
            if len(rows) != len(lines):  # numpy skips blank lines, the row loop rejects them
                return None
            blocks.append(rows)
    rows = np.concatenate(blocks) if blocks else np.empty(0, dtype=_CSV_DTYPE)
    lines = np.arange(2, len(rows) + 2)
    stop = None
    outside = np.flatnonzero((rows["i"] < 0) | (rows["i"] >= n))
    if len(outside):
        k = outside[0]
        stop = DiscreteEnergyError(
            f"line {lines[k]}: point index {rows['i'][k]} outside the mesh's 0..{n - 1}")
        rows, lines = rows[:k], lines[:k]
    data = np.column_stack([rows[name] for name in _CSV_DTYPE.names[1:]])
    return rows["i"], data, lines, stop


def _parse_rows_one_by_one(fh, n: int):
    """Parse the data rows after the header up to the first malformed or
    out-of-range one.

    Returns the parsed ``(index, data, lines, stop)`` arrays, where
    ``stop`` is the error of the row that ended parsing, or None.
    """
    index, data, lines = array("q"), array("d"), array("q")  # flat: no object kept per value
    stop = None
    reader = csv.reader(fh)
    next(reader)  # the header, already checked
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
    return (np.frombuffer(index, dtype=np.int64), np.frombuffer(data).reshape(-1, 4),
            np.frombuffer(lines, dtype=np.int64), stop)


def displacement_from_csv(path: str, mesh: TriangleMesh) -> Displacement:
    """Read a displacement written by :func:`displacement_to_csv`.

    Every mesh point must appear exactly once, at its own coordinates,
    with a finite displacement.  The first faulty row in file order is
    reported by its line, with the first of its faults in the order
    malformed, index out of range, repeated, off the mesh, non-finite.
    A row is accepted when Python's ``int`` and ``float`` parse its five
    comma-separated fields; rows after the first malformed or
    out-of-range one are not read.  numpy's text reader parses the file
    in blocks; where it refuses a line or skips a blank one, the rows are
    parsed again one by one, so that the same files are accepted with the
    same values and the same messages.
    """
    n = mesh.n_points
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header != DISPLACEMENT_HEADER:
            raise DiscreteEnergyError(f"line 1: unexpected displacement header {header}")
        parsed = _parse_rows_in_blocks(fh, n)
        if parsed is None:
            fh.seek(0)
            parsed = _parse_rows_one_by_one(fh, n)
    idx, data, lines, stop = parsed
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

"""Crack geometry extracted from heavily deformed triangles.

A triangle is broken when at least two of its three sides are stretched
by ``STRETCH_FACTOR`` = 2 or more; F is formed on those alone.  Every
triangle with the paper's |F| > 7 is among them: ``sum_v |F v|^2 =
(3/2)|F|^2`` puts one side past 4.9 and, as ``v3 = v2 - v1``, another
past 2.9.  Broken triangles are classified by the number m of stretched
sides and the affine interpolant is replaced there by a discontinuous
map with a controlled constant gradient:

* m = 2: the gradient keeps the image of the intact bond and returns the
  two stretched bonds to unit length, choosing the branch closer to a
  proper rotation; the jump sits on the midsegment parallel to the
  intact bond.
* m = 3: the gradient is reset to the identity and the jump sits on two
  of the three midsegments (three interchangeable variants).

The jump vector on each midsegment is the gradient mismatch applied to
the crossing bond, which reproduces the opening of the underlying
displacement up to order sqrt(eps).

:func:`build_modified` keeps the modified gradients of the broken
triangles alone; elsewhere the modified map's gradient is the
interpolant's F, as :func:`interpolate_gradients` returns it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .continuum import _oriented_normals, surface_densities
from .discrete_energy import Displacement, corner_differences, interpolate_gradients
from .lattice import BLOCK, SIDE_CORNERS, TriangleMesh, perp, row_dots

STRETCH_FACTOR = 2.0


class CrackError(RuntimeError):
    """Degenerate crack geometry input."""


def symmetric_quartic_sum(H: np.ndarray, vecs: np.ndarray) -> tuple[float, float]:
    """Both sides of the quartic trace identity for a symmetric matrix.

    Returns ``(sum_v <v, H v>^2, (3/8)(2 tr(H^2) + (tr H)^2))``; the two
    agree for every lattice rotation.
    """
    H = np.asarray(H, dtype=float)
    lhs = float((np.einsum("vi,ij,vj->v", vecs, H, vecs) ** 2).sum())
    tr = H[0, 0] + H[1, 1]
    tr2 = float(np.trace(H @ H))
    return lhs, 3.0 / 8.0 * (2.0 * tr2 + tr * tr)


@dataclass
class BrokenClassification:
    """All broken triangles of a configuration and their deformation gradients.

    Row j of the per-triangle arrays describes triangle ``tri_indices[j]``;
    the triangles are in ascending order.
    """

    tri_indices: np.ndarray  # (k,) the broken triangles
    m: np.ndarray            # (k,) number of stretched sides, 2 or 3
    stretched: np.ndarray    # (k, 3) bool per bond direction
    intact: np.ndarray       # (k,) bond kept by the modified map, -1 where m = 3
    F: np.ndarray            # (k, 2, 2) contiguous deformation gradients on them

    @property
    def count(self) -> int:
        return len(self.tri_indices)


def classify_broken(u: Displacement) -> BrokenClassification:
    """The triangles with two or three sides stretched by ``STRETCH_FACTOR`` or more.

    The side stretches are formed ``lattice.BLOCK`` triangles at a
    time and only the broken rows are kept, so the transient is a few
    blocks long; the block length changes no bit of the result.
    """
    mesh = u.mesh
    xc = np.ascontiguousarray(u.values.T)
    scale = math.sqrt(mesh.spec.eps)
    V = mesh.vecs[:, :, None]
    M, B = mesh.n_triangles, BLOCK
    buf = np.empty(6 * min(B, M))
    tri, m, stretched = [], [], []  # the broken rows of each block (a mesh has one)
    for lo in range(0, M, B):
        blk = slice(lo, min(lo + B, M))
        # side d's image is v_d + D_d / (sign sqrt(eps)) with D_2 = D_1 - D_0;
        # the slot of D_2 takes the corner values until it is written
        sides = buf[:6 * (blk.stop - lo)].reshape(3, 2, -1)
        corner_differences(xc, [mesh.triangles[blk, k] for k in range(3)], sides[:2], sides[2])
        np.subtract(sides[1], sides[0], out=sides[2])
        sides /= mesh.tri_sign[blk] * scale
        sides += V
        sides *= sides
        past = np.add(sides[:, 0], sides[:, 1], out=sides[:, 0]) >= STRETCH_FACTOR ** 2
        count = past.sum(axis=0)
        rows = np.flatnonzero(count >= 2)
        tri.append(rows + lo)
        m.append(count[rows])
        stretched.append(past[:, rows].T)
    del xc, buf  # F is formed from the broken rows' own corner values
    tri, m, stretched = np.concatenate(tri), np.concatenate(m), np.concatenate(stretched)
    intact = np.where(m == 2, np.argmin(stretched, axis=1), -1)
    F = np.ascontiguousarray(interpolate_gradients(u, tri)[1])
    return BrokenClassification(tri_indices=tri, m=m, stretched=stretched, intact=intact, F=F)


# ----------------------------------------------------------------------
# the modified interpolation
# ----------------------------------------------------------------------

def _released_gradient(F: np.ndarray, intact: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Constant gradients keeping the intact bond and relaxing the others.

    For each of the stacked gradients ``F`` (k, 2, 2) with intact bond
    ``intact`` (k,), solves ``A v_intact = F v_intact`` with ``|A v| = 1``
    for the other two bond directions; among the two reflection-related
    solutions the one with the larger determinant (closer to the
    rotations) is taken, and in the fully degenerate case
    ``F v_intact = 0`` the solution closest to the identity.
    """
    # inverse of the basis (v_intact, v_other), other = the lowest non-intact bond
    Binv = np.array([np.linalg.inv(np.column_stack([vecs[i], vecs[1 if i == 0 else 0]]))
                     for i in range(3)])[intact]
    w = np.matmul(F, vecs[intact][:, :, None])[:, :, 0]
    center = np.where((intact == 2)[:, None], -w, w)
    d = np.sqrt(row_dots(center, center))
    with np.errstate(divide="ignore", invalid="ignore"):  # the degenerate rows
        h = np.sqrt(np.maximum(1.0 - 0.25 * d * d, 0.0))
        offsets = (h / d)[:, None] * perp(center)
        A = [np.matmul(np.stack([w, 0.5 * center + sign * offsets], axis=2), Binv)
             for sign in (1.0, -1.0)]
    det = [a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0] for a in A]
    minus = det[1] > det[0]
    best = np.where(minus[:, None, None], A[1], A[0])
    degenerate = d < 1e-14
    if np.any(~degenerate & (np.where(minus, det[1], det[0]) < -1e-12)):
        raise AssertionError("no orientation-preserving branch found")
    rho2 = Binv[:, 1]
    z = rho2 / np.sqrt(row_dots(rho2, rho2))[:, None]
    return np.where(degenerate[:, None, None], np.matmul(np.stack([w, z], axis=2), Binv), best)


@dataclass
class CrackSegment:
    """One extracted jump segment (a triangle midsegment) in the reference frame."""

    p0: np.ndarray
    p1: np.ndarray
    normal: np.ndarray
    jump: np.ndarray
    tri: int
    h_index: int  # which midsegment of the host triangle

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.p1 - self.p0))


@dataclass
class CrackSet:
    """Modified interpolation summary: gradients, segments, book-keeping.

    Row k of the segment arrays is jump segment k; the segments follow the
    broken triangles in order and, within one triangle, its midsegments.
    Off the broken triangles the modified map's gradient is ``interpolate_gradients(u)[1]``.
    """

    p0: np.ndarray        # (S, 2) segment end points in the reference frame
    p1: np.ndarray        # (S, 2)
    normal: np.ndarray    # (S, 2) unit normals, as continuum._oriented_normals gives them
    jump: np.ndarray      # (S, 2) jump vectors in the displacement scaling
    tri: np.ndarray       # (S,) host triangles
    h_index: np.ndarray   # (S,) which midsegment of its host triangle
    grads: np.ndarray     # (k, 2, 2) gradient of the modified map on each broken triangle
    variant: int

    @cached_property
    def segments(self) -> list:
        """One :class:`CrackSegment` per jump segment."""
        return [CrackSegment(p0=p0, p1=p1, normal=nu, jump=j, tri=t, h_index=h)
                for p0, p1, nu, j, t, h in zip(self.p0, self.p1, self.normal, self.jump,
                                               self.tri.tolist(), self.h_index.tolist())]

    @property
    def lengths(self) -> np.ndarray:
        d = self.p1 - self.p0
        return np.sqrt(row_dots(d, d))

    def total_length(self) -> float:
        return float(sum(self.lengths.tolist()))

    def rows(self) -> list:
        """One row of ``CRACK_HEADER`` per segment."""
        table = np.column_stack([self.p0, self.p1, self.normal, self.jump]).tolist()
        return [[k, *row] for k, row in enumerate(table)]


CRACK_HEADER = ["seg_id", "x0", "y0", "x1", "y1", "nu_x", "nu_y", "jump1", "jump2"]


# side s of a triangle (P0, P1, P2) runs along bond direction s, between SIDE_CORNERS[s]
_OPPOSITE_VERTEX = np.array([2, 1, 0])
_OTHER_SIDES = np.array([(1, 2), (0, 2), (0, 1)])


def build_modified(u: Displacement, classes: BrokenClassification,
                   variant: int = 1) -> CrackSet:
    """Replace the interpolant on broken triangles and emit jump segments.

    ``variant`` (1, 2 or 3) selects which pair of midsegments carries the
    jump on fully broken (m = 3) triangles.
    """
    if variant not in (1, 2, 3):
        raise CrackError(f"variant must be 1, 2 or 3, got {variant}")
    mesh = u.mesh
    sqeps = math.sqrt(mesh.spec.eps)
    vi = variant - 1
    two = classes.m == 2
    A = np.tile(np.eye(2), (classes.count, 1, 1))
    A[two] = _released_gradient(classes.F[two], classes.intact[two], mesh.vecs)

    # m = 2: one segment, the midsegment parallel to the intact side; m = 3:
    # the two midsegments other than the variant one, in order
    per_tri = np.where(two, 1, 2)
    rec = np.repeat(np.arange(classes.count), per_tri)
    nth = np.arange(len(rec)) - (np.cumsum(per_tri) - per_tri)[rec]
    seg_two = two[rec]
    s = np.where(seg_two, classes.intact[rec], np.delete(np.arange(3), vi)[nth])
    # the midsegment parallel to side s cuts off the vertex opposite that
    # side; the far vertex is the first one of side s (m = 2) or, the
    # middle piece of the tent, the vertex opposite the variant side (m = 3)
    corner = _OPPOSITE_VERTEX[s]
    far = np.where(seg_two, SIDE_CORNERS[s, 0], _OPPOSITE_VERTEX[vi])
    tri = classes.tri_indices[rec]
    verts = mesh.triangles[tri]
    P = mesh.points[verts]
    Y = P + sqeps * u.values[verts]
    mids = 0.5 * (P[:, SIDE_CORNERS[:, 0]] + P[:, SIDE_CORNERS[:, 1]])
    seg = np.arange(len(rec))
    p0, p1 = mids[seg, _OTHER_SIDES[s, 0]], mids[seg, _OTHER_SIDES[s, 1]]
    normal = _oriented_normals(p1 - p0)
    Aseg = A[rec]
    Pc, Pf = P[seg, corner], P[seg, far]
    jump_y = ((Y[seg, corner] - np.matmul(Aseg, Pc[:, :, None])[:, :, 0])
              - (Y[seg, far] - np.matmul(Aseg, Pf[:, :, None])[:, :, 0]))
    side = row_dots(normal, Pc - 0.5 * (p0 + p1))
    jump_y = np.where((side < 0.0)[:, None], -jump_y, jump_y)
    return CrackSet(p0=p0, p1=p1, normal=normal, jump=jump_y / sqeps, tri=tri, h_index=s,
                    grads=A, variant=variant)


def jump_vectors(u: Displacement, classes: BrokenClassification,
                 crack: CrackSet) -> np.ndarray:
    """Reconstruct every jump from the gradient-mismatch relation.

    Uses ``eps F v = eps A v + sqrt(eps) [u']`` for a bond v crossing the
    segment, oriented along the segment normal, and verifies the result
    against the geometric jumps stored in the crack set.
    """
    sqeps = math.sqrt(u.mesh.spec.eps)
    V = u.mesh.vecs
    unclassified = np.flatnonzero(~np.isin(crack.tri, classes.tri_indices))
    if len(unclassified):
        k = unclassified[0]
        raise CrackError(f"segment {k} lies on triangle {crack.tri[k]}, which is not broken")
    pos = np.searchsorted(classes.tri_indices, crack.tri)  # its row in the classification
    # the crossing bond: the lowest side other than the segment's own and,
    # on an m = 3 triangle, other than the variant side
    h = crack.h_index
    a = np.where(classes.m[pos] == 3, 3 - h - (crack.variant - 1), np.where(h == 0, 1, 0))
    sign = np.copysign(1.0, row_dots(V[a], crack.normal))
    mismatch = np.matmul(classes.F[pos] - crack.grads[pos], V[a][:, :, None])
    out = (sign * sqeps)[:, None] * mismatch[:, :, 0]
    # np.allclose per segment, with an absolute tolerance relative to the jump
    atol = 1e-10 * (1.0 + np.sqrt(row_dots(crack.jump, crack.jump)))
    with np.errstate(invalid="ignore"):
        close = ((np.abs(out - crack.jump) <= atol[:, None] + 1e-5 * np.abs(crack.jump))
                 & np.isfinite(crack.jump)) | (out == crack.jump)
    bad = np.flatnonzero(~close.all(axis=1))
    if len(bad):
        k = bad[0]
        raise CrackError(
            f"jump mismatch on segment {k}: identity gives {out[k]}, "
            f"geometry gives {crack.jump[k]}")
    return out


# ----------------------------------------------------------------------
# derived quantities
# ----------------------------------------------------------------------

def crack_energy_estimate(crack: CrackSet, beta: float, vecs: np.ndarray) -> float:
    """Anisotropic surface energy of the extracted polyline."""
    return float(sum((crack.lengths * surface_densities(crack.normal, vecs, beta)).tolist()))


def principal_normal(crack: CrackSet) -> np.ndarray:
    """Length-weighted dominant normal direction of the extracted segments."""
    if not len(crack.tri):
        raise CrackError("empty crack set has no principal normal")
    n = crack.normal
    terms = crack.lengths[:, None, None] * (n[:, :, None] * n[:, None, :])
    # summed in segment order from zero, as a running sum would
    M = np.add.accumulate(np.concatenate([np.zeros((1, 2, 2)), terms]), axis=0)[-1]
    w, vecs = np.linalg.eigh(M)
    return vecs[:, int(np.argmax(w))]


def angle_between_lines_deg(n1: np.ndarray, n2: np.ndarray) -> float:
    """Angle between two undirected directions, in degrees within [0, 90]."""
    c = abs(float(np.dot(n1, n2)) / (np.linalg.norm(n1) * np.linalg.norm(n2)))
    return math.degrees(math.acos(min(c, 1.0)))


def broken_count_bound(energy_total: float, eps: float, pot) -> float:
    """Upper bound on the number of broken triangles from the energy.

    Every broken triangle contributes at least ``eps * inf{W(r): r >= 2}``
    to the rescaled energy.
    """
    floor = pot.tail_infimum(STRETCH_FACTOR)
    return energy_total / (eps * floor)


def spring_crossing_count(p0: np.ndarray, p1: np.ndarray, mesh: TriangleMesh,
                          direction: int) -> int:
    """Number of bonds of one lattice direction crossed by a straight segment.

    Raises if the segment passes through a lattice point (within 1e-12 of
    the line), in which case the caller should translate the segment by a
    small fraction of eps along its normal first.
    """
    if direction not in (0, 1, 2):
        raise CrackError(f"bond direction must be 0, 1 or 2, got {direction}")
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    d = p1 - p0
    length = float(np.linalg.norm(d))
    if length < 1e-14:
        raise CrackError("degenerate crack segment")
    bonds = mesh.edges[mesh.edge_groups[direction]]
    a = mesh.points[bonds[:, 0]]
    b = mesh.points[bonds[:, 1]]
    # signed distances of bond endpoints from the crack line
    sa = ((a - p0) @ perp(d)) / length
    sb = ((b - p0) @ perp(d)) / length
    ta = (a - p0) @ d / length ** 2
    tb = (b - p0) @ d / length ** 2
    tol = 1e-12 * max(1.0, length)
    on_line = (np.abs(sa) < tol) & (ta > -tol) & (ta < 1.0 + tol)
    on_line |= (np.abs(sb) < tol) & (tb > -tol) & (tb < 1.0 + tol)
    if np.any(on_line):
        raise CrackError(
            "the segment passes through a lattice point; translate it by a "
            "small fraction of eps along its normal and recount")
    opposite = sa * sb < 0.0
    # crossing parameter along the crack segment
    denom = sa - sb
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(opposite, (ta * (-sb) + tb * sa) / np.where(denom != 0, denom, 1.0), -1.0)
    return int(np.count_nonzero(opposite & (t >= 0.0) & (t <= 1.0)))

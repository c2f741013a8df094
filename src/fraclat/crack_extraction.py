"""Crack geometry extracted from heavily deformed triangles.

A triangle whose deformation gradient exceeds Frobenius norm 7 must have
at least two of its three bonds stretched beyond factor 2 (a consequence
of the quartic identity ``sum_v <v, H v>^2 = (3/8)(2 tr(H^2) + (tr H)^2)``
for symmetric H).  Such triangles are classified by the number m of
stretched bonds and the affine interpolant is replaced there by a
discontinuous map with a controlled constant gradient:

* m = 2: the gradient keeps the image of the intact bond and returns the
  two stretched bonds to unit length, choosing the branch closer to a
  proper rotation; the jump sits on the midsegment parallel to the
  intact bond.
* m = 3: the gradient is reset to the identity and the jump sits on two
  of the three midsegments (three interchangeable variants).

The jump vector on each midsegment is the gradient mismatch applied to
the crossing bond, which reproduces the opening of the underlying
displacement up to order sqrt(eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuum import _oriented_normal, surface_density
from .discrete_energy import Displacement, interpolate_gradients
from .lattice import LatticeVectors, TriangleMesh, perp

BREAK_THRESHOLD = 7.0
STRETCH_FACTOR = 2.0


class CrackError(RuntimeError):
    """Degenerate crack geometry input."""


def symmetric_quartic_sum(H: np.ndarray, vecs: LatticeVectors) -> tuple[float, float]:
    """Both sides of the quartic trace identity for a symmetric matrix.

    Returns ``(sum_v <v, H v>^2, (3/8)(2 tr(H^2) + (tr H)^2))``; the two
    agree for every lattice rotation.
    """
    H = np.asarray(H, dtype=float)
    V = vecs.as_array()
    lhs = float((np.einsum("vi,ij,vj->v", V, H, V) ** 2).sum())
    tr = H[0, 0] + H[1, 1]
    tr2 = float(np.trace(H @ H))
    return lhs, 3.0 / 8.0 * (2.0 * tr2 + tr * tr)


@dataclass
class BrokenTriangle:
    """Classification record of one broken triangle."""

    tri: int
    frobenius: float
    m: int
    stretched: np.ndarray  # bool per bond direction
    intact: int | None     # bond index kept by the modified map (m = 2)


@dataclass
class BrokenClassification:
    """All broken triangles of a configuration plus the gradients used."""

    records: list
    F: np.ndarray          # deformation gradients on every triangle

    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def tri_indices(self) -> np.ndarray:
        return np.array([r.tri for r in self.records], dtype=int)


def classify_broken(u: Displacement) -> BrokenClassification:
    """Find triangles with |F| beyond ``BREAK_THRESHOLD`` and count stretched bonds."""
    mesh = u.mesh
    _, F = interpolate_gradients(u)
    frob = np.linalg.norm(F, axis=(1, 2))
    V = mesh.vecs.as_array()
    records = []
    for t in np.flatnonzero(frob > BREAK_THRESHOLD):
        stretch = np.linalg.norm(F[t] @ V.T, axis=0)
        stretched = stretch >= STRETCH_FACTOR
        m = int(stretched.sum())
        if m < 2:
            raise AssertionError(
                f"triangle {t} has |F| = {frob[t]} > {BREAK_THRESHOLD} but only {m} "
                "stretched bonds; this contradicts the quartic norm bound")
        intact = int(np.flatnonzero(~stretched)[0]) if m == 2 else None
        records.append(BrokenTriangle(tri=int(t), frobenius=float(frob[t]),
                                      m=m, stretched=stretched, intact=intact))
    return BrokenClassification(records=records, F=F)


# ----------------------------------------------------------------------
# the modified interpolation
# ----------------------------------------------------------------------

def _released_gradient(F: np.ndarray, intact: int, vecs: LatticeVectors) -> np.ndarray:
    """Constant gradient keeping the intact bond and relaxing the others.

    Solves ``A v_intact = F v_intact`` with ``|A v| = 1`` for the other
    two bond directions; among the two reflection-related solutions the
    one with nonnegative determinant (closer to the rotations) is taken,
    and in the fully degenerate case ``F v_intact = 0`` the solution
    closest to the identity.
    """
    V = vecs.as_array()
    w = F @ V[intact]
    basis2 = 1 if intact == 0 else 0
    B = np.column_stack([V[intact], V[basis2]])
    Binv = np.linalg.inv(B)
    center = -w if intact == 2 else w
    d = float(np.linalg.norm(center))
    if d < 1e-14:
        rho2 = Binv[1]
        z = rho2 / np.linalg.norm(rho2)
        return np.column_stack([w, z]) @ Binv
    h = math.sqrt(max(1.0 - 0.25 * d * d, 0.0))
    offsets = (h / d) * perp(center)
    best = None
    for sign in (1.0, -1.0):
        z = 0.5 * center + sign * offsets
        A = np.column_stack([w, z]) @ Binv
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        if best is None or det > best[0]:
            best = (det, A)
    if best[0] < -1e-12:
        raise AssertionError("no orientation-preserving branch found")
    return best[1]


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
    """Modified interpolation summary: gradients, segments, book-keeping."""

    segments: list
    y_grads: np.ndarray     # per-triangle gradient of the modified map
    variant: int
    eps: float

    def total_length(self) -> float:
        return float(sum(seg.length for seg in self.segments))

    def rows(self) -> list:
        out = []
        for k, seg in enumerate(self.segments):
            out.append([k, seg.p0[0], seg.p0[1], seg.p1[0], seg.p1[1],
                        seg.normal[0], seg.normal[1], seg.jump[0], seg.jump[1]])
        return out


# side s of a triangle (P0, P1, P2) runs along bond direction s
_SIDE_VERTICES = ((0, 1), (0, 2), (1, 2))
_OPPOSITE_VERTEX = (2, 1, 0)


def build_modified(u: Displacement, classes: BrokenClassification,
                   variant: int = 1) -> CrackSet:
    """Replace the interpolant on broken triangles and emit jump segments.

    ``variant`` (1, 2 or 3) selects which pair of midsegments carries the
    jump on fully broken (m = 3) triangles.
    """
    if variant not in (1, 2, 3):
        raise CrackError(f"variant must be 1, 2 or 3, got {variant}")
    mesh = u.mesh
    eps = mesh.spec.eps
    sqeps = math.sqrt(eps)
    y_values = mesh.points + sqeps * u.values
    y_grads = classes.F.copy()
    segments = []
    vi = variant - 1

    for rec in classes.records:
        t = rec.tri
        P = mesh.points[mesh.triangles[t]]
        Y = y_values[mesh.triangles[t]]
        if rec.m == 2:
            A = _released_gradient(classes.F[t], rec.intact, mesh.vecs)
            seg_ids = (rec.intact,)
        else:
            A = np.eye(2)
            seg_ids = tuple(s for s in range(3) if s != vi)
        y_grads[t] = A
        for s in seg_ids:
            # the midsegment parallel to side s cuts off the vertex
            # opposite that side
            corner = _OPPOSITE_VERTEX[s]
            if rec.m == 2:
                far = _SIDE_VERTICES[s][0]
            else:
                # middle piece of the tent holds the vertex opposite the
                # variant side
                far = _OPPOSITE_VERTEX[vi]
            mids = {k: 0.5 * (P[_SIDE_VERTICES[k][0]] + P[_SIDE_VERTICES[k][1]])
                    for k in range(3)}
            others = [k for k in range(3) if k != s]
            p0, p1 = mids[others[0]], mids[others[1]]
            normal = _oriented_normal(p1 - p0)
            jump_y = (Y[corner] - A @ P[corner]) - (Y[far] - A @ P[far])
            side = np.dot(normal, P[corner] - 0.5 * (p0 + p1))
            if side < 0.0:
                jump_y = -jump_y
            segments.append(CrackSegment(p0=p0, p1=p1, normal=normal,
                                         jump=jump_y / sqeps, tri=t, h_index=s))
    return CrackSet(segments=segments, y_grads=y_grads, variant=variant, eps=eps)


def jump_vectors(u: Displacement, classes: BrokenClassification,
                 crack: CrackSet) -> np.ndarray:
    """Reconstruct every jump from the gradient-mismatch relation.

    Uses ``eps F v = eps A v + sqrt(eps) [u']`` for a bond v crossing the
    segment, oriented along the segment normal, and verifies the result
    against the geometric jumps stored in the crack set.
    """
    mesh = u.mesh
    sqeps = math.sqrt(mesh.spec.eps)
    V = mesh.vecs.as_array()
    out = np.zeros((len(crack.segments), 2))
    for k, seg in enumerate(crack.segments):
        crossing = [a for a in range(3) if a != seg.h_index]
        rec = next(r for r in classes.records if r.tri == seg.tri)
        if rec.m == 3:
            variant_side = crack.variant - 1
            crossing = [a for a in crossing if a != variant_side]
        a = crossing[0]
        sign = math.copysign(1.0, float(V[a] @ seg.normal))
        mismatch = (classes.F[seg.tri] - crack.y_grads[seg.tri]) @ V[a]
        out[k] = sign * sqeps * mismatch
        if not np.allclose(out[k], seg.jump, atol=1e-10 * (1.0 + np.linalg.norm(seg.jump))):
            raise CrackError(
                f"jump mismatch on segment {k}: identity gives {out[k]}, "
                f"geometry gives {seg.jump}")
    return out


# ----------------------------------------------------------------------
# derived quantities
# ----------------------------------------------------------------------

def crack_energy_estimate(crack: CrackSet, beta: float, vecs: LatticeVectors) -> float:
    """Anisotropic surface energy of the extracted polyline."""
    return float(sum(seg.length * surface_density(seg.normal, vecs, beta)
                     for seg in crack.segments))


def principal_normal(crack: CrackSet) -> np.ndarray:
    """Length-weighted dominant normal direction of the extracted segments."""
    if not crack.segments:
        raise CrackError("empty crack set has no principal normal")
    M = np.zeros((2, 2))
    for seg in crack.segments:
        M += seg.length * np.outer(seg.normal, seg.normal)
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
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    d = p1 - p0
    length = float(np.linalg.norm(d))
    if length < 1e-14:
        raise CrackError("degenerate crack segment")
    sel = mesh.edge_dir == direction
    a = mesh.points[mesh.edges[sel, 0]]
    b = mesh.points[mesh.edges[sel, 1]]
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

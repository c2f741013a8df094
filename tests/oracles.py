"""Reference implementations of the vectorized mesh, sampling, crack and CSV code.

Each function is the form that ``fraclat`` ran before its mesh topology
moved onto grid slices, its continuum sampling onto whole-array pieces,
its displacement gradients onto one component-major kernel, and its crack
extraction and displacement CSV I/O onto stacked arrays.  The tests
compare the package against these bit for bit and message for message.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from fraclat.crack_extraction import STRETCH_FACTOR, CrackError, CrackSegment
from fraclat.discrete_energy import (DISPLACEMENT_HEADER, Displacement,
                                     DiscreteEnergyError, format_float)
from fraclat.lattice import BOUNDARY_RTOL, SQRT3, LatticeSpec, _in_rect, lattice_vectors

_GEOM_TOL = 1e-12
_SIDE_VERTICES = ((0, 1), (0, 2), (1, 2))
_OPPOSITE_VERTEX = (2, 1, 0)


# ----------------------------------------------------------------------
# mesh topology and continuum sampling
# ----------------------------------------------------------------------

MESH_ARRAYS = ("points", "lam", "triangles", "tri_sign", "edges", "edge_dir",
               "edge_inc_omega", "dirichlet")

_TRIANGLE_CORNERS = (((0, 0), (1, 0), (0, 1)), ((0, 0), (-1, 0), (0, -1)))
_BOND_OFFSETS = (((1, 0), ((0, 0), (1, 0))),
                 ((0, 1), ((0, 0), (0, 1))),
                 ((-1, 1), ((-1, 0), (0, 1))))


# the mesh specs of the bit-identity tests: rotations on and off the lattice
# axes, odd 1/eps, short and long bars, and the ladder's finest rung
MESH_SPECS = [LatticeSpec(phi=phi, eps=1.0 / inv_eps, l=l)
              for inv_eps in (4, 8, 17, 64)
              for phi in (0.0, 1e-9, 0.3, math.pi / 6.0, 1.04)
              for l in (2.0, 1.0, 0.6)]
MESH_SPECS.append(LatticeSpec(phi=0.3, eps=1.0 / 256.0, l=2.0))


def spec_id(spec):
    return f"1/{round(1 / spec.eps)}-phi{spec.phi:.3g}-l{spec.l}"


def _shift(grid, s1, s2):
    """``out[i2, i1] = grid[i2 + s2, i1 + s1]``, wrapping around."""
    return np.roll(grid, (-s2, -s1), axis=(0, 1))


def mesh_arrays(spec, margin=0.0):
    """The arrays of ``TriangleMesh(spec)`` by name, from whole-box rolls.

    A positive ``margin`` widens the rectangle to (-margin, l + margin) x
    (0, 1), the rectangle the mesh once spanned, with the same rules.
    """
    vecs = lattice_vectors(spec.phi)
    eps = spec.eps
    tol = BOUNDARY_RTOL * eps
    A = np.column_stack([vecs.v1, vecs.v2])
    Ainv = np.linalg.inv(A)
    rect = (-margin, spec.l + margin, 0.0, 1.0)
    x0, x1, y0, y1 = rect
    corners = np.array([[x0, y0], [x1, y0], [x0, y1], [x1, y1]])
    lam_corners = corners @ Ainv.T / eps
    lo = np.floor(lam_corners.min(axis=0)).astype(int) - 2
    hi = np.ceil(lam_corners.max(axis=0)).astype(int) + 2
    L2, L1 = np.meshgrid(np.arange(lo[1], hi[1] + 1), np.arange(lo[0], hi[0] + 1),
                         indexing="ij")
    lam_all = np.column_stack([L1.ravel(), L2.ravel()])
    pts_all = (lam_all @ A.T) * eps
    keep = _in_rect(pts_all, rect, tol)
    out = {"lam": lam_all[keep], "points": pts_all[keep]}
    present = keep.reshape(L1.shape)
    grid = np.zeros(L1.shape, dtype=np.int64)
    grid[present] = np.arange(len(out["lam"]))

    tri = [np.logical_and.reduce([_shift(present, *c) for c in cs])
           for cs in _TRIANGLE_CORNERS]
    out["triangles"] = np.vstack([np.column_stack([_shift(grid, *c)[t] for c in cs])
                                  for t, cs in zip(tri, _TRIANGLE_CORNERS)])
    out["tri_sign"] = np.concatenate([np.full(t.sum(), sign)
                                      for t, sign in zip(tri, (1.0, -1.0))]).astype(np.int8)
    edges, dirs, inc = [], [], []
    up, down = tri
    for d, (offset, (up_base, down_base)) in enumerate(_BOND_OFFSETS):
        ok = present & _shift(present, *offset)
        edges.append(np.column_stack([grid[ok], _shift(grid, *offset)[ok]]))
        dirs.append(np.full(ok.sum(), d, dtype=np.int8))
        count = _shift(up, *up_base).astype(np.int8) + _shift(down, *down_base)
        inc.append(count[ok])
    out["edges"] = np.vstack(edges)
    out["edge_dir"] = np.concatenate(dirs)
    out["edge_inc_omega"] = np.concatenate(inc)
    x = out["points"][:, 0]
    out["dirichlet"] = np.minimum(x, spec.l - x) <= eps * (1.0 + BOUNDARY_RTOL)
    # the mesh stores its indices and coordinates as int32, its signs as int8
    for name in ("lam", "triangles", "edges"):
        out[name] = out[name].astype(np.int32)
    for arr in out.values():
        arr.setflags(write=False)
    return out


def continuum_eval(u_cont, points):
    """``u_cont.eval(points)``, gathering and scattering each piece's points."""
    idx = u_cont.locator(np.asarray(points, dtype=float))
    out = np.zeros((len(points), 2))
    for k, piece in enumerate(u_cont.pieces):
        sel = idx == k
        if np.any(sel):
            out[sel] = points[sel] @ piece.A.T + piece.b
    return out


# ----------------------------------------------------------------------
# displacement CSV
# ----------------------------------------------------------------------

def displacement_to_csv(u, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DISPLACEMENT_HEADER)
        for i, (p, v) in enumerate(zip(u.mesh.points, u.values)):
            writer.writerow([i, format_float(p[0]), format_float(p[1]),
                             format_float(v[0]), format_float(v[1])])


def displacement_from_csv(path, mesh):
    n = mesh.n_points
    index, data, lines = [], [], []
    stop = None
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
            data.append((x, y, u1, u2))
            lines.append(reader.line_num)
    seen = set()
    for i, (x, y, u1, u2), line in zip(index, data, lines):
        if i in seen:
            raise DiscreteEnergyError(f"line {line}: point {i} appears twice")
        seen.add(i)
        if not np.isclose([x, y], mesh.points[i], atol=1e-9 * max(1.0, mesh.spec.l)).all():
            raise DiscreteEnergyError(f"line {line}: point {i} does not match the mesh")
        if not (math.isfinite(u1) and math.isfinite(u2)):
            raise DiscreteEnergyError(f"line {line}: point {i} has a non-finite displacement")
    if stop is not None:
        raise stop
    missing = sorted(set(range(n)) - seen)
    if missing:
        raise DiscreteEnergyError(
            f"csv lacks {len(missing)} of the mesh's {n} points, first {missing[0]}")
    values = np.empty((n, 2))
    for i, row in zip(index, data):
        values[i] = row[2:]
    return Displacement(mesh, values)


# ----------------------------------------------------------------------
# interpolation
# ----------------------------------------------------------------------

def interpolate_gradients(u):
    """(grad_u, F) per triangle: row-major ``D (2M, 2) @ Minv``, then ``Id + sqrt(eps) grad_u``."""
    mesh, eps = u.mesh, u.mesh.spec.eps
    P = u.values[mesh.triangles]  # (M, 3, 2) corner values
    D = np.empty((mesh.n_triangles, 2, 2))  # D[t, i, k]: component i of edge k
    D[:, :, 0] = P[:, 1] - P[:, 0]
    D[:, :, 1] = P[:, 2] - P[:, 0]
    Minv = np.linalg.inv(np.column_stack([mesh.vecs.v1, mesh.vecs.v2]))
    grad_u = np.matmul(D.reshape(-1, 2), Minv).reshape(D.shape)
    grad_u /= (mesh.tri_sign * eps)[:, None, None]
    F = np.sqrt(eps) * grad_u
    F += np.eye(2)
    return grad_u, F


# ----------------------------------------------------------------------
# crack extraction
# ----------------------------------------------------------------------

@dataclass
class BrokenTriangle:
    """Classification record of one broken triangle."""

    tri: int
    m: int
    stretched: np.ndarray  # bool per bond direction
    intact: int | None     # bond index kept by the modified map (m = 2)


def _perp(v):
    return np.array([-v[1], v[0]])


def oriented_normal(direction):
    n = _perp(direction / np.linalg.norm(direction))
    if n[0] < -_GEOM_TOL or (abs(n[0]) <= _GEOM_TOL and n[1] < 0.0):
        n = -n
    return n


def surface_density(nu, vecs, beta):
    V = vecs.as_array()
    return 2.0 * beta / SQRT3 * float(np.abs(V @ np.asarray(nu)).sum())


def side_stretches(u):
    """(M, 3) stretch of each triangle side, ``|v_d + D_d / (sign sqrt(eps))|``.

    ``D_0`` and ``D_1`` run from the first corner to the second and third,
    and ``D_2 = D_1 - D_0`` from the second to the third.
    """
    mesh = u.mesh
    P = u.values[mesh.triangles]  # (M, 3, 2) corner values
    D = np.empty((mesh.n_triangles, 3, 2))
    D[:, 0] = P[:, 1] - P[:, 0]
    D[:, 1] = P[:, 2] - P[:, 0]
    D[:, 2] = D[:, 1] - D[:, 0]
    images = D / (mesh.tri_sign * math.sqrt(mesh.spec.eps))[:, None, None]
    images += mesh.vecs.as_array()
    return np.sqrt(images[:, :, 0] * images[:, :, 0] + images[:, :, 1] * images[:, :, 1])


def classify_broken(u):
    """(records, F) of the triangles with two or three sides stretched by 2 or more."""
    _, F = interpolate_gradients(u)
    records = []
    for t, stretched in enumerate((side_stretches(u) >= STRETCH_FACTOR).tolist()):
        m = sum(stretched)
        if m < 2:
            continue
        intact = stretched.index(False) if m == 2 else None
        records.append(BrokenTriangle(tri=t, m=m, stretched=np.array(stretched),
                                      intact=intact))
    return records, F


def released_gradient(F, intact, vecs):
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
    offsets = (h / d) * _perp(center)
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


def build_modified(u, records, F, variant=1):
    """(segments, y_grads) of the modified interpolation."""
    mesh = u.mesh
    sqeps = math.sqrt(mesh.spec.eps)
    y_values = mesh.points + sqeps * u.values
    y_grads = F.copy()
    segments = []
    vi = variant - 1
    for rec in records:
        t = rec.tri
        P = mesh.points[mesh.triangles[t]]
        Y = y_values[mesh.triangles[t]]
        if rec.m == 2:
            A = released_gradient(F[t], rec.intact, mesh.vecs)
            seg_ids = (rec.intact,)
        else:
            A = np.eye(2)
            seg_ids = tuple(s for s in range(3) if s != vi)
        y_grads[t] = A
        for s in seg_ids:
            corner = _OPPOSITE_VERTEX[s]
            far = _SIDE_VERTICES[s][0] if rec.m == 2 else _OPPOSITE_VERTEX[vi]
            mids = {k: 0.5 * (P[_SIDE_VERTICES[k][0]] + P[_SIDE_VERTICES[k][1]])
                    for k in range(3)}
            others = [k for k in range(3) if k != s]
            p0, p1 = mids[others[0]], mids[others[1]]
            normal = oriented_normal(p1 - p0)
            jump_y = (Y[corner] - A @ P[corner]) - (Y[far] - A @ P[far])
            side = np.dot(normal, P[corner] - 0.5 * (p0 + p1))
            if side < 0.0:
                jump_y = -jump_y
            segments.append(CrackSegment(p0=p0, p1=p1, normal=normal,
                                         jump=jump_y / sqeps, tri=t, h_index=s))
    return segments, y_grads


def jump_vectors(u, records, F, segments, y_grads, variant):
    mesh = u.mesh
    sqeps = math.sqrt(mesh.spec.eps)
    V = mesh.vecs.as_array()
    out = np.zeros((len(segments), 2))
    for k, seg in enumerate(segments):
        crossing = [a for a in range(3) if a != seg.h_index]
        rec = next(r for r in records if r.tri == seg.tri)
        if rec.m == 3:
            crossing = [a for a in crossing if a != variant - 1]
        a = crossing[0]
        sign = math.copysign(1.0, float(V[a] @ seg.normal))
        mismatch = (F[seg.tri] - y_grads[seg.tri]) @ V[a]
        out[k] = sign * sqeps * mismatch
        if not np.allclose(out[k], seg.jump, atol=1e-10 * (1.0 + np.linalg.norm(seg.jump))):
            raise CrackError(
                f"jump mismatch on segment {k}: identity gives {out[k]}, "
                f"geometry gives {seg.jump}")
    return out


def rows(segments):
    return [[k, seg.p0[0], seg.p0[1], seg.p1[0], seg.p1[1],
             seg.normal[0], seg.normal[1], seg.jump[0], seg.jump[1]]
            for k, seg in enumerate(segments)]


def total_length(segments):
    return float(sum(seg.length for seg in segments))


def crack_energy_estimate(segments, beta, vecs):
    return float(sum(seg.length * surface_density(seg.normal, vecs, beta)
                     for seg in segments))


def principal_normal(segments):
    M = np.zeros((2, 2))
    for seg in segments:
        M += seg.length * np.outer(seg.normal, seg.normal)
    w, vecs = np.linalg.eigh(M)
    return vecs[:, int(np.argmax(w))]

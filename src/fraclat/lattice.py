"""Rotated triangular lattice geometry.

Builds the epsilon-scaled triangular point set inside the specimen,
enumerates the equilateral triangle mesh and its nearest-neighbor bonds,
classifies boundary bonds, and computes the cleavage-direction data (the
lattice direction best aligned with the vertical axis, which controls
where a bar under uniaxial tension prefers to crack).

Conventions
-----------
* The rotation angle ``phi`` lives in ``[0, pi/3)``; larger angles repeat
  the same lattice.
* The specimen is ``Omega = (0, l) x (0, 1)``, and the mesh holds its
  lattice points alone.  The boundary values are imposed on the points of
  Omega within eps of its two vertical sides; no point lies outside it,
  so every mesh triangle and bond lies in the specimen.
* Point membership in a rectangle uses a closed comparison with tolerance
  ``1e-9 * eps`` so that meshes are reproducible across platforms.
* Points are indexed lexicographically in ``(lam2, lam1)`` (row sweeps).
* Mesh topology is offset arithmetic on that grid.  The up triangle based
  at p has corners (p, p+e1, p+e2), the down one (p, p-e1, p-e2), with e1,
  e2 the unit steps of lam1, lam2.  A bond p -> p+o is a side of two such
  triangles, its flanks: up at p and down at p+o for o = e1 or e2, up at
  p-e1 and down at p+e2 for o = e2-e1.  Its incidence counts those in the
  mesh, and ``EDGE_WEIGHTS`` maps it to the bond's boundary weight.
* Every such read is a slice of a padded grid.  The integer bounding box
  keeps two empty rows and columns on every side, so all points lie in its
  interior, two cells from the edge, and the interior read at a unit
  offset is a view of the box shifted by one cell.  The triangle marks
  span one cell more than the interior, so that a bond's flank can be
  read at a unit offset too.
* The bond directions are one read-only (3, 2) array, row d = direction
  d: v1, v2 and v3 = v2 - v1 (:func:`lattice_vectors`, ``TriangleMesh.vecs``).
* The bonds run direction by direction, in the three slices ``edge_groups``.
* A triangle's side of direction d joins its corners ``SIDE_CORNERS[d]``;
  its bond runs from the first to the second if up, back if down.
* The grips' minimum cut (:class:`MinCut`, ``TriangleMesh.min_cut``) is a
  shortest top-to-bottom path over the triangles, the planar dual of the
  bond graph; it is computed on first use and kept by the mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SQRT3 = math.sqrt(3.0)
PHI_MAX = math.pi / 3.0

# relative tolerance for domain membership near a rectangle boundary
BOUNDARY_RTOL = 1e-9

# rows per block of the blocked loops: the mesh's box product, the energy
# kernel and the crack classification.  A scratch row is then 64 KiB, under
# glibc's default mmap threshold of 128 KiB, and at eps = 1/64 on the l = 2
# bar an energy-gradient workspace, streams included, is 3.5 MB: less than
# the 3.7 MB of the one full-length pool it replaced
BLOCK = 1 << 13

# mesh indices are int32: an integer box of this many cells could wrap them
_MAX_BOX_CELLS = 1 << 31

# corners of the up and the down triangle based at a lattice point
_TRIANGLE_CORNERS = (((0, 0), (1, 0), (0, 1)), ((0, 0), (-1, 0), (0, -1)))

# boundary-term weight per ordered pair of a bond flanked by 0, 1 or 2 triangles
EDGE_WEIGHTS = np.array([0.5, 0.25, 0.0])
EDGE_WEIGHTS.setflags(write=False)

# the corners joined by a triangle's side of each bond direction (module notes)
SIDE_CORNERS = np.array([(0, 1), (0, 2), (1, 2)])
SIDE_CORNERS.setflags(write=False)

# per bond direction: the neighbor offset and the up and down flank bases
_BOND_OFFSETS = (((1, 0), ((0, 0), (1, 0))),
                 ((0, 1), ((0, 0), (0, 1))),
                 ((-1, 1), ((-1, 0), (0, 1))))


class LatticeError(ValueError):
    """Invalid lattice parameters or a degenerate mesh."""


def require_finite(error: type[Exception], **values: float):
    """Raise ``error`` naming the first of ``values`` that is nan or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise error(f"{name} must be finite, got {value}")


def rotation_matrix(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def perp(v: np.ndarray) -> np.ndarray:
    """Counterclockwise 90 degree rotation of a 2-vector or of each row of a stack."""
    v = np.asarray(v)
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def rows_times(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """``X @ A.T`` for a stack of rows ``X``, written ``BLOCK`` rows at a time.

    The same bits as the plain product.  A threaded BLAS sometimes runs a
    skinny (N, 2) @ (2, 2) product about 100 times slower for the whole
    life of a process; products of one block do not stall.
    """
    out = np.empty((len(X), len(A)), dtype=np.result_type(X, A))
    for lo in range(0, len(X), BLOCK):
        np.matmul(X[lo:lo + BLOCK], A.T, out=out[lo:lo + BLOCK])
    return out


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the matching rows of two (k, 2) arrays.

    A stacked matmul, so each equals ``np.dot`` of its two rows bit for bit
    (``sqrt(row_dots(x, x))`` is ``np.linalg.norm`` of each row, which
    ``norm(x, axis=1)`` is not).
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def lattice_vectors(phi: float) -> np.ndarray:
    """Read-only (3, 2) bond directions, row d = direction d.

    v1 = R(phi) e1, v2 = R(phi)(e1/2 + sqrt(3)/2 e2) and v3 = v2 - v1
    exactly; all three have unit length.
    """
    if not 0.0 <= phi < PHI_MAX:
        raise LatticeError(f"rotation angle must lie in [0, pi/3), got {phi}")
    R = rotation_matrix(phi)
    v1 = R @ np.array([1.0, 0.0])
    v2 = R @ np.array([0.5, 0.5 * SQRT3])
    vecs = np.stack([v1, v2, v2 - v1])
    vecs.setflags(write=False)
    return vecs


@dataclass(frozen=True)
class CleavageData:
    """Cleavage direction data for a given lattice rotation.

    ``gamma`` is the largest |v . e2| over the three bond directions and
    lies in [sqrt(3)/2, 1].  ``v_gamma`` attains the maximum (oriented so
    that v_gamma . e2 > 0) and is unique exactly when phi != 0; at phi = 0
    the tie is broken toward v2.
    """

    gamma: float
    v_gamma: np.ndarray
    index: int  # 0, 1, 2 for v1, v2, v3
    unique: bool

    @property
    def v_gamma_perp(self) -> np.ndarray:
        return perp(self.v_gamma)


def cleavage_direction(phi: float) -> CleavageData:
    """Maximizer of |v . e2| over the bond directions, with uniqueness flag."""
    vecs = lattice_vectors(phi)
    dots = np.abs(vecs[:, 1])
    index = int(np.argmax(dots))
    gamma = float(dots[index])
    ties = np.sum(dots >= gamma - 1e-14)
    v = vecs[index]
    if v[1] < 0.0:
        v = -v
    return CleavageData(gamma=gamma, v_gamma=v, index=index, unique=bool(ties == 1))


@dataclass(frozen=True)
class LatticeSpec:
    """Parameters of one scaled lattice inside the slab (0, l) x (0, 1).

    Parameters
    ----------
    phi : rotation angle in [0, pi/3).
    eps : lattice spacing, > 0.
    l : slab length, >= 1/sqrt(3) so a single bond line can span the height.
    eta : checked to be positive and otherwise unused.
    """

    phi: float
    eps: float
    l: float = 1.0
    eta: float = 0.25  # read by nothing; kept while the benchmark still sets it

    def __post_init__(self):
        require_finite(LatticeError, phi=self.phi, eps=self.eps, l=self.l, eta=self.eta)
        if not 0.0 <= self.phi < PHI_MAX:
            raise LatticeError(f"phi must lie in [0, pi/3), got {self.phi}")
        if self.eps <= 0.0:
            raise LatticeError("eps must be positive")
        if self.l < 1.0 / SQRT3 - 1e-12:
            raise LatticeError("slab length l must be at least 1/sqrt(3)")
        if self.eta <= 0.0:
            raise LatticeError("margin width eta must be positive")

    @property
    def omega(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) of the specimen."""
        return (0.0, self.l, 0.0, 1.0)


def _in_rect(points: np.ndarray, rect, tol: float) -> np.ndarray:
    x0, x1, y0, y1 = rect
    return ((points[:, 0] >= x0 - tol) & (points[:, 0] <= x1 + tol)
            & (points[:, 1] >= y0 - tol) & (points[:, 1] <= y1 + tol))


def _window(grid: np.ndarray, s1: int, s2: int, margin: int = 2) -> np.ndarray:
    """View of ``grid`` read at a lattice offset, away from its edges.

    ``out[i2, i1] = grid[margin + i2 + s2, margin + i1 + s1]`` for every
    cell at least ``margin`` from the edge.  With unit offsets the read
    stays inside ``grid``.
    """
    H, W = grid.shape
    return grid[margin + s2:H - margin + s2, margin + s1:W - margin + s1]


class TriangleMesh:
    """Immutable triangle mesh of the scaled lattice clipped to the specimen Omega.

    Attributes
    ----------
    points : (N, 2) float64, lattice point coordinates.
    lam : (N, 2) int32, integer lattice coordinates of each point.
    triangles : (M, 3) int32, vertex indices ordered so that
        ``points[t1] - points[t0] = sign * eps * v1`` and
        ``points[t2] - points[t0] = sign * eps * v2`` with ``sign = +1``
        for upward triangles and ``-1`` for downward ones.
    tri_sign : (M,) int8, the orientation sign above; a product with a
        float gives float64, with the same bits as a float sign.
    edges : (E, 2) int32, one row per unordered nearest-neighbor bond;
        ``points[b] - points[a] = eps * v_d`` on the rows ``edge_groups[d]``.
    edge_groups : the three slices of ``edges`` holding directions 0, 1, 2.
    edge_inc_omega : (E,) int8, number of mesh triangles having the bond
        as a side: 0, 1 or 2.
    dirichlet : (N,) bool, point lies within eps of a vertical side, where
        the boundary values are imposed.
    vecs : (3, 2) float64, read-only, the bond directions: row d is
        direction d, as :func:`lattice_vectors` gives them.
    basis_inverse : (2, 2) float64, the inverse of the basis ``[v1 v2]``.

    Every point lies in Omega (up to the membership tolerance), so every
    triangle and bond lies in the specimen.

    Indices and integer coordinates are int32, exact for every mesh whose
    integer box holds fewer than 2^31 cells; a finer eps raises
    :class:`LatticeError` before the box is allocated.  ``triangles`` and
    ``edges`` are stored component-major: their transposes are contiguous.

    The topology is read from slices of the integer bounding box, which
    keeps two empty rows and columns on every side (see the module notes);
    the float box is held only until the kept points are taken.
    """

    def __init__(self, spec: LatticeSpec):
        self.spec = spec
        self.vecs = lattice_vectors(spec.phi)
        eps = spec.eps
        tol = BOUNDARY_RTOL * eps

        A = self.vecs[:2].T
        self.basis_inverse = Ainv = np.linalg.inv(A)

        # integer bounding box of Omega pulled back through the lattice map,
        # with two empty rows and columns on every side
        x0, x1, y0, y1 = spec.omega
        corners = np.array([[x0, y0], [x1, y0], [x0, y1], [x1, y1]])
        lam_corners = corners @ Ainv.T / eps
        lo = np.floor(lam_corners.min(axis=0)) - 2
        hi = np.ceil(lam_corners.max(axis=0)) + 2
        # with fewer than 2^31 cells the point indices fit int32, and so do
        # the coordinates: the box holds the origin, so none exceeds a side
        cells = float(np.prod(hi - lo + 1))
        if cells >= _MAX_BOX_CELLS:
            raise LatticeError(
                f"eps={eps} is too fine: its integer box of {cells:.3g} cells "
                "outgrows the int32 mesh indices")
        lo, hi = lo.astype(int), hi.astype(int)

        l1 = np.arange(lo[0], hi[0] + 1, dtype=np.int32)
        l2 = np.arange(lo[1], hi[1] + 1, dtype=np.int32)
        shape = (len(l2), len(l1))
        # row sweeps: lam2 outer, lam1 inner, so kept points run in (lam2, lam1) order
        lam_all = np.empty(shape + (2,), dtype=np.int32)
        lam_all[:, :, 0] = l1
        lam_all[:, :, 1] = l2[:, None]
        lam_all = lam_all.reshape(-1, 2)
        pts_all = rows_times(lam_all, A)
        pts_all *= eps
        keep = _in_rect(pts_all, spec.omega, tol)
        self.lam = np.compress(keep, lam_all, axis=0)
        self.points = np.compress(keep, pts_all, axis=0)
        del lam_all, pts_all
        present = keep.reshape(shape)
        grid = np.zeros(shape, dtype=np.int32)
        grid[present] = np.arange(len(self.lam))

        # triangles of each orientation, marked at their base vertex where all
        # three corners lie in the mesh; the marks cover one cell beyond the
        # interior, where the bond flanks read them
        tri = [np.logical_and.reduce([_window(present, *c, margin=1) for c in cs])
               for cs in _TRIANGLE_CORNERS]
        tri_base = [_window(t, 0, 0, margin=1) for t in tri]
        n_tri = [int(np.count_nonzero(t)) for t in tri_base]
        if sum(n_tri) == 0:
            raise LatticeError(
                f"eps={eps} is too coarse: no triangle fits inside the domain")
        # stored component-major, so that the transposes are the contiguous
        # (3, M) and (2, E) index arrays the energy kernel reads
        self.triangles = np.empty((3, sum(n_tri)), dtype=grid.dtype).T
        for rows, t, cs in zip(np.split(self.triangles, n_tri[:1]), tri_base,
                               _TRIANGLE_CORNERS):
            for k, c in enumerate(cs):
                rows[:, k] = _window(grid, *c)[t]
        self.tri_sign = np.concatenate([np.full(n, sign, dtype=np.int8)
                                        for n, sign in zip(n_tri, (1, -1))])

        # nearest-neighbor bonds, one row per unordered pair; the incidence
        # of a bond counts which of its two flanking triangles are in the mesh
        present_in, grid_in = _window(present, 0, 0), _window(grid, 0, 0)
        oks = [present_in & _window(present, *offset) for offset, _ in _BOND_OFFSETS]
        cuts = np.cumsum([0] + [int(np.count_nonzero(ok)) for ok in oks]).tolist()
        self.edge_groups = tuple(slice(*cut) for cut in zip(cuts, cuts[1:]))
        self.edges = np.empty((2, cuts[-1]), dtype=grid.dtype).T
        up, down = tri
        inc = []
        for group, ok, (offset, (up_base, down_base)) in zip(self.edge_groups, oks,
                                                             _BOND_OFFSETS):
            self.edges[group, 0] = grid_in[ok]
            self.edges[group, 1] = _window(grid, *offset)[ok]
            inc.append(_window(up, *up_base, margin=1)[ok].astype(np.int8)
                       + _window(down, *down_base, margin=1)[ok])
        self.edge_inc_omega = np.concatenate(inc)

        # the pinned layers run along the two vertical sides, so a point's
        # distance to them is its horizontal distance to the bar's ends
        x = self.points[:, 0]
        self.dirichlet = np.minimum(x, spec.l - x) <= eps * (1.0 + BOUNDARY_RTOL)

        for arr in (self.points, self.lam, self.triangles, self.tri_sign, self.edges,
                    self.edge_inc_omega, self.dirichlet, self.basis_inverse):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def triangle_area(self) -> float:
        return SQRT3 * self.spec.eps ** 2 / 4.0

    @cached_property
    def min_cut(self) -> MinCut:
        """The grips' minimum cut nearest the left grip, computed on first use."""
        return _grip_min_cut(self)


def build_mesh(spec: LatticeSpec) -> TriangleMesh:
    """Construct the triangle mesh for a lattice specification."""
    return TriangleMesh(spec)


def classify_edges(mesh: TriangleMesh) -> np.ndarray:
    """Boundary-term weight of each bond: 0, 1/4 or 1/2.

    The weight is stated per ordered pair, matching the double-counting
    pair sum of the discrete energy: a bond that is the side of two mesh
    triangles is fully covered by the cell-energy sum (weight 0), a bond
    on the side of exactly one triangle carries 1/4 W per ordered pair,
    and a stray bond belonging to no triangle carries 1/2 W.  Summed over
    an unordered bond the boundary term is therefore twice the weight.
    """
    return np.take(EDGE_WEIGHTS, mesh.edge_inc_omega)


@dataclass(frozen=True)
class MinCut:
    """The fewest bonds whose removal separates the left grip from the right.

    The grips are the pinned points, ``mesh.dirichlet``, split at x = l/2
    as :func:`fraclat.discrete_energy.bc_cleavage` splits them.  Of all
    minimum cuts this is the one nearest the left grip: its left side is
    contained in the left side of every other.

    count : the number of cut bonds.
    bonds : (count,) indices of the cut bonds into ``edges``, ascending.
    right : (N,) bool, read-only, the points on the right grip's side.
    """

    count: int
    bonds: np.ndarray
    right: np.ndarray


def _grip_min_cut(mesh: TriangleMesh) -> MinCut:
    """The grips' minimum cut nearest the left grip, certified optimal.

    The bond graph is planar and both grips lie on its outer face, which
    they split into a top and a bottom arc.  A cut is then a path over the
    faces from the top arc to the bottom one, crossing one bond per step,
    and the minimum cut is a shortest such path (Itai & Shiloach, SIAM J.
    Comput. 8, 1979), found by a breadth-first search over the triangles.
    A bond with both ends in one grip is never crossed.  A bond with a
    missing flank borders the outer face on that side, the top arc when
    its midpoint lies in the upper half of the bar; a stray bond, flanked
    by no triangle, borders it on both and joins that arc to itself.

    The search distances d, capped at the path length k, give a maximum
    flow, d(right face) - d(left face) along each bond (Hassin, Inf.
    Process. Lett. 13, 1981).
    The points a flood fill from the left grip reaches through the bonds
    that flow leaves unsaturated are the left side of the cut nearest the
    left grip.  That cut has k bonds and leaves the right grip unreached:
    a flow and a cut of one size, so both are optimal, or
    :class:`LatticeError` is raised.

    The adjacency is read off the triangles' corners; only the result is kept.
    """
    n_tri, n_up = mesh.n_triangles, int(np.count_nonzero(mesh.tri_sign > 0))
    top, bottom = np.int32(n_tri), np.int32(n_tri + 1)  # the two arcs of the outer face
    a, b = mesh.edges[:, 0], mesh.edges[:, 1]
    idx = np.int32  # every index fits, as the mesh's own do

    # the bond of each direction that starts at each point; a triangle's side
    # of direction d starts at its corner SIDE_CORNERS[d][0] if up, [d][1] if down
    bond_from = np.full((3, mesh.n_points), -1, dtype=idx)
    for d, group in enumerate(mesh.edge_groups):
        bond_from[d, a[group]] = np.arange(group.start, group.stop, dtype=idx)
    up, down = np.split(mesh.triangles, [n_up])
    sides = bond_from[np.arange(3), np.concatenate([up[:, SIDE_CORNERS[:, 0]],
                                                    down[:, SIDE_CORNERS[:, 1]]])]
    del bond_from, up, down  # each array goes after its last read: the peak is 1.1 MB at 1/64

    # the faces to the left and the right of each bond a -> b: its up flank
    # is on the left in directions 0 and 2, its down flank in direction 1;
    # a missing flank is the arc of the bar's half that holds the bond
    faces = np.empty((2, mesh.n_edges), dtype=idx)  # up, then down
    faces[0] = faces[1] = np.where(mesh.points[a, 1] + mesh.points[b, 1] > 1.0, top, bottom)
    faces[0, sides[:n_up]] = np.arange(n_up, dtype=idx)[:, None]
    faces[1, sides[n_up:]] = np.arange(n_up, n_tri, dtype=idx)[:, None]
    d1 = mesh.edge_groups[1]
    faces[:, d1] = faces[::-1, d1].copy()
    left, right = faces
    face_sum = left + right  # minus one face of a bond, the other

    x = mesh.points[:, 0]
    right_grip = mesh.dirichlet & (x > mesh.spec.l / 2.0)
    left_grip = mesh.dirichlet & ~right_grip
    crossable = ~((left_grip[a] & left_grip[b]) | (right_grip[a] & right_grip[b]))

    # breadth-first search over the faces, from the top arc to the bottom
    # one, a layer at a time; a layer is read back from the distances, so
    # it holds each face once, in ascending order
    dist = np.full(n_tri + 2, -1, dtype=idx)
    dist[top] = 0
    seed = np.flatnonzero(crossable & ((left == top) | (right == top)))
    reach, k = face_sum[seed] - top, 0
    while dist[bottom] < 0:
        k += 1
        dist[reach[dist[reach] < 0]] = k
        frontier = np.flatnonzero(dist[:n_tri] == k)
        if dist[bottom] < 0 and len(frontier) == 0:
            raise LatticeError("no path of faces joins the top arc to the bottom one")
        e = sides[frontier]
        reach = (face_sum[e] - frontier[:, None].astype(idx))[crossable[e]]
    del sides, reach, e
    dist[dist < 0] = k  # capped at k, no step between faces exceeds one bond
    flow = dist[right] - dist[left]  # along a -> b
    del faces, left, right, face_sum, dist

    # flood fill from the left grip through the unsaturated bonds; a point's
    # neighbors are the ends ahead and behind along each direction, or -1
    ahead = np.where(crossable & (flow >= 1), -1, b)
    behind = np.where(crossable & (flow <= -1), -1, a)
    del flow
    neighbors = np.full((mesh.n_points, 6), -1, dtype=idx)
    for d, group in enumerate(mesh.edge_groups):
        neighbors[a[group], 2 * d] = ahead[group]
        neighbors[b[group], 2 * d + 1] = behind[group]
    del ahead, behind
    hops = np.where(left_grip, 0, -1).astype(idx)
    frontier, h = np.flatnonzero(left_grip), 0
    while len(frontier):
        h += 1
        nxt = neighbors[frontier].ravel()
        nxt = nxt[nxt >= 0]
        hops[nxt[hops[nxt] < 0]] = h
        frontier = np.flatnonzero(hops == h)
    reached = hops >= 0

    bonds = np.flatnonzero(reached[a] != reached[b])
    if len(bonds) != k or reached[right_grip].any():
        raise LatticeError(f"the cut of {len(bonds)} bonds does not match the "
                           f"flow of {k}")
    side = ~reached
    side.setflags(write=False)
    bonds.setflags(write=False)
    return MinCut(count=k, bonds=bonds, right=side)

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
  mesh.
* Every such read is a slice of a padded grid.  The integer bounding box
  keeps two empty rows and columns on every side, so all points lie in its
  interior, two cells from the edge, and the interior read at a unit
  offset is a view of the box shifted by one cell.  The triangle marks
  span one cell more than the interior, so that a bond's flank can be
  read at a unit offset too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
_EDGE_WEIGHTS = np.array([0.5, 0.25, 0.0])

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


@dataclass(frozen=True)
class LatticeVectors:
    """The three unit bond directions of the rotated triangular lattice.

    ``v3 = v2 - v1`` exactly; all three have unit length.
    """

    phi: float
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray

    def as_array(self) -> np.ndarray:
        """Stack (v1, v2, v3) into a (3, 2) array."""
        return np.stack([self.v1, self.v2, self.v3])


def lattice_vectors(phi: float) -> LatticeVectors:
    """Bond directions v1 = R(phi) e1, v2 = R(phi)(e1/2 + sqrt(3)/2 e2), v3 = v2 - v1."""
    if not 0.0 <= phi < PHI_MAX:
        raise LatticeError(f"rotation angle must lie in [0, pi/3), got {phi}")
    R = rotation_matrix(phi)
    v1 = R @ np.array([1.0, 0.0])
    v2 = R @ np.array([0.5, 0.5 * SQRT3])
    return LatticeVectors(phi=phi, v1=v1, v2=v2, v3=v2 - v1)


@dataclass(frozen=True)
class CleavageData:
    """Cleavage direction data for a given lattice rotation.

    ``gamma`` is the largest |v . e2| over the three bond directions and
    lies in [sqrt(3)/2, 1].  ``v_gamma`` attains the maximum (oriented so
    that v_gamma . e2 > 0) and is unique exactly when phi != 0; at phi = 0
    the tie is broken toward v2.
    """

    phi: float
    gamma: float
    v_gamma: np.ndarray
    index: int  # 0, 1, 2 for v1, v2, v3
    unique: bool

    @property
    def v_gamma_perp(self) -> np.ndarray:
        return perp(self.v_gamma)


def cleavage_direction(phi: float) -> CleavageData:
    """Maximizer of |v . e2| over the bond directions, with uniqueness flag."""
    vecs = lattice_vectors(phi).as_array()
    dots = np.abs(vecs[:, 1])
    index = int(np.argmax(dots))
    gamma = float(dots[index])
    ties = np.sum(dots >= gamma - 1e-14)
    v = vecs[index]
    if v[1] < 0.0:
        v = -v
    return CleavageData(phi=phi, gamma=gamma, v_gamma=v, index=index,
                        unique=bool(ties == 1))


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
        ``points[b] - points[a] = eps * v_d`` with direction ``edge_dir``.
    edge_dir : (E,) int in {0, 1, 2}.
    edge_inc_omega : (E,) int8, number of mesh triangles having the bond
        as a side: 0, 1 or 2.
    dirichlet : (N,) bool, point lies within eps of a vertical side, where
        the boundary values are imposed.

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

        A = np.column_stack([self.vecs.v1, self.vecs.v2])
        Ainv = np.linalg.inv(A)

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
        n_edge = [int(np.count_nonzero(ok)) for ok in oks]
        self.edges = np.empty((2, sum(n_edge)), dtype=grid.dtype).T
        up, down = tri
        dirs, inc = [], []
        for d, (rows, ok, (offset, (up_base, down_base))) in enumerate(
                zip(np.split(self.edges, np.cumsum(n_edge[:2])), oks, _BOND_OFFSETS)):
            rows[:, 0] = grid_in[ok]
            rows[:, 1] = _window(grid, *offset)[ok]
            dirs.append(np.full(len(rows), d, dtype=np.int8))
            inc.append(_window(up, *up_base, margin=1)[ok].astype(np.int8)
                       + _window(down, *down_base, margin=1)[ok])
        self.edge_dir = np.concatenate(dirs)
        self.edge_inc_omega = np.concatenate(inc)

        # the pinned layers run along the two vertical sides, so a point's
        # distance to them is its horizontal distance to the bar's ends
        x = self.points[:, 0]
        self.dirichlet = np.minimum(x, spec.l - x) <= eps * (1.0 + BOUNDARY_RTOL)

        for arr in (self.points, self.lam, self.triangles, self.tri_sign, self.edges,
                    self.edge_dir, self.edge_inc_omega, self.dirichlet):
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
    return np.take(_EDGE_WEIGHTS, mesh.edge_inc_omega)

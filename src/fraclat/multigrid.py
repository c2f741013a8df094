"""Preconditioner of the descent: one multigrid cycle on the rest stiffness.

At the rest state every bond has unit stretch, where ``W'(1) = 0``, so the
Hessian of the rescaled pair energy is the bond stiffness

    K = alpha * sum_b (v_b v_b^T) (x) (e_j - e_i)(e_j - e_i)^T

over the mesh's bonds, with ``alpha = W''(1)``.  It depends only on the
mesh, alpha and the boundary condition, not on the load or the start.
:class:`StiffnessMultigrid` applies ``M ~ K^-1`` as one symmetric
multigrid cycle (Briggs, Henson and McCormick, *A Multigrid Tutorial*,
SIAM 2000):

* Unknowns are the displacement components that the boundary condition
  leaves free.  ``SHIFT * I`` is added because a loading may leave a rigid
  translation free.  ``M`` is 0 on every pinned component, where the
  projected gradient vanishes.
* The fine level applies K matrix-free, one ``bincount`` pair per bond
  direction.
* The coarse points are the points with even ``(lam1, lam2)``.  A coarse
  point keeps its value; every other point takes the mean of its two
  coarse neighbours along one bond offset.  A pinned neighbour is dropped
  and the other keeps weight 1/2; an absent one (outside the mesh) leaves
  weight 1 to the other.
* A coarse operator is the Galerkin product ``P^T A P``.  It is again a
  7-point stencil of 2 x 2 blocks, read off with 14 products, one per
  displacement component and colour ``(lam1 + 3 lam2) mod 7``: the seven
  points of any stencil have seven different colours.
* Each level smooths with damped Jacobi before and after its coarse
  correction.  The mesh level corrects once and the coarse levels twice
  (a V-cycle on the mesh over W-cycles below it, which keeps the
  iteration count nearly flat down to eps = 1/256); the coarsest level
  is inverted densely, so the level above it corrects once, exactly.

:func:`rest_preconditioner` keeps the operator it built last, for one
mesh, alpha and pair of pinned-component masks, so that minimizations of
one mesh at several loads build it once.  It keeps no more than that one
operator, and only while its mesh lives: the next build on another key
frees it first.  The cycle holds no state between calls, so a kept
operator gives the answers of a new one bit for bit.  On the l = 2,
phi = 0.3 bar the kept operator holds 2.39 MB at eps = 1/64, 9.42 MB at
1/128 and 37.56 MB at 1/256 (tracemalloc).
"""

from __future__ import annotations

import weakref

import numpy as np

from .lattice import TriangleMesh

SHIFT = 1e-6          # added to K on every free component
JACOBI_OMEGA = 0.6    # damping of the Jacobi sweeps
JACOBI_SWEEPS = 2     # sweeps before and after each coarse correction
COARSEST_DOFS = 150   # free components at or below which a level is inverted densely
COARSE_CYCLES = 2     # cycles on the next level per coarse-level visit (the mesh level makes 1)

# the 7-point stencil, offset o in slot (o1 + 3 o2) mod 7 (its colour shift)
_STENCIL = np.array([(0, 0), (1, 0), (-1, 1), (0, 1), (0, -1), (1, -1), (-1, 0)])
# offset from a point to its two coarse parents, by parity lam1 % 2 + 2 (lam2 % 2)
_PARENT_OFFSET = np.array([(0, 0), (1, 0), (0, 1), (1, -1)])


def _locator(coords: np.ndarray):
    """Function from integer points to their rows in ``coords``, ``len(coords)`` if absent."""
    n = len(coords)
    lo = coords.min(axis=0)
    size = coords.max(axis=0) - lo + 1
    grid = np.full(size, n, dtype=np.intp)
    grid[tuple((coords - lo).T)] = np.arange(n)

    def find(points: np.ndarray) -> np.ndarray:
        q = points - lo
        inside = np.all((q >= 0) & (q < size), axis=1)
        rows = np.full(len(q), n, dtype=np.intp)
        rows[inside] = grid[tuple(q[inside].T)]
        return rows

    return find


class _BondLevel:
    """K + SHIFT I on the mesh points, applied bond direction by bond direction."""

    def __init__(self, mesh: TriangleMesh, alpha: float):
        self.n = mesh.n_points
        # each direction's (2, k) bond ends, intp, so that no gather or scatter casts them
        self._ends = [mesh.edges[group].T.astype(np.intp) for group in mesh.edge_groups]
        self._vecs = mesh.vecs  # (3, 2): v_d in row d
        self._alpha = alpha
        counts = np.array([np.bincount(ends.ravel(), minlength=self.n) for ends in self._ends])
        self.diag = SHIFT + self._alpha * (counts.T @ self._vecs ** 2)

    def stiffness(self, x: np.ndarray) -> np.ndarray:
        """K x for ``(N, 2)`` values ``x``, every component included."""
        p = self._vecs @ x.T  # (3, N): v_d . x at every point
        for d, (e0, e1) in enumerate(self._ends):
            c = np.take(p[d], e1)
            c -= np.take(p[d], e0)  # v_d . (x_j - x_i) on the bonds of direction d
            p[d] = np.bincount(e1, c, minlength=self.n)  # row d is spent: it takes K's row d
            p[d] -= np.bincount(e0, c, minlength=self.n)
        return p.T @ (self._alpha * self._vecs)

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = self.stiffness(x)
        out += SHIFT * x
        return out


class _StencilLevel:
    """A coarse operator: per point, 2 x 2 blocks on its 7 stencil neighbours."""

    def __init__(self, neighbors: np.ndarray, blocks: np.ndarray):
        self.n = len(neighbors)
        self._neighbors = neighbors.ravel()  # (n, 7) rows; an absent neighbour's block is 0
        self._blocks = blocks  # (n, 2, 14): column 2 slot + k acts on component k
        self.diag = blocks[:, [0, 1], [0, 1]]

    def apply(self, x: np.ndarray) -> np.ndarray:
        near = np.take(x, self._neighbors, axis=0).reshape(self.n, 14)
        return np.einsum("nrc,nc->nr", self._blocks, near)


class _Transfer:
    """Interpolation P from a coarse level to the level above it, and its transpose."""

    def __init__(self, parents: np.ndarray, weights: np.ndarray, n_coarse: int):
        self._parents = parents  # (2, n): rows of the coarse level; an absent parent's weight is 0
        self._weights = weights  # (2, n, 2): weight of each parent per component
        self.n_coarse = n_coarse

    def prolong(self, xc: np.ndarray) -> np.ndarray:
        a, b = self._parents
        wa, wb = self._weights
        out = wa * np.take(xc, a, axis=0)
        out += wb * np.take(xc, b, axis=0)
        return out

    def restrict(self, r: np.ndarray) -> np.ndarray:
        out = np.empty((self.n_coarse, 2))
        for k in range(2):
            out[:, k] = np.bincount(self._parents[0], self._weights[0, :, k] * r[:, k],
                                    minlength=self.n_coarse)
            out[:, k] += np.bincount(self._parents[1], self._weights[1, :, k] * r[:, k],
                                     minlength=self.n_coarse)
        return out


def _coarsen(coords: np.ndarray, active: np.ndarray, level):
    """The coarse level below ``level``, its transfer, points and free components.

    ``coords`` are the level's integer lattice points and ``active`` the
    free components.  None when the coarse points would not be fewer and
    nonempty.
    """
    parity = coords & 1
    rows = np.flatnonzero(~parity.any(axis=1))
    if not 0 < len(rows) < len(coords):
        return None
    coarse, coarse_active = coords[rows] >> 1, active[rows]
    nc = len(rows)
    find = _locator(coarse)
    offset = _PARENT_OFFSET[parity[:, 0] + 2 * parity[:, 1]]
    parents = np.stack([find((coords + offset) >> 1), find((coords - offset) >> 1)])
    found = parents < nc
    parents[~found] = 0
    weights = (found[:, :, None] & coarse_active[parents] & active) \
        / np.maximum(found.sum(axis=0), 1)[:, None]
    transfer = _Transfer(parents, weights, nc)

    neighbors = np.stack([find(coarse + o) for o in _STENCIL], axis=1)
    absent = neighbors == nc
    neighbors[absent] = np.nonzero(absent)[0]  # read itself through a zero block
    colour = (coarse[:, 0] + 3 * coarse[:, 1]) % 7
    blocks = np.zeros((nc, 2, 14))
    every = np.arange(nc)
    for c in range(7):
        slot = (c - colour) % 7
        for k in range(2):
            probe = np.zeros((nc, 2))
            probe[colour == c, k] = 1.0
            blocks[every, :, 2 * slot + k] = transfer.restrict(
                level.apply(transfer.prolong(probe)))
    return _StencilLevel(neighbors, blocks), transfer, coarse, coarse_active


class _DenseInverse:
    """Exact inverse of a level's operator on its free components."""

    def __init__(self, level, active: np.ndarray):
        self._free = np.flatnonzero(active.ravel())
        columns = []
        for j in self._free:
            unit = np.zeros(2 * level.n)
            unit[j] = 1.0
            columns.append(level.apply(unit.reshape(-1, 2)).ravel()[self._free])
        inverse = np.linalg.inv(np.reshape(columns, (len(self._free),) * 2))
        self._inverse = 0.5 * (inverse + inverse.T)
        self.n = level.n

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.zeros(2 * self.n)
        x[self._free] = self._inverse @ b.ravel()[self._free]
        return x.reshape(-1, 2)


def _check_masks(n_points: int, **masks):
    """Raise ``ValueError`` naming the first mask that is not bool of shape ``(n_points,)``."""
    for name, mask in masks.items():
        dtype, shape = getattr(mask, "dtype", None), getattr(mask, "shape", None)
        if dtype != bool or shape != (n_points,):
            raise ValueError(f"{name} must be a bool array of shape ({n_points},), "
                             f"got dtype {dtype} and shape {shape}")


class StiffnessMultigrid:
    """``M ~ (K + SHIFT I)^-1`` on the free components of one mesh.

    Made for one mesh, alpha = W''(1) and pair of pinned-component masks
    (bool, one entry per point); :func:`rest_preconditioner` keeps the last
    one built.  It holds copies of the mesh's bonds and coordinates, never
    the mesh.  ``M`` is symmetric
    and positive on the free components and 0 on the others.  Calling it on
    ``(N, 2)`` values returns a new ``(N, 2)`` array.
    """

    def __init__(self, mesh: TriangleMesh, alpha: float, mask_x: np.ndarray,
                 mask_y: np.ndarray):
        _check_masks(mesh.n_points, mask_x=mask_x, mask_y=mask_y)
        fine = _BondLevel(mesh, alpha)
        self._fine = fine
        active = np.column_stack([~mask_x, ~mask_y])
        coords, level = mesh.lam.astype(np.intp), fine
        self._levels = []  # (level, omega D^-1, transfer to the level below)
        while active.sum() > COARSEST_DOFS:
            step = _coarsen(coords, active, level)
            if step is None:
                break
            coarse, transfer, coords, coarse_active = step
            smooth = np.divide(JACOBI_OMEGA, level.diag, out=np.zeros(active.shape),
                               where=active)
            self._levels.append((level, smooth, transfer))
            level, active = coarse, coarse_active
        self._coarsest = _DenseInverse(level, active)

    def stiffness(self, x: np.ndarray) -> np.ndarray:
        """K x on ``(N, 2)`` values, without the shift or the boundary condition."""
        return self._fine.stiffness(x)

    def __call__(self, b: np.ndarray) -> np.ndarray:
        return self._cycle(0, b)

    def _cycle(self, depth: int, b: np.ndarray) -> np.ndarray:
        if depth == len(self._levels):
            return self._coarsest.solve(b)
        level, smooth, transfer = self._levels[depth]

        def residual(x):
            r = level.apply(x)
            return np.subtract(b, r, out=r)

        def jacobi(x):
            r = residual(x)
            r *= smooth
            return r

        x = smooth * b
        for _ in range(JACOBI_SWEEPS - 1):
            x += jacobi(x)
        # the level above the dense one is corrected exactly by its first pass
        cycles = COARSE_CYCLES if 0 < depth < len(self._levels) - 1 else 1
        for _ in range(cycles):
            x += transfer.prolong(self._cycle(depth + 1, transfer.restrict(residual(x))))
        for _ in range(JACOBI_SWEEPS):
            x += jacobi(x)
        return x


# the last operator built: {mesh: ((alpha, mask_x bytes, mask_y bytes), operator)},
# at most one entry, which goes with its mesh
_KEPT = weakref.WeakKeyDictionary()


def rest_preconditioner(mesh: TriangleMesh, alpha: float, mask_x: np.ndarray,
                        mask_y: np.ndarray) -> StiffnessMultigrid:
    """The mesh's :class:`StiffnessMultigrid` for ``alpha`` and these pinned components.

    The last one built is kept, while its mesh lives, and returned again for
    the same mesh, alpha and masks: K depends on neither the load, beta nor
    the start, and the mesh's arrays are read-only.  Any other key frees it
    before its own operator is built.
    """
    key = (float(alpha), mask_x.tobytes(), mask_y.tobytes())
    kept = _KEPT.get(mesh)
    if kept is None or kept[0] != key:
        _KEPT.clear()
        kept = _KEPT[mesh] = (key, StiffnessMultigrid(mesh, alpha, mask_x, mask_y))
    return kept[1]

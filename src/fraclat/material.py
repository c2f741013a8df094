"""Material laws of the spring lattice.

Contains the pair interaction potential families, the per-triangle cell
energy, its quadratic linearization about the identity, the orientation
penalty that discourages reflected triangles, the magnetization map built
from the polar decomposition, and the Frobenius distances to the two
components of the orthogonal group.

All matrix norms are Frobenius.  Functions accept a single ``(2, 2)``
matrix or a batch shaped ``(..., 2, 2)`` and broadcast accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import require_finite

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

POTENTIAL_FAMILIES = ("exp-well", "shifted-lj")

# the smoothed field energy ramps down to zero over (T - FIELD_SMOOTH_BAND, T)
FIELD_SMOOTH_BAND = 0.1


class MaterialError(ValueError):
    """Invalid material parameters or an unsupported operation."""


@dataclass(frozen=True)
class PairPotential:
    """Lennard-Jones-type pair potential.

    Requirements: W >= 0 with W(r) = 0 exactly at r = 1, twice
    differentiable near 1 with curvature ``alpha``, and W(r) -> ``beta``
    as r -> infinity.

    Families
    --------
    exp-well
        ``W(r) = beta * (1 - exp(-alpha (r-1)^2 / (2 beta)))``.
        Smooth everywhere, with independent alpha and beta.  Default.
    shifted-lj
        ``W(r) = beta * (r^-6 - 1)^2``, which forces ``alpha = 72 beta``.
    """

    family: str = "exp-well"
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.family not in POTENTIAL_FAMILIES:
            raise MaterialError(f"unknown potential family {self.family!r}")
        require_finite(MaterialError, alpha=self.alpha, beta=self.beta)
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise MaterialError("alpha and beta must be positive")
        if self.family == "shifted-lj" and abs(self.alpha - 72.0 * self.beta) > 1e-12 * self.alpha:
            raise MaterialError(f"shifted-lj forces alpha = 72 beta, got alpha = {self.alpha}, "
                                f"beta = {self.beta}")

    @classmethod
    def shifted_lj(cls, beta: float = 1.0) -> "PairPotential":
        return cls(family="shifted-lj", alpha=72.0 * beta, beta=beta)

    def __call__(self, r, out=None):
        """W(r) elementwise; ``out``, if given, receives the values and is returned."""
        r = np.asarray(r, dtype=float)
        w = np.empty_like(r) if out is None else out
        if self.family == "exp-well":
            c = self.alpha / (2.0 * self.beta)
            np.subtract(r, 1.0, out=w)
            np.square(w, out=w)
            w *= -c
            np.expm1(w, out=w)
            w *= -self.beta
        else:
            with np.errstate(divide="ignore"):
                np.power(np.where(r > 0.0, r, np.inf), -6, out=w)
            w -= 1.0
            np.square(w, out=w)
            w *= self.beta
        return w if w.ndim else w[()]

    def deriv(self, r, out=None):
        """W'(r) elementwise; ``out``, if given, receives the values and is returned."""
        r = np.asarray(r, dtype=float)
        w = np.empty_like(r) if out is None else out
        if self.family == "exp-well":
            c = self.alpha / (2.0 * self.beta)
            e = np.subtract(r, 1.0, out=np.empty_like(r))
            np.square(e, out=e)
            e *= -c
            np.exp(e, out=e)
            np.subtract(r, 1.0, out=w)
            w *= self.alpha
            w *= e
        else:
            with np.errstate(divide="ignore"):
                q = np.where(r > 0.0, r, np.inf)
            e = np.power(q, -6)
            e -= 1.0
            np.power(q, -7, out=w)
            w *= -12.0 * self.beta
            w *= e
        return w if w.ndim else w[()]

    def tail_infimum(self, r0: float = 2.0) -> float:
        """Infimum of W on [r0, infinity), by coarse scan plus the limit value."""
        grid = np.linspace(r0, max(10.0 * r0, 50.0), 4096)
        return float(min(self(grid).min(), self.beta))


def frobenius_norms(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (..., 2, 2) stack, or of one matrix.

    Sums the squares row by row, as ``np.linalg.norm(M, axis=(-2, -1))`` does
    on a contiguous stack: the two agree bit for bit, in about half the time.
    """
    M = np.asarray(M, dtype=float)
    out = np.multiply(M[..., 0, 0], M[..., 0, 0], out=np.empty(M.shape[:-2]))
    out += np.multiply(M[..., 0, 1], M[..., 0, 1])
    out += np.multiply(M[..., 1, 0], M[..., 1, 0])
    out += np.multiply(M[..., 1, 1], M[..., 1, 1])
    np.sqrt(out, out=out)
    return out if out.ndim else out[()]


def cell_energy(F: np.ndarray, pot: PairPotential, vecs: np.ndarray) -> np.ndarray:
    """Energy of one lattice triangle under the affine map F.

    Half the sum of the pair energies of the stretches |F v| over the three
    bond directions, the rows of ``vecs``; zero exactly on the orthogonal group.
    """
    Fv = np.einsum("...ij,vj->...vi", np.asarray(F, dtype=float), vecs)
    return 0.5 * pot(np.linalg.norm(Fv, axis=-1)).sum(axis=-1)


def quadratic_form(G: np.ndarray, alpha: float) -> np.ndarray:
    """Quadratic energy density of the linearized cell energy.

    ``(3 alpha / 16) * (3 g11^2 + 3 g22^2 + 2 g11 g22 + 4 ((g12+g21)/2)^2)``;
    depends only on the symmetric part of G and is positive definite on
    symmetric matrices.
    """
    G = np.asarray(G, dtype=float)
    g11, g22 = G[..., 0, 0], G[..., 1, 1]
    g12 = 0.5 * (G[..., 0, 1] + G[..., 1, 0])
    return (3.0 * alpha / 16.0) * (3.0 * g11 ** 2 + 3.0 * g22 ** 2
                                   + 2.0 * g11 * g22 + 4.0 * g12 ** 2)


def quadratic_min_under_strain(r: float, alpha: float) -> tuple[float, np.ndarray]:
    """Minimum of the quadratic form over matrices with axial strain g11 = r.

    Returns the value ``alpha r^2 / 2`` together with the minimizing
    symmetric strain ``diag(r, -r/3)`` (lateral contraction one third of
    the axial extension).
    """
    argmin = np.array([[r, 0.0], [0.0, -r / 3.0]])
    return 0.5 * alpha * r ** 2, argmin


# ----------------------------------------------------------------------
# magnetization map and field energy
# ----------------------------------------------------------------------

def _magnetization_total(F: np.ndarray) -> np.ndarray:
    """Rotation-equivariant unit direction defined for (almost) every F.

    Equals the polar factor applied to e1 wherever det F > 0; away from
    that region it normalizes the same trace/skew vector, falling back to
    the first-row direction on the degenerate set (symmetric traceless
    matrices, which contains the reflections) and to e1 at the origin.
    """
    F = np.asarray(F, dtype=float)
    t = F[..., 0, 0] + F[..., 1, 1]
    s = F[..., 1, 0] - F[..., 0, 1]
    h = np.hypot(t, s)
    g = np.hypot(F[..., 0, 0], F[..., 0, 1])
    main = h > 0.0
    row = ~main & (g > 0.0)
    hs = np.where(main, h, 1.0)
    gs = np.where(row, g, 1.0)
    m1 = np.where(main, t / hs, np.where(row, F[..., 0, 0] / gs, 1.0))
    m2 = np.where(main, s / hs, np.where(row, F[..., 0, 1] / gs, 0.0))
    return np.stack([m1, m2], axis=-1)


def magnetization(F: np.ndarray) -> np.ndarray:
    """Unit magnetization direction: the polar rotation factor applied to e1.

    Defined for det F > 0.  Equivariant under left rotations and constant
    equal to e1 on symmetric positive definite arguments.
    """
    F = np.asarray(F, dtype=float)
    det = F[..., 0, 0] * F[..., 1, 1] - F[..., 0, 1] * F[..., 1, 0]
    if np.any(det <= 0.0):
        raise MaterialError("magnetization needs det F > 0 (orientation preserved)")
    return _magnetization_total(F)


def magnetization_first(F: np.ndarray) -> np.ndarray:
    """First component of the magnetization direction."""
    return magnetization(F)[..., 0]


def magnetization_hessian_form(G: np.ndarray) -> np.ndarray:
    """Second-order coefficient of m1(Id + t G) in t: ``-((g21 - g12)/2)^2``.

    Vanishes on symmetric matrices and is nonpositive everywhere.
    """
    G = np.asarray(G, dtype=float)
    w = 0.5 * (G[..., 1, 0] - G[..., 0, 1])
    return -w * w


@dataclass(frozen=True)
class MagnetizationModel:
    """External field strength and the norm cutoff of the field energy."""

    kappa: float = 1.0
    T: float = 2.0

    def __post_init__(self):
        require_finite(MaterialError, kappa=self.kappa, T=self.T)
        if self.kappa <= 0.0:
            raise MaterialError("kappa must be positive")
        if self.T <= SQRT2:
            raise MaterialError(f"cutoff T must exceed sqrt(2), got {self.T}")


def field_energy_rows(F, model: MagnetizationModel, smooth: bool, value: np.ndarray,
                      grad=None, work=None):
    """The field law on the component rows ``F = (F00, F01, F10, F11)`` of n matrices.

    Writes ``kappa (1 - m1(F)) gate(|F|)`` into ``value``, with m1 the first
    component of the total magnetization direction (see
    :func:`_magnetization_total`) and the gate the sharp cutoff
    ``|F| <= T`` or, with ``smooth``, ``1 - smoothstep((|F| - (T - band)) /
    band)`` for the band ``FIELD_SMOOTH_BAND``.  With ``grad``, an (n, 2, 2)
    stack, the smoothed energy's derivative d/dF goes there too; it treats
    the degenerate set t = s = 0, a null set, as flat.  Every matrix is
    evaluated and the closed ones are set to zero.

    The rows may be strided views.  ``work``, an (11, n) float and a (4, n)
    bool array, is allocated when not given, so that a caller that passes
    it allocates nothing.
    """
    F00, F01, F10, F11 = F
    if work is None:
        work = np.empty((11,) + value.shape), np.empty((4,) + value.shape, dtype=bool)
    norm, x, gate, t, s, h, hs, m1, u, dt, ds = work[0]
    is_open, main, alt, sel = work[1]
    band = FIELD_SMOOTH_BAND
    np.multiply(F00, F00, out=norm)  # |F|, summed as frobenius_norms sums it
    norm += np.multiply(F01, F01, out=u)
    norm += np.multiply(F10, F10, out=u)
    norm += np.multiply(F11, F11, out=u)
    np.sqrt(norm, out=norm)
    if smooth:  # 1 - smoothstep(x)
        np.subtract(norm, model.T - band, out=x)
        x /= band
        np.clip(x, 0.0, 1.0, out=gate)
        np.multiply(gate, 2.0, out=u)
        np.subtract(3.0, u, out=u)
        gate *= gate
        gate *= u
        np.subtract(1.0, gate, out=gate)
    else:
        np.copyto(gate, np.less_equal(norm, model.T, out=is_open))
    np.greater(gate, 0.0, out=is_open)

    # m1: t / h off the degenerate set, else the first row's direction, else e1
    np.add(F00, F11, out=t)
    np.subtract(F10, F01, out=s)
    np.hypot(t, s, out=h)
    np.greater(h, 0.0, out=main)
    np.logical_not(main, out=alt)
    np.copyto(hs, h)
    np.copyto(hs, 1.0, where=alt)
    np.divide(t, hs, out=m1)
    np.hypot(F00, F01, out=u)
    np.logical_and(alt, np.greater(u, 0.0, out=sel), out=sel)
    np.divide(F00, u, out=u, where=sel)
    np.copyto(m1, u, where=sel)
    np.copyto(m1, 1.0, where=np.logical_xor(alt, sel, out=sel))
    np.subtract(1.0, m1, out=value)
    value *= model.kappa
    value *= gate
    closed = np.logical_not(is_open, out=sel)
    np.copyto(value, 0.0, where=closed)
    if grad is None:
        return
    if not smooth:
        raise MaterialError("the sharp field cutoff has no gradient")

    # d m1 / d(t, s), zero on the degenerate set, where m1 is taken as 1
    np.copyto(m1, 1.0, where=alt)
    np.power(hs, 3, out=h)
    np.square(s, out=dt)
    dt /= h
    np.copyto(dt, 0.0, where=alt)
    np.negative(t, out=ds)
    ds *= s
    ds /= h
    np.copyto(ds, 0.0, where=alt)
    # d gate / d|F| = -smoothstep'(x) / band
    np.multiply(x, 6.0, out=u)
    u *= np.subtract(1.0, x, out=t)
    inside = np.logical_and(np.greater(x, 0.0, out=main), np.less(x, 1.0, out=alt), out=main)
    np.copyto(u, 0.0, where=np.logical_not(inside, out=alt))
    np.negative(u, out=u)
    u /= band
    np.copyto(norm, 1.0, where=np.less_equal(norm, 0.0, out=alt))
    np.multiply(gate, -model.kappa, out=x)  # the coefficient of d m1
    np.subtract(1.0, m1, out=m1)  # the coefficient of d|F| = F / |F|
    m1 *= model.kappa
    m1 *= u
    for (i, j), Fij, dm in zip(((0, 0), (0, 1), (1, 0), (1, 1)), F,
                               (dt, np.negative(ds, out=s), ds, dt)):
        np.multiply(x, dm, out=hs)
        np.divide(Fij, norm, out=t)
        t *= m1
        np.add(hs, t, out=grad[:, i, j])
    grad[closed] = 0.0


def _field_energy_stack(F: np.ndarray, model: MagnetizationModel, smooth: bool,
                        with_grad: bool = False):
    """:func:`field_energy_rows` on a (..., 2, 2) stack or one matrix."""
    F = np.asarray(F, dtype=float)
    Fs = F.reshape(-1, 2, 2)
    rows = (Fs[:, 0, 0], Fs[:, 0, 1], Fs[:, 1, 0], Fs[:, 1, 1])
    value = np.empty(len(Fs))
    if with_grad:
        grad = np.empty(Fs.shape)
        field_energy_rows(rows, model, smooth, value, grad)
        return grad.reshape(F.shape)
    field_energy_rows(rows, model, smooth, value)
    return float(value[0]) if F.ndim == 2 else value.reshape(F.shape[:-2])


def field_energy(F: np.ndarray, model: MagnetizationModel) -> np.ndarray:
    """Misalignment energy kappa (1 - e1 . m(F)) for |F| <= T, zero beyond.

    Values lie in [0, 2 kappa].  The cutoff is sharp; see
    :func:`field_energy_smooth` for the solver-friendly variant.  Uses the
    total extension of the magnetization direction, so that the field
    energy is defined for every finite F with |F| <= T, including
    orientation-reversing arguments.
    """
    return _field_energy_stack(F, model, False)


def field_energy_smooth(F: np.ndarray, model: MagnetizationModel) -> np.ndarray:
    """Field energy with the sharp cutoff smoothed over (T - FIELD_SMOOTH_BAND, T)."""
    return _field_energy_stack(F, model, True)


def field_energy_smooth_grad(F: np.ndarray, model: MagnetizationModel) -> np.ndarray:
    """d/dF of the smoothed field energy; zero beyond the cutoff."""
    return _field_energy_stack(F, model, True, with_grad=True)


# ----------------------------------------------------------------------
# orientation penalty
# ----------------------------------------------------------------------

def smoothstep(x):
    """Monotone C1 clamp of x to [0, 1]."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


def _smoothstep_deriv(x):
    inside = (x > 0.0) & (x < 1.0)
    return np.where(inside, 6.0 * x * (1.0 - x), 0.0)


@dataclass(frozen=True)
class PenaltyChi:
    """Frame-indifferent penalty that floors reflected configurations.

    ``chi(F) = c_chi * s(-det F / delta_det) * (1 - s((|F| - (cutoff - width)) / width))``
    with s the smoothstep clamp.  It depends on F only through det F and
    |F|, hence is invariant under left rotations; it equals c_chi on a
    neighborhood of the reflections (det near -1) at moderate norms and
    vanishes identically near the rotations and for |F| >= cutoff_norm.
    """

    c_chi: float = 1.0
    delta_det: float = 0.1
    cutoff_norm: float = 20.0
    width: float = 1.0

    def __post_init__(self):
        require_finite(MaterialError, c_chi=self.c_chi, delta_det=self.delta_det,
                       cutoff_norm=self.cutoff_norm, width=self.width)
        if min(self.c_chi, self.delta_det, self.width) <= 0.0:
            raise MaterialError("penalty parameters must be positive")
        if self.cutoff_norm - self.width <= 2.0:
            raise MaterialError("cutoff_norm - width must stay above the norm of O(2)")

    def _ramps(self, F: np.ndarray):
        """|F| and the smoothstep arguments of the det gate and the norm fade."""
        det = F[..., 0, 0] * F[..., 1, 1] - F[..., 0, 1] * F[..., 1, 0]
        norm = frobenius_norms(F)
        return norm, -det / self.delta_det, (norm - (self.cutoff_norm - self.width)) / self.width

    def __call__(self, F: np.ndarray) -> np.ndarray:
        _, xg, xf = self._ramps(np.asarray(F, dtype=float))
        return self.c_chi * smoothstep(xg) * (1.0 - smoothstep(xf))

    def grad(self, F: np.ndarray) -> np.ndarray:
        """d chi / dF, shape (..., 2, 2)."""
        F = np.asarray(F, dtype=float)
        norm, xg, xf = self._ramps(F)
        gate, fade = smoothstep(xg), 1.0 - smoothstep(xf)
        ddet = np.stack([F[..., 1, 1], -F[..., 1, 0], -F[..., 0, 1], F[..., 0, 0]],
                        axis=-1).reshape(F.shape)  # the cofactor matrix
        safe = np.where(norm > 0.0, norm, 1.0)
        dnorm = F / safe[..., None, None]
        term1 = (_smoothstep_deriv(xg) * (-1.0 / self.delta_det) * fade)[..., None, None] * ddet
        term2 = (gate * (-_smoothstep_deriv(xf) / self.width))[..., None, None] * dnorm
        return self.c_chi * (term1 + term2)


# ----------------------------------------------------------------------
# distances to the orthogonal group
# ----------------------------------------------------------------------

def rotation_reflection_distances(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frobenius distances from F to the rotations and to the reflections.

    Uses the closed form through the signed singular values: with
    sigma1 >= sigma2 >= 0 and s = sign(det F),

    ``dist(F, SO(2))^2   = (sigma1 - 1)^2 + (s sigma2 - 1)^2``
    ``dist(F, O(2)\\SO(2))^2 = (sigma1 - 1)^2 + (s sigma2 + 1)^2``.
    """
    F = np.asarray(F, dtype=float)
    z1 = 0.5 * np.hypot(F[..., 0, 0] + F[..., 1, 1], F[..., 1, 0] - F[..., 0, 1])
    z2 = 0.5 * np.hypot(F[..., 0, 0] - F[..., 1, 1], F[..., 1, 0] + F[..., 0, 1])
    sigma1 = z1 + z2
    sigma2_signed = z1 - z2  # negative exactly when det F < 0
    d_rot = np.sqrt((sigma1 - 1.0) ** 2 + (sigma2_signed - 1.0) ** 2)
    d_refl = np.sqrt((sigma1 - 1.0) ** 2 + (sigma2_signed + 1.0) ** 2)
    return d_rot, d_refl


def distance_to_O2(F: np.ndarray) -> np.ndarray:
    d_rot, d_refl = rotation_reflection_distances(F)
    return np.minimum(d_rot, d_refl)


def coercivity_ratio_cell(F: np.ndarray, pot: PairPotential,
                          vecs: np.ndarray) -> np.ndarray:
    """Ratio cell_energy(F) / dist(F, O(2))^2, the bounded-norm coercivity test."""
    d = distance_to_O2(F)
    return cell_energy(F, pot, vecs) / d ** 2


def coercivity_ratio_field(F: np.ndarray, pot: PairPotential, chi: PenaltyChi,
                           model: MagnetizationModel,
                           vecs: np.ndarray) -> np.ndarray:
    """Ratio (cell + penalty + field energy)(F) / |F - Id|^2.

    Strict positivity over |F| <= T quantifies how the external field
    breaks the rotation invariance of the spring energy.
    """
    F = np.asarray(F, dtype=float)
    num = cell_energy(F, pot, vecs) + chi(F) + field_energy(F, model)
    diff = F - np.eye(2)
    den = np.einsum("...ij,...ij->...", diff, diff)
    return num / den

"""Lattice operators for a particle confined to the interval [-L/2, L/2].

The box is divided into N segments (N odd) of size a = L/N with one site
at the midpoint of each segment, x = n*a for integer n between -(N-1)/2
and (N-1)/2.  The walls then sit exactly half a spacing outside the
outermost sites.  All operators are Hermitian complex tridiagonal
matrices; boundary physics enters only through the two corner diagonal
entries:

* the Hamiltonian carries Robin couplings gamma/(2 m a) on the corners
  (or a mirror-ghost stencil in the hard-wall limit),
* the symmetrized first derivative p_R carries the corner parameters
  lambda = i*ell of its self-adjoint extensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhysicalConfig",
    "LatticeGrid",
    "RobinParams",
    "MomentumExtension",
    "ComplexTridiagonal",
    "LatticeWavefunction",
    "build_hamiltonian",
    "build_p_forward",
    "build_p_backward",
    "build_p_r",
    "build_p_i",
    "build_p",
    "build_parity",
    "hermiticity_defect",
]


@dataclass(frozen=True)
class PhysicalConfig:
    """Particle mass and box length, in units with hbar = 1."""

    mass: float = 1.0
    box_length: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not (math.isfinite(self.box_length) and self.box_length > 0):
            raise ValueError(f"box_length must be positive and finite, got {self.box_length}")


@dataclass(frozen=True)
class LatticeGrid:
    """Midpoint grid with an odd number of sites.

    The first site sits at -(L-a)/2, sites step by a, and the grid is
    symmetric about 0 (site index n = 0 is the middle site).
    """

    num_sites: int
    box_length: float = 1.0

    def __post_init__(self):
        n = self.num_sites
        if n < 3 or n % 2 == 0:
            raise ValueError(f"num_sites must be odd and >= 3, got {n}")
        if not (math.isfinite(self.box_length) and self.box_length > 0):
            raise ValueError(f"box_length must be positive, got {self.box_length}")

    @property
    def spacing(self) -> float:
        return self.box_length / self.num_sites

    @property
    def site_indices(self) -> np.ndarray:
        half = (self.num_sites - 1) // 2
        return np.arange(-half, half + 1)

    @property
    def sites(self) -> np.ndarray:
        return self.site_indices * self.spacing


@dataclass(frozen=True)
class RobinParams:
    """Robin boundary couplings gamma_plus (right wall) and gamma_minus
    (left wall).  Self-adjointness requires both to be real; ``math.inf``
    flags the hard-wall (Dirichlet) limit on that side."""

    gamma_plus: float = 0.0
    gamma_minus: float = 0.0

    def __post_init__(self):
        for name, g in (("gamma_plus", self.gamma_plus), ("gamma_minus", self.gamma_minus)):
            if math.isnan(g):
                raise ValueError(f"{name} must be real or +inf, got nan")
            if g == -math.inf:
                raise ValueError(f"{name} = -inf is not a valid boundary coupling")

    @classmethod
    def dirichlet(cls) -> "RobinParams":
        return cls(math.inf, math.inf)

    @classmethod
    def neumann(cls) -> "RobinParams":
        return cls(0.0, 0.0)

    @classmethod
    def symmetric(cls, gamma: float) -> "RobinParams":
        return cls(gamma, gamma)

    @property
    def dirichlet_plus(self) -> bool:
        return math.isinf(self.gamma_plus)

    @property
    def dirichlet_minus(self) -> bool:
        return math.isinf(self.gamma_minus)

    @property
    def is_dirichlet(self) -> bool:
        return self.dirichlet_plus and self.dirichlet_minus


@dataclass(frozen=True)
class MomentumExtension:
    """Self-adjoint extension parameters of the momentum operator.

    Stored as the real numbers ell with lambda = i*ell, which enforces
    purely imaginary lambda by construction.
    """

    ell_plus: float = 1.0
    ell_minus: float = 1.0

    def __post_init__(self):
        for name, v in (("ell_plus", self.ell_plus), ("ell_minus", self.ell_minus)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")

    @classmethod
    def symmetric(cls, ell: float) -> "MomentumExtension":
        return cls(ell, ell)

    @property
    def lambda_plus(self) -> complex:
        return 1j * self.ell_plus

    @property
    def lambda_minus(self) -> complex:
        return 1j * self.ell_minus


@dataclass
class ComplexTridiagonal:
    """Tridiagonal matrix with complex entries.

    Dense conversion is meant for test oracles and parity products only;
    all production paths work on the three bands.
    """

    diagonal: np.ndarray
    superdiagonal: np.ndarray
    subdiagonal: np.ndarray

    def __post_init__(self):
        self.diagonal = np.asarray(self.diagonal, dtype=np.complex128)
        self.superdiagonal = np.asarray(self.superdiagonal, dtype=np.complex128)
        self.subdiagonal = np.asarray(self.subdiagonal, dtype=np.complex128)
        n = self.diagonal.size
        if self.superdiagonal.size != n - 1 or self.subdiagonal.size != n - 1:
            raise ValueError("off-diagonals must have length n - 1")

    @property
    def n(self) -> int:
        return self.diagonal.size

    def is_hermitian(self) -> bool:
        return hermiticity_defect(self) == 0.0

    def adjoint(self) -> "ComplexTridiagonal":
        return ComplexTridiagonal(
            np.conj(self.diagonal),
            np.conj(self.subdiagonal),
            np.conj(self.superdiagonal),
        )

    def to_dense(self) -> np.ndarray:
        out = np.diag(self.diagonal)
        out += np.diag(self.superdiagonal, 1)
        out += np.diag(self.subdiagonal, -1)
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v for a vector of length n or an (n, m) block of columns."""
        v = np.asarray(v)
        shape = (-1,) + (1,) * (v.ndim - 1)
        out = self.diagonal.reshape(shape) * v
        out[:-1] += self.superdiagonal.reshape(shape) * v[1:]
        out[1:] += self.subdiagonal.reshape(shape) * v[:-1]
        return out

    def max_abs(self) -> float:
        return max(
            np.abs(self.diagonal).max(initial=0.0),
            np.abs(self.superdiagonal).max(initial=0.0),
            np.abs(self.subdiagonal).max(initial=0.0),
        )

    def __add__(self, other: "ComplexTridiagonal") -> "ComplexTridiagonal":
        return ComplexTridiagonal(
            self.diagonal + other.diagonal,
            self.superdiagonal + other.superdiagonal,
            self.subdiagonal + other.subdiagonal,
        )

    def __mul__(self, scalar) -> "ComplexTridiagonal":
        return ComplexTridiagonal(
            scalar * self.diagonal,
            scalar * self.superdiagonal,
            scalar * self.subdiagonal,
        )

    __rmul__ = __mul__


@dataclass
class LatticeWavefunction:
    """Complex amplitudes on the lattice sites.

    Inner products carry the segment weight a, so that sampled continuum
    states keep their continuum normalization.
    """

    values: np.ndarray
    grid: LatticeGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.size != self.grid.num_sites:
            raise ValueError("values length must match the grid")

    def inner(self, other: "LatticeWavefunction") -> complex:
        return self.grid.spacing * np.vdot(self.values, other.values)

    def norm(self) -> float:
        return math.sqrt(self.inner(self).real)

    def normalized(self) -> "LatticeWavefunction":
        return LatticeWavefunction(self.values / self.norm(), self.grid)

    def expectation(self, op: ComplexTridiagonal) -> complex:
        return self.grid.spacing * np.vdot(self.values, op.matvec(self.values))


def _corner_stencil(gamma: float, a: float, m: float, boundary: str) -> float:
    """Corner diagonal entry (without potential) for one wall.

    "corner" keeps the free-end stencil and adds the diagonal coupling
    gamma/(2 m a); this is first-order accurate in a because the coupling
    sits on the corner site, half a spacing inside the wall.  "folded"
    eliminates a ghost site through the Robin condition discretized at
    the wall itself, psi_ghost = c * psi_corner with
    c = (1 - gamma a/2)/(1 + gamma a/2), which is second-order accurate.
    The hard-wall flag (gamma = inf) gives c = -1, a mirror-odd ghost, in
    either mode: corner stencil entry -1 becomes -3.
    """
    t = 1.0 / (2.0 * m * a * a)
    if math.isinf(gamma):
        return 3.0 * t
    if boundary == "corner":
        return t + gamma / (2.0 * m * a)
    if boundary == "folded":
        denom = 1.0 + 0.5 * gamma * a
        if abs(denom) < 1e-12:
            raise ValueError(f"folded wall is singular at gamma = -2/a (gamma={gamma}, a={a})")
        c = (1.0 - 0.5 * gamma * a) / denom
        return t * (2.0 - c)
    raise ValueError(f"boundary must be 'corner' or 'folded', got {boundary!r}")


def build_hamiltonian(
    grid: LatticeGrid,
    cfg: PhysicalConfig,
    robin: RobinParams,
    potential: np.ndarray | None = None,
    boundary: str = "corner",
) -> ComplexTridiagonal:
    """Kinetic stencil plus potential plus boundary couplings.

    Interior rows are the standard three-point second derivative; the
    corner rows encode the Robin couplings (see ``_corner_stencil`` for
    the two available schemes).  Hard walls always use the mirror ghost,
    which keeps the boundary at exactly +-L/2.
    """
    n = grid.num_sites
    a = grid.spacing
    m = cfg.mass
    if potential is None:
        potential = np.zeros(n)
    potential = np.asarray(potential, dtype=np.float64)
    if potential.size != n:
        raise ValueError("potential must be sampled at the lattice sites")
    if not np.all(np.isfinite(potential)):
        raise ValueError("potential entries must be finite")

    t = 1.0 / (2.0 * m * a * a)
    diag = np.full(n, 2.0 * t) + potential
    off = np.full(n - 1, -t)
    diag[0] = _corner_stencil(robin.gamma_minus, a, m, boundary) + potential[0]
    diag[-1] = _corner_stencil(robin.gamma_plus, a, m, boundary) + potential[-1]

    return ComplexTridiagonal(diag.astype(np.complex128), off.astype(np.complex128), off.astype(np.complex128))


def build_p_forward(grid: LatticeGrid, ext: MomentumExtension) -> ComplexTridiagonal:
    """Forward difference -i(psi[n+1] - psi[n])/a with the extension
    parameter lambda_plus replacing the missing upper neighbor in the
    last row."""
    n = grid.num_sites
    a = grid.spacing
    diag = np.full(n, 1j / a)
    diag[-1] = -(1j / a) * ext.lambda_plus
    sup = np.full(n - 1, -1j / a)
    sub = np.zeros(n - 1, dtype=np.complex128)
    return ComplexTridiagonal(diag, sup, sub)


def build_p_backward(grid: LatticeGrid, ext: MomentumExtension) -> ComplexTridiagonal:
    """Backward difference -i(psi[n] - psi[n-1])/a, with lambda_minus in
    the first row."""
    n = grid.num_sites
    a = grid.spacing
    diag = np.full(n, -1j / a)
    diag[0] = (1j / a) * ext.lambda_minus
    sub = np.full(n - 1, 1j / a)
    sup = np.zeros(n - 1, dtype=np.complex128)
    return ComplexTridiagonal(diag, sup, sub)


def build_p_r(grid: LatticeGrid, ext: MomentumExtension) -> ComplexTridiagonal:
    """Hermitian momentum component: the symmetrized forward-backward
    derivative, a next-to-nearest-neighbor stencil over two spacings.

    Equals (p_F + p_F^† + p_B + p_B^†)/4 entrywise.  The corner entries
    -lambda_minus and +lambda_plus (times -i/2a) are real because the
    extension parameters are purely imaginary.
    """
    n = grid.num_sites
    a = grid.spacing
    diag = np.zeros(n, dtype=np.complex128)
    diag[0] = -ext.ell_minus / (2.0 * a)
    diag[-1] = ext.ell_plus / (2.0 * a)
    sup = np.full(n - 1, -1j / (2.0 * a))
    sub = np.full(n - 1, 1j / (2.0 * a))
    return ComplexTridiagonal(diag, sup, sub)


def build_p_i(grid: LatticeGrid) -> ComplexTridiagonal:
    """Diagonal part of the momentum splitting p = p_R + i p_I: supported
    on the two boundary sites with values +-1/(2a)."""
    n = grid.num_sites
    a = grid.spacing
    diag = np.zeros(n, dtype=np.complex128)
    diag[0] = 1.0 / (2.0 * a)
    diag[-1] = -1.0 / (2.0 * a)
    zero = np.zeros(n - 1, dtype=np.complex128)
    return ComplexTridiagonal(diag, zero.copy(), zero.copy())


def build_p(grid: LatticeGrid, ext: MomentumExtension) -> ComplexTridiagonal:
    """Full (non-Hermitian) momentum p = p_R + i p_I."""
    return build_p_r(grid, ext) + (1j * build_p_i(grid))


def build_parity(grid: LatticeGrid) -> np.ndarray:
    """Site-reversal permutation as a dense matrix (involution, U^2 = 1)."""
    return np.fliplr(np.eye(grid.num_sites))


def hermiticity_defect(A: ComplexTridiagonal) -> float:
    """Max-norm of A - A^†, zero exactly for Hermitian construction."""
    diag_defect = 2.0 * np.abs(A.diagonal.imag).max(initial=0.0)
    off_defect = np.abs(A.superdiagonal - np.conj(A.subdiagonal)).max(initial=0.0)
    return float(max(diag_defect, off_defect))

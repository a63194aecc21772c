"""Two-component continuum formulation of the confined particle.

States are pairs (psi_e, psi_o) on [-L/2, L/2].  The Hermitian momentum
acts as p_R = -i sigma_1 d/dx, and its self-adjoint extensions impose
psi_o(+-L/2) = lambda_pm psi_e(+-L/2) with purely imaginary lambda.  The
Hamiltonian lives in a different domain: its finite-energy sector has
psi_o = psi_e with a Robin condition, while the orthogonal sector obeys
hard-wall conditions and is pushed to high energy by a penalty coupling
mu.  The domains are incompatible, which is what makes momentum
measurements in a box nontrivial; several helpers below quantify that.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import (
    LatticeGrid,
    LatticeWavefunction,
    MomentumExtension,
    PhysicalConfig,
    RobinParams,
    build_hamiltonian,
    build_p_r,
)
from .quadrature import quadrature_nodes
from .quantization import (
    momentum_continuum_residual,
    solve_energy_continuum,
)

__all__ = [
    "TwoComponentWavefunction",
    "MomentumEigenstate",
    "EnergyEigenstate",
    "ScalarWavefunction",
    "GeneralBCParams",
    "GeneralBCValidation",
    "momentum_eigenstate",
    "energy_eigenstate",
    "apply_p_r",
    "momentum_bc_residual",
    "probability_current",
    "project",
    "shift_operator",
    "shift_operator_lattice",
    "shift_commutator_residual",
    "build_doubled_hamiltonian_lattice",
    "validate_general_bc",
    "sample_scalar_on_grid",
    "sample_two_component_on_grid",
]

#: default uniform grid used when an operator needs sampled values
#: (test-resolution parameter; halving the spacing quarters the error)
DEFAULT_SAMPLES = 2049


def _sinpi(t):
    """sin(pi t), exactly zero at integer t and exactly +-1 at
    half-integers (reduction around the nearest integer)."""
    t = np.asarray(t, dtype=np.float64)
    r = np.round(t)
    return np.sin(math.pi * (t - r)) * np.where(r.astype(np.int64) % 2 == 0, 1.0, -1.0)


def _cospi(t):
    return _sinpi(np.asarray(t, dtype=np.float64) + 0.5)


def _vectorized(f):
    def wrapped(x):
        return np.asarray(f(np.asarray(x, dtype=np.float64)), dtype=np.complex128)

    return wrapped


def _interp_callable(nodes, values):
    re = np.ascontiguousarray(values.real)
    im = np.ascontiguousarray(values.imag)

    def f(x):
        x = np.asarray(x, dtype=np.float64)
        return np.interp(x, nodes, re) + 1j * np.interp(x, nodes, im)

    return f


@dataclass(frozen=True)
class TwoComponentWavefunction:
    """Pair of complex component functions on the box, with optional
    analytic derivatives and an oscillation hint for quadrature sizing."""

    psi_e: Callable[[np.ndarray], np.ndarray]
    psi_o: Callable[[np.ndarray], np.ndarray]
    cfg: PhysicalConfig
    d_psi_e: Callable[[np.ndarray], np.ndarray] | None = None
    d_psi_o: Callable[[np.ndarray], np.ndarray] | None = None
    wavenumber: float = 0.0

    @classmethod
    def constant(cls, value_e: complex, value_o: complex, cfg: PhysicalConfig):
        zero = _vectorized(lambda x: np.zeros_like(x))
        return cls(
            _vectorized(lambda x: np.full(x.shape, value_e, dtype=np.complex128)),
            _vectorized(lambda x: np.full(x.shape, value_o, dtype=np.complex128)),
            cfg,
            zero,
            zero,
        )

    @classmethod
    def plane_pair(cls, k: float, cfg: PhysicalConfig, amplitude: complex = 1.0):
        """(e^{ikx}, e^{ikx}) times amplitude; eigenvector of sigma_1."""
        f = _vectorized(lambda x: amplitude * np.exp(1j * k * x))
        df = _vectorized(lambda x: 1j * k * amplitude * np.exp(1j * k * x))
        return cls(f, f, cfg, df, df, wavenumber=abs(k))

    @classmethod
    def from_arrays(cls, x, values_e, values_o, cfg: PhysicalConfig):
        x = np.asarray(x, dtype=np.float64)
        e = np.asarray(values_e, dtype=np.complex128)
        o = np.asarray(values_o, dtype=np.complex128)
        return cls(_interp_callable(x, e), _interp_callable(x, o), cfg)

    @property
    def has_derivative(self) -> bool:
        return self.d_psi_e is not None and self.d_psi_o is not None

    def components(self, x):
        return self.psi_e(x), self.psi_o(x)

    def inner(self, other: "TwoComponentWavefunction") -> complex:
        L = self.cfg.box_length
        x, w = quadrature_nodes(-L / 2, L / 2, self.wavenumber + other.wavenumber)
        vals = (
            np.conj(self.psi_e(x)) * other.psi_e(x)
            + np.conj(self.psi_o(x)) * other.psi_o(x)
        )
        return complex(w @ vals)

    def norm_squared(self) -> float:
        L = self.cfg.box_length
        x, w = quadrature_nodes(-L / 2, L / 2, 2.0 * self.wavenumber)
        return float(w @ (np.abs(self.psi_e(x)) ** 2 + np.abs(self.psi_o(x)) ** 2))

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())


@dataclass(frozen=True)
class MomentumEigenstate:
    """Normalized eigenstate of the extended momentum at a quantized k.

    ``coefficient_a``/``coefficient_b`` are the amplitudes of e^{ikx} and
    e^{-ikx} in the even component (the odd component flips the sign of
    b).  For equal extension parameters the closed ratio
    sigma = (1 - lambda)/(1 + lambda) is attached; b = (-1)^n sigma a.
    """

    k: float
    coefficient_a: complex
    coefficient_b: complex
    parity_label: int
    cfg: PhysicalConfig
    ext: MomentumExtension
    sigma: complex | None = None

    def wavefunction(self) -> TwoComponentWavefunction:
        k, a, b = self.k, self.coefficient_a, self.coefficient_b

        def even(x):
            return a * np.exp(1j * k * x) + b * np.exp(-1j * k * x)

        def odd(x):
            return a * np.exp(1j * k * x) - b * np.exp(-1j * k * x)

        def d_even(x):
            return 1j * k * (a * np.exp(1j * k * x) - b * np.exp(-1j * k * x))

        def d_odd(x):
            return 1j * k * (a * np.exp(1j * k * x) + b * np.exp(-1j * k * x))

        return TwoComponentWavefunction(
            _vectorized(even), _vectorized(odd), self.cfg,
            _vectorized(d_even), _vectorized(d_odd), wavenumber=abs(k),
        )


def momentum_eigenstate(
    cfg: PhysicalConfig,
    ext: MomentumExtension,
    k: float,
    label: int,
) -> MomentumEigenstate:
    """Construct the normalized momentum eigenstate for a quantized root k.

    Raises ValueError when k does not satisfy the quantization condition
    (the boundary system then only has the trivial solution).
    """
    L = cfg.box_length
    if momentum_continuum_residual(cfg, ext, k) > 1e-6:
        raise ValueError(f"k = {k} is not a momentum root for ell = "
                         f"({ext.ell_plus}, {ext.ell_minus})")
    scale = 1.0 / math.sqrt(2.0 * L)  # |a|^2 + |b|^2 for a unit-norm state

    if ext.ell_plus == ext.ell_minus:
        lam = ext.lambda_plus
        sigma = (1.0 - lam) / (1.0 + lam)
        a = 0.5 / math.sqrt(L)
        b = (-1) ** (label % 2) * sigma * a
        return MomentumEigenstate(k, a, b, label, cfg, ext, sigma=sigma)

    lp, lm = ext.lambda_plus, ext.lambda_minus
    rows = np.array(
        [
            [(1.0 - lp) * cmath.exp(1j * k * L), -(1.0 + lp)],
            [(1.0 - lm) * cmath.exp(-1j * k * L), -(1.0 + lm)],
        ]
    )
    r = rows[0] if np.linalg.norm(rows[0]) >= np.linalg.norm(rows[1]) else rows[1]
    a, b = r[1], -r[0]
    nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    a, b = a / nrm * scale, b / nrm * scale
    anchor = a if abs(a) > 1e-12 else b
    phase = anchor / abs(anchor)
    return MomentumEigenstate(k, a / phase, b / phase, label, cfg, ext)


# ---------------------------------------------------------------------------
# energy eigenstates (single component, plus their two-component embedding)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarWavefunction:
    """Single-component wavefunction with an analytic derivative."""

    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    cfg: PhysicalConfig


@dataclass(frozen=True)
class EnergyEigenstate:
    """Eigenstate of the box Hamiltonian, normalized on [-L/2, L/2].

    ``kind`` is one of dirichlet_cos, dirichlet_sin, neumann (the
    constant ground state) or robin_numeric (trigonometric state built
    from a numerically quantized wavenumber).
    """

    l: int
    kind: str
    E: float
    k: float
    coefficient_a: complex
    coefficient_b: complex
    cfg: PhysicalConfig
    robin: RobinParams

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        return (
            self.coefficient_a * np.exp(1j * self.k * x)
            + self.coefficient_b * np.exp(-1j * self.k * x)
        )

    def derivative(self, x):
        x = np.asarray(x, dtype=np.float64)
        return 1j * self.k * (
            self.coefficient_a * np.exp(1j * self.k * x)
            - self.coefficient_b * np.exp(-1j * self.k * x)
        )

    def scalar(self) -> ScalarWavefunction:
        return ScalarWavefunction(self.value, self.derivative, self.cfg)

    def two_component(self) -> TwoComponentWavefunction:
        """Embedding into the finite-energy sector, psi_o = psi_e."""
        inv = 1.0 / math.sqrt(2.0)

        def f(x):
            return inv * self.value(x)

        def df(x):
            return inv * self.derivative(x)

        return TwoComponentWavefunction(
            _vectorized(f), _vectorized(f), self.cfg,
            _vectorized(df), _vectorized(df), wavenumber=abs(self.k),
        )

    def bc_residual(self) -> tuple[float, float]:
        """Boundary-condition defect (right wall, left wall): the Robin
        combination for finite couplings, |psi| at a hard wall."""
        L = self.cfg.box_length
        out = []
        for gamma, x_w, sgn in (
            (self.robin.gamma_plus, L / 2, 1.0),
            (self.robin.gamma_minus, -L / 2, -1.0),
        ):
            if math.isinf(gamma):
                out.append(abs(complex(self.value(x_w))))
            else:
                out.append(abs(gamma * complex(self.value(x_w)) + sgn * complex(self.derivative(x_w))))
        return out[0], out[1]


def energy_eigenstate(cfg: PhysicalConfig, robin: RobinParams, l: int) -> EnergyEigenstate:
    """Closed-form eigenstate for hard walls, the constant Neumann ground
    state for l = 0, and otherwise the trigonometric state built on the
    quantized root with ascending-energy label l."""
    L = cfg.box_length
    if robin.is_dirichlet:
        if l < 1:
            raise ValueError("hard-wall labels start at 1")
        q = math.pi * l / L
        amp = math.sqrt(2.0 / L)
        if l % 2 == 1:  # cos(q x) = (e^{iqx} + e^{-iqx})/2
            a = b = 0.5 * amp
            kind = "dirichlet_cos"
        else:  # sin(q x) = (e^{iqx} - e^{-iqx})/(2i)
            a, b = -0.5j * amp, 0.5j * amp
            kind = "dirichlet_sin"
        return EnergyEigenstate(l, kind, q * q / (2.0 * cfg.mass), q, a, b, cfg, robin)

    roots = solve_energy_continuum(cfg, robin)
    if l not in roots.labels:
        raise ValueError(f"label {l} not among the quantized levels found (bound states "
                         "have no closed-form eigenstate here)")
    k = float(roots.real_roots[list(roots.labels).index(l)])
    if k == 0.0:
        amp = 0.5 / math.sqrt(L)  # constant state a + b = 1/sqrt(L) at k = 0
        return EnergyEigenstate(l, "neumann", 0.0, 0.0, amp, amp, cfg, robin)

    gm = robin.gamma_minus
    beta = cmath.exp(1j * k * L / 2) * (gm + 1j * k)
    a = -1j * beta
    b = np.conj(a)  # real-valued eigenfunction
    # closed-form normalization of |a e^{ikx} + b e^{-ikx}|^2
    cross = 2.0 * (a * np.conj(b)).real * math.sin(k * L) / k
    nrm = math.sqrt(L * (abs(a) ** 2 + abs(b) ** 2) + cross)
    return EnergyEigenstate(l, "robin_numeric", k * k / (2.0 * cfg.mass), k, a / nrm, b / nrm, cfg, robin)


# ---------------------------------------------------------------------------
# operators on two-component states
# ---------------------------------------------------------------------------

def apply_p_r(psi: TwoComponentWavefunction, num_samples: int = DEFAULT_SAMPLES) -> TwoComponentWavefunction:
    """-i sigma_1 d/dx: swap components and differentiate.

    Uses the analytic derivatives when the state carries them; otherwise
    differentiates ``num_samples`` uniform samples with central
    differences (one-sided second-order stencils at the walls).
    """
    cfg = psi.cfg
    if psi.has_derivative:
        d_e, d_o = psi.d_psi_e, psi.d_psi_o
        return TwoComponentWavefunction(
            _vectorized(lambda x: -1j * d_o(x)),
            _vectorized(lambda x: -1j * d_e(x)),
            cfg,
            wavenumber=psi.wavenumber,
        )

    L = cfg.box_length
    x = np.linspace(-L / 2, L / 2, num_samples)
    h = x[1] - x[0]
    out = []
    for f in (psi.psi_o, psi.psi_e):  # component swap
        v = f(x)
        d = np.empty_like(v)
        d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
        out.append(-1j * d)
    return TwoComponentWavefunction.from_arrays(x, out[0], out[1], cfg)


def momentum_bc_residual(psi: TwoComponentWavefunction, ext: MomentumExtension) -> tuple[float, float]:
    """|psi_o - lambda psi_e| at (+L/2, -L/2): membership defect of the
    momentum domain."""
    L = psi.cfg.box_length
    e_p, o_p = complex(psi.psi_e(L / 2)), complex(psi.psi_o(L / 2))
    e_m, o_m = complex(psi.psi_e(-L / 2)), complex(psi.psi_o(-L / 2))
    return (
        abs(o_p - ext.lambda_plus * e_p),
        abs(o_m - ext.lambda_minus * e_m),
    )


def probability_current(state, x) -> float:
    """Single-component flux Im(psi* psi')/m at position x; vanishes at
    both walls for any state satisfying self-adjoint boundary conditions."""
    psi = complex(np.asarray(state.value(x), dtype=np.complex128))
    dpsi = complex(np.asarray(state.derivative(x), dtype=np.complex128))
    return float((np.conj(psi) * dpsi).imag / state.cfg.mass)


def project(psi: TwoComponentWavefunction, sign: int) -> TwoComponentWavefunction:
    """Apply the sector projector with matrix (1, s; s, 1)/2, s = +-1."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    s = float(sign)
    e, o = psi.psi_e, psi.psi_o

    def new_e(x):
        return 0.5 * (e(x) + s * o(x))

    def new_o(x):
        return 0.5 * (s * e(x) + o(x))

    d_e = d_o = None
    if psi.has_derivative:
        de, do = psi.d_psi_e, psi.d_psi_o
        d_e = _vectorized(lambda x: 0.5 * (de(x) + s * do(x)))
        d_o = _vectorized(lambda x: 0.5 * (s * de(x) + do(x)))
    return TwoComponentWavefunction(
        _vectorized(new_e), _vectorized(new_o), psi.cfg, d_e, d_o, wavenumber=psi.wavenumber
    )


# ---------------------------------------------------------------------------
# momentum shift operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftOperator:
    """Position-dependent 2x2 ladder operator
    sin(pi x/L) -+ i sigma_1 cos(pi x/L) (upper sign: raising).

    Raising and lowering are mutual adjoints and inverses, and both
    reduce to +-identity at the walls, so they preserve every momentum
    domain."""

    sign: int
    cfg: PhysicalConfig

    def matrix_at(self, x: float) -> np.ndarray:
        L = self.cfg.box_length
        s = complex(_sinpi(x / L))
        c = complex(_cospi(x / L))
        off = -1j * c if self.sign > 0 else 1j * c
        return np.array([[s, off], [off, s]])

    def apply(self, psi: TwoComponentWavefunction) -> TwoComponentWavefunction:
        L = self.cfg.box_length
        w = math.pi / L
        sgn = -1j if self.sign > 0 else 1j

        def diag(x):
            return _sinpi(x / L)

        def off(x):
            return sgn * _cospi(x / L)

        e, o = psi.psi_e, psi.psi_o
        new_e = _vectorized(lambda x: diag(x) * e(x) + off(x) * o(x))
        new_o = _vectorized(lambda x: off(x) * e(x) + diag(x) * o(x))
        d_e = d_o = None
        if psi.has_derivative:
            de, do = psi.d_psi_e, psi.d_psi_o
            d_e = _vectorized(
                lambda x: w * _cospi(x / L) * e(x) + diag(x) * de(x)
                + sgn * (-w) * _sinpi(x / L) * o(x) + off(x) * do(x)
            )
            d_o = _vectorized(
                lambda x: w * _cospi(x / L) * o(x) + diag(x) * do(x)
                + sgn * (-w) * _sinpi(x / L) * e(x) + off(x) * de(x)
            )
        return TwoComponentWavefunction(
            new_e, new_o, psi.cfg, d_e, d_o, wavenumber=psi.wavenumber + w
        )


def shift_operator(sign: int, cfg: PhysicalConfig) -> ShiftOperator:
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return ShiftOperator(sign, cfg)


def shift_operator_lattice(
    grid: LatticeGrid, cfg: PhysicalConfig, ext: MomentumExtension, sign: int
) -> np.ndarray:
    """Lattice realization of the shift operator as a dense matrix.

    The component swap becomes a nearest-neighbor average (adjacent sites
    carry opposite parity); at the walls the missing neighbor is the same
    ghost value lambda * psi_corner that defines the momentum corner
    entries, so domain states stay consistent to O(a^2).
    """
    n = grid.num_sites
    x = grid.sites
    L = grid.box_length
    if abs(L - cfg.box_length) > 1e-12 * L:
        raise ValueError("grid and config box lengths disagree")
    swap = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n - 1)
    swap[idx, idx + 1] += 0.5
    swap[idx + 1, idx] += 0.5
    swap[0, 0] += 0.5 * ext.lambda_minus
    swap[-1, -1] += 0.5 * ext.lambda_plus
    lower = np.diag(_sinpi(x / L)) + 1j * np.diag(_cospi(x / L)) @ swap
    return lower if sign < 0 else lower.conj().T


def sample_scalar_on_grid(state, grid: LatticeGrid) -> LatticeWavefunction:
    return LatticeWavefunction(np.asarray(state.value(grid.sites), dtype=np.complex128), grid)


def sample_two_component_on_grid(psi: TwoComponentWavefunction, grid: LatticeGrid) -> LatticeWavefunction:
    """Interleave the components in alternation, with both corner sites
    carrying the even component.

    Corner-anchored alternation (rather than the parity of the signed
    site index) keeps the ghost relations psi_ghost = lambda psi_corner
    consistent with the boundary conditions at both walls for every odd
    N; the two conventions coincide when (N-1)/2 is even.
    """
    x = grid.sites
    even = psi.psi_e(x)
    odd = psi.psi_o(x)
    values = np.where(np.arange(grid.num_sites) % 2 == 0, even, odd)
    return LatticeWavefunction(values, grid)


def shift_commutator_residual(
    grid: LatticeGrid,
    cfg: PhysicalConfig,
    ext: MomentumExtension,
    sign: int,
    probe_labels: tuple[int, ...] = (0, 1, -1),
) -> float:
    """Defect of the ladder algebra on the lattice, measured on smooth
    momentum-domain probe states:

        max over probes of ||([p_R, A] - sign*(pi/L) A) psi|| / ||psi||.

    Local stencils cannot reproduce a pointwise operator in the full
    operator norm (their symbol deviates at the zone edge), so the
    algebra is checked where it holds: on smooth states of the domain.
    """
    from .quantization import solve_momentum_continuum

    L = grid.box_length
    p_r = build_p_r(grid, ext).to_dense()
    A = shift_operator_lattice(grid, cfg, ext, sign)
    defect = p_r @ A - A @ p_r - sign * (math.pi / L) * A

    roots = solve_momentum_continuum(cfg, ext, k_max=(max(abs(l) for l in probe_labels) + 1.5) * math.pi / L)
    worst = 0.0
    for label in probe_labels:
        pos = list(roots.labels).index(label)
        state = momentum_eigenstate(cfg, ext, float(roots.real_roots[pos]), label)
        probe = sample_two_component_on_grid(state.wavefunction(), grid).normalized()
        resid = LatticeWavefunction(defect @ probe.values, grid).norm()
        worst = max(worst, resid)
    return worst


# ---------------------------------------------------------------------------
# doubled Hamiltonian with sector penalty
# ---------------------------------------------------------------------------

def build_doubled_hamiltonian_lattice(
    grid: LatticeGrid,
    cfg: PhysicalConfig,
    robin: RobinParams,
    mu: float,
) -> np.ndarray:
    """2N x 2N Hermitian operator on interleaved (even, odd) component
    blocks: Robin dynamics on the symmetric sector, hard-wall dynamics
    plus the penalty mu on the antisymmetric one.

    Built block-diagonally in the +- sector basis and rotated to the
    (e, o) basis, so the penalty is exactly mu times the antisymmetric
    projector.
    """
    if mu < 0:
        raise ValueError(f"penalty mu must be nonnegative, got {mu}")
    h_plus = build_hamiltonian(grid, cfg, robin).to_dense()
    h_minus = build_hamiltonian(grid, cfg, RobinParams.dirichlet()).to_dense()
    h_minus_mu = h_minus + mu * np.eye(grid.num_sites)
    upper = 0.5 * (h_plus + h_minus_mu)
    cross = 0.5 * (h_plus - h_minus_mu)
    return np.block([[upper, cross], [cross, upper]])


# ---------------------------------------------------------------------------
# general self-adjoint boundary family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralBCParams:
    """Wall-by-wall linear boundary relations between the odd and even
    components and their derivatives: a phase theta and a real 2x2
    matrix (a, +-b; +-c, d) per wall."""

    theta_plus: float = 0.0
    theta_minus: float = 0.0
    a_plus: float = 1.0
    b_plus: float = 0.0
    c_plus: float = 0.0
    d_plus: float = -1.0
    a_minus: float = 1.0
    b_minus: float = 0.0
    c_minus: float = 0.0
    d_minus: float = -1.0


@dataclass(frozen=True)
class GeneralBCValidation:
    passed: bool
    determinant_plus: float
    determinant_minus: float
    reduces_to_special: bool
    gamma_plus: float | None
    gamma_minus: float | None
    violations: tuple[str, ...]


_DET_TOL = 1e-12


def validate_general_bc(params: GeneralBCParams) -> GeneralBCValidation:
    """Check the current-conservation constraints of the boundary family
    (real parameters, determinant -1 per wall) and report whether the
    parameters reduce to the momentum-compatible special point
    (theta = 0, a = 1, b = 0, d = -1), which carries Robin couplings
    gamma = -c/2 on the symmetric sector."""
    violations = []
    dets = {}
    for side in ("plus", "minus"):
        a = getattr(params, f"a_{side}")
        b = getattr(params, f"b_{side}")
        c = getattr(params, f"c_{side}")
        d = getattr(params, f"d_{side}")
        theta = getattr(params, f"theta_{side}")
        for name, v in (("a", a), ("b", b), ("c", c), ("d", d), ("theta", theta)):
            if not math.isfinite(v):
                violations.append(f"{name}_{side} is not finite")
        det = a * d - b * c
        dets[side] = det
        if abs(det + 1.0) > _DET_TOL:
            violations.append(f"determinant_{side} = {det} != -1")

    def special(side):
        return (
            abs(cmath.exp(1j * getattr(params, f"theta_{side}")) - 1.0) <= _DET_TOL
            and abs(getattr(params, f"a_{side}") - 1.0) <= _DET_TOL
            and abs(getattr(params, f"b_{side}")) <= _DET_TOL
            and abs(getattr(params, f"d_{side}") + 1.0) <= _DET_TOL
        )

    reduces = special("plus") and special("minus") and not violations
    return GeneralBCValidation(
        passed=not violations,
        determinant_plus=dets["plus"],
        determinant_minus=dets["minus"],
        reduces_to_special=reduces,
        gamma_plus=-params.c_plus / 2.0 if reduces else None,
        gamma_minus=-params.c_minus / 2.0 if reduces else None,
        violations=tuple(violations),
    )

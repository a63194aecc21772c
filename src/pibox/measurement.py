"""Momentum-measurement statistics in energy eigenstates.

For equal extension parameters the quantized outcomes are k = pi*n/L.
Box and momentum eigenstates are both sums of two exponentials, so
``general_distribution`` gives every outcome probability in one closed
form, per parity of n a rational function of n times sin^2; the
hard-wall and free-end ground-state distributions are that law applied
to their states.  Truncated sums carry their analytic tails (Hurwitz-zeta
series, or digamma and trigamma) instead of being renormalized, so
normalization defects stay visible.  ``fourier_density`` gives the
contrasting unquantized (whole-line Fourier) momentum density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .continuum import EnergyEigenstate, _sinpi, energy_eigenstate, sample_scalar_on_grid
from .continuum import momentum_eigenstate  # noqa: F401  (unused; perfbench/spans.py wraps it here)
from .lattice import (
    LatticeGrid,
    MomentumExtension,
    PhysicalConfig,
    RobinParams,
    build_p_i,
    build_p_r,
)
from .quadrature import quadrature_nodes

__all__ = [
    "MomentumDistribution",
    "FourierDensity",
    "dirichlet_distribution",
    "neumann_ground_distribution",
    "general_distribution",
    "p_expectations",
    "fourier_density",
]


@dataclass
class MomentumDistribution:
    """Quantized momentum outcomes: parallel arrays of label n, outcome
    k = pi*n/L and probability, truncated at |n| <= cutoff_n with the
    remaining probability reported as ``tail_mass``.

    ``delta_k`` is the standard deviation of the outcome distribution
    (math.inf flags divergence); ``second_moment_tail`` is the analytic
    remainder of sum k^2 P(k) when known.
    """

    n: np.ndarray
    k: np.ndarray
    probability: np.ndarray
    cutoff_n: int
    tail_mass: float
    delta_k: float
    second_moment_tail: float | None = None
    meta: dict = field(default_factory=dict)

    def total_mass(self) -> float:
        return float(self.probability.sum() + self.tail_mass)

    def first_moment(self) -> float:
        return float((self.k * self.probability).sum())

    def second_moment(self) -> float:
        m2 = float((self.k**2 * self.probability).sum())
        if self.second_moment_tail is not None:
            m2 += self.second_moment_tail
        return m2

    def partial_second_moment(self, max_abs_n: int) -> float:
        """sum of k^2 P(k) over |n| <= max_abs_n (divergence witness for
        Neumann states: grows without bound as the window widens)."""
        if max_abs_n > self.cutoff_n:
            raise ValueError("window exceeds the stored cutoff")
        mask = np.abs(self.n) <= max_abs_n
        return float((self.k[mask] ** 2 * self.probability[mask]).sum())

    def delta_k_from_moments(self) -> float:
        return math.sqrt(max(self.second_moment() - self.first_moment() ** 2, 0.0))


def dirichlet_distribution(cfg: PhysicalConfig, l: int, cutoff_n: int = 10_000) -> MomentumDistribution:
    """Closed-form outcome distribution for the hard-wall eigenstate l:
    probability 1/4 at n = +-l, (4/pi^2) l^2/(l^2 - n^2)^2 when n and l
    have opposite parity, zero otherwise.  delta_k = pi*l/L exactly.
    """
    if l < 1:
        raise ValueError("hard-wall labels start at 1")
    if cutoff_n < l + 1:
        raise ValueError("cutoff_n must exceed the level l")
    robin = RobinParams.dirichlet()
    return general_distribution(cfg, robin, MomentumExtension(), energy_eigenstate(cfg, robin, l), cutoff_n)


def neumann_ground_distribution(cfg: PhysicalConfig, cutoff_n: int = 10_000) -> MomentumDistribution:
    """Distribution in the free-end ground state: probability 1/2 at
    k = 0 and 2/(pi^2 n^2) for odd n.  The second moment diverges, so
    delta_k is flagged infinite."""
    if cutoff_n < 1:
        raise ValueError("cutoff_n must be at least 1")
    robin = RobinParams.neumann()
    return general_distribution(cfg, robin, MomentumExtension(), energy_eigenstate(cfg, robin, 0), cutoff_n)


def _abs2(z):
    return z.real * z.real + z.imag * z.imag  # abs(z)**2 rounds through a square root


def _parity_sums(t: float, n0: int) -> tuple[float, float]:
    """S1 = sum 1/(n^2 - t^2) and S2 = sum 1/(n^2 - t^2)^2 over n = n0, n0 + 2, ...
    (0 <= t < n0).  For t <= n0/4 both are power series in t^2 over Hurwitz
    zeta values (16 terms reach the last bit), where psi and psi' would cancel."""
    from scipy.special import polygamma, psi, zeta  # deferred: it would be most of `import pibox`

    if t <= n0 / 4:
        m = np.arange(16)
        x = (0.5 * t) ** (2 * m)
        return (0.25 * float(zeta(2.0 * m + 2.0, 0.5 * n0) @ x),
                0.0625 * float(zeta(2.0 * m + 4.0, 0.5 * n0) @ ((m + 1) * x)))
    lo, hi = 0.5 * (n0 - t), 0.5 * (n0 + t)
    s1 = float(psi(hi) - psi(lo)) / (4.0 * t)
    return s1, (0.25 * float(polygamma(1, lo) + polygamma(1, hi)) - 2.0 * s1) / (4.0 * t * t)


def general_distribution(
    cfg: PhysicalConfig,
    robin: RobinParams,
    ext: MomentumExtension,
    state: EnergyEigenstate,
    cutoff_n: int = 64,
) -> MomentumDistribution:
    """Outcome probabilities of psi = a e^{iqx} + b e^{-iqx} at k_n = pi*n/L
    (equal extension parameters; P does not depend on their value).  With
    t = qL/pi (exactly l for hard walls), s = (-1)^n and N^2 the norm of psi
    from its coefficients,

        P(n) = (4/pi^2) sin^2(pi(t-n)/2) (A_s t^2 + B_s n^2 + C_s t n) / (t^2-n^2)^2,
        (A_s, B_s, C_s) = ((L/2)|a+sb|^2, (L/2)|a-sb|^2, L Re((a+sb)(a-sb)*)) / N^2,

    and at n = +-t the two-sinc form (L/2)|a sinc((q-k)L/2) + b sinc((q+k)L/2)|^2 / N^2.
    Hard-wall weights come out exactly 1 or 0, so the peaks are exactly 1/4
    and forbidden outcomes exactly 0.  Per parity the tail is
    2 (4/pi^2) sin^2 [(A+B) t^2 S2 + B S1]; the t n term cancels over +-n.
    Unless psi vanishes at both walls P ~ 1/n^2 and delta_k is infinite;
    hard walls also carry the k^2 tail."""
    if ext.ell_plus != ext.ell_minus:
        raise ValueError("general distribution needs equal extension parameters")
    nrm = state.two_component().norm()
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"state is not normalized (norm = {nrm})")
    L = cfg.box_length
    a, b = state.coefficient_a, state.coefficient_b
    t = float(state.l) if robin.is_dirichlet else state.k * L / math.pi
    if t >= cutoff_n + 1:
        raise ValueError(f"cutoff_n must exceed qL/pi - 1 = {t - 1} (the state's peak)")
    n = np.arange(-cutoff_n, cutoff_n + 1)
    x = n.astype(float)

    sinc_t = 1.0 if t == 0.0 else float(_sinpi(t)) / (math.pi * t)
    norm2 = L * (_abs2(a) + _abs2(b)) + 2.0 * (a * np.conj(b)).real * L * sinc_t
    # rows: the parity of n, with sin^2(pi(t-n)/2) taken at n = 0 and 1 (t - 1 is exact near odd t)
    weights = np.array([[0.5 * L * _abs2(a + s * b), 0.5 * L * _abs2(a - s * b),
                         L * ((a + s * b) * np.conj(a - s * b)).real] for s in (1.0, -1.0)])
    weights *= _sinpi(0.5 * (t - np.array([[0.0], [1.0]]))) ** 2 / norm2
    p = np.empty(n.size)
    for i in (0, 1):  # n alternates in parity
        A, B, C = weights[n[i] % 2]
        y = x[i::2]
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at n = +-t, set below
            p[i::2] = (4.0 / math.pi**2) * (A * (t * t) + B * (y * y) + C * (t * y)) / ((t - y) * (t + y)) ** 2
    p[x == t] = 0.5 * L * _abs2(a + b * sinc_t) / norm2  # sinc(0) = 1 beside sinc(pi t)
    p[x == -t] = 0.5 * L * _abs2(a * sinc_t + b) / norm2

    tail = k2_tail = 0.0
    for n0 in (cutoff_n + 1, cutoff_n + 2):  # first tail outcome of each parity
        A, B, _ = weights[n0 % 2]
        s1, s2 = _parity_sums(t, n0)
        tail += 2.0 * (4.0 / math.pi**2) * ((A + B) * t * t * s2 + B * s1)
        k2_tail += 2.0 * (4.0 / L**2) * A * t * t * (s1 + t * t * s2)
    hard = robin.is_dirichlet
    return MomentumDistribution(n, math.pi * n / L, p, cutoff_n, tail, abs(state.k) if hard else math.inf,
                                k2_tail if hard else None, meta={
        "kind": "general", "state_kind": state.kind, "l": state.l, "ell": ext.ell_plus})


def p_expectations(
    state,
    grid: LatticeGrid | None = None,
    ext: MomentumExtension | None = None,
) -> tuple[float, float]:
    """Lattice expectation values (<p_R>, <p_I>) of a single-component
    state (anything exposing ``.value``), sampled on a 999-site grid by
    default and renormalized there."""
    cfg = state.cfg
    if grid is None:
        grid = LatticeGrid(999, cfg.box_length)
    if ext is None:
        ext = MomentumExtension(1.0, 1.0)
    psi = sample_scalar_on_grid(state, grid).normalized()
    exp_r = psi.expectation(build_p_r(grid, ext))
    exp_i = psi.expectation(build_p_i(grid))
    return float(exp_r.real), float(exp_i.real)


# ---------------------------------------------------------------------------
# unquantized momentum: whole-line Fourier transform of the box state
# ---------------------------------------------------------------------------

@dataclass
class FourierDensity:
    """Unquantized momentum density (1/2pi)|psi~(k)|^2 sampled on
    [-cutoff_K, cutoff_K], with analytic large-k tail estimates."""

    k: np.ndarray
    density: np.ndarray
    cutoff_K: float
    delta_k: float
    tail_mass: float
    second_moment_tail: float | None
    _density_exact: Callable[[np.ndarray], np.ndarray]  # the closed form behind ``density``
    meta: dict = field(default_factory=dict)

    def total_mass(self) -> float:
        x, w = quadrature_nodes(-self.cutoff_K, self.cutoff_K, self.meta["box_length"])
        return float(w @ self._density_exact(x)) + self.tail_mass

    def partial_second_moment(self, K: float) -> float:
        if K > self.cutoff_K:
            raise ValueError("window exceeds the stored cutoff")
        x, w = quadrature_nodes(-K, K, self.meta["box_length"])
        return float(w @ (x**2 * self._density_exact(x)))


def _dirichlet_ft_density(cfg: PhysicalConfig, l: int):
    """Closed-form density of the hard-wall state l: the transform is a
    two-pole resonance around +-q with cos/sin envelope by parity."""
    L = cfg.box_length
    q = math.pi * l / L
    trig = np.cos if l % 2 == 1 else np.sin

    def density(k):
        k = np.asarray(k, dtype=np.float64)
        num = (8.0 * q * q / L) * trig(0.5 * k * L) ** 2
        den = (q * q - k * k) ** 2
        # removable singularity at k = +-q: |psi~|^2 -> L/2
        near = np.abs(np.abs(k) - q) < 1e-8 * q
        den = np.where(near, 1.0, den)
        out = np.where(near, 0.5 * L, num / den)
        return out / (2.0 * math.pi)

    return density, q


def fourier_density(
    cfg: PhysicalConfig,
    l: int,
    cutoff_K: float,
    kind: str = "dirichlet",
    num_samples: int = 2001,
) -> FourierDensity:
    """Momentum density of a box eigenstate measured with the standard
    whole-line momentum.

    For hard-wall states the second moment converges and delta_k comes
    out equal to the quantized-momentum uncertainty pi*l/L; the analytic
    O(1/K) remainder of the k^2 integral is added so moderate cutoffs
    stay accurate.  For the free-end (Neumann) ground state the second
    moment diverges: delta_k is flagged infinite and partial moments are
    exposed instead.
    """
    L = cfg.box_length
    if cutoff_K <= 0:
        raise ValueError("cutoff_K must be positive")

    if kind == "neumann":
        # psi~ = 2 sin(kL/2)/(k sqrt(L)), so the density is
        # (2/pi L) sin^2(kL/2)/k^2 with value L/(2 pi) at k = 0
        def density(k):
            k = np.asarray(k, dtype=np.float64)
            near = np.abs(k) * L < 1e-12
            kk = np.where(near, 1.0, k)
            raw = np.where(near, 0.25 * L * L, np.sin(0.5 * kk * L) ** 2 / kk**2)
            return (2.0 / (math.pi * L)) * raw

        from scipy.special import sici  # deferred: it would be most of `import pibox`

        # 2 int_K^inf of the density, by parts: sin^2(KL/2)/K + (L/2) int_K^inf sin(kL)/k dk
        tail_mass = (4.0 / (math.pi * L)) * (
            math.sin(0.5 * cutoff_K * L) ** 2 / cutoff_K + 0.5 * L * (0.5 * math.pi - float(sici(cutoff_K * L)[0])))
        ks = np.linspace(-cutoff_K, cutoff_K, num_samples)
        return FourierDensity(ks, density(ks), cutoff_K, math.inf, tail_mass, None, density,
                              meta={"kind": "neumann", "box_length": L})

    if kind != "dirichlet":
        raise ValueError(f"kind must be 'dirichlet' or 'neumann', got {kind!r}")
    if l < 1:
        raise ValueError("hard-wall labels start at 1")
    density, q = _dirichlet_ft_density(cfg, l)
    if cutoff_K < max(20.0 * q, 100.0 / L):
        raise ValueError(
            f"cutoff_K = {cutoff_K} too small for a controlled tail "
            f"(need >= {max(20.0 * q, 100.0 / L)})"
        )

    # exact resonance integrals:  int_K^inf dk/(k^2-q^2)   and  /(k^2-q^2)^2
    log_ratio = math.log((cutoff_K + q) / (cutoff_K - q))
    i1 = log_ratio / (2.0 * q)
    i2 = cutoff_K / (2.0 * q * q * (cutoff_K**2 - q**2)) - log_ratio / (4.0 * q**3)
    prefactor = 8.0 * q * q / (2.0 * math.pi * L)
    k2_tail = prefactor * (i1 + q * q * i2)  # mean trig^2 = 1/2, both sides
    tail_mass = prefactor * i2

    x, w = quadrature_nodes(-cutoff_K, cutoff_K, L)
    second = float(w @ (x**2 * density(x))) + k2_tail

    ks = np.linspace(-cutoff_K, cutoff_K, num_samples)
    return FourierDensity(ks, density(ks), cutoff_K, math.sqrt(second), tail_mass,
                          k2_tail, density, meta={"kind": "dirichlet", "l": l, "box_length": L})

"""Momentum-measurement statistics in energy eigenstates.

For equal extension parameters the quantized outcomes are k = pi*n/L.
Box and momentum eigenstates are both sums of two exponentials, so
``general_distribution`` gives every outcome probability in closed form
(two sincs); the hard-wall and Neumann-ground laws have their own
rational forms.  Truncated sums carry their analytic tails (digamma,
trigamma or Hurwitz-zeta series remainders) instead of being renormalized, so
normalization defects stay visible.  ``fourier_density`` gives the
contrasting unquantized (whole-line Fourier) momentum density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .continuum import EnergyEigenstate, _cospi, _sinpi, sample_scalar_on_grid
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


def _odd_series_tails(j_min: float, l: float):
    """Remainders of the step-2 lattice sums over j = j_min, j_min + 2, ...
    (j_min > 0 and the shift l real), via trigamma and digamma:

        S2a = sum_j 1/j^2               = psi'(j_min/2)/4
        S2b = sum_j 1/(j+2l)^2          = psi'(j_min/2 + l)/4
        S1  = sum_j [1/j - 1/(j+2l)]    = [psi(j_min/2+l) - psi(j_min/2)]/2
    """
    from scipy.special import polygamma, psi  # deferred: it would be most of `import pibox`

    half = 0.5 * j_min
    s2a = 0.25 * float(polygamma(1, half))
    s2b = 0.25 * float(polygamma(1, half + l))
    s1 = 0.5 * float(psi(half + l) - psi(half))
    return s2a, s2b, s1


def dirichlet_distribution(cfg: PhysicalConfig, l: int, cutoff_n: int = 10_000) -> MomentumDistribution:
    """Closed-form outcome distribution for the hard-wall eigenstate l:
    probability 1/4 at n = +-l, (4/pi^2) l^2/(l^2 - n^2)^2 when n and l
    have opposite parity, zero otherwise.  delta_k = pi*l/L exactly.
    """
    if l < 1:
        raise ValueError("hard-wall labels start at 1")
    if cutoff_n < l + 1:
        raise ValueError("cutoff_n must exceed the level l")
    L = cfg.box_length
    n = np.arange(-cutoff_n, cutoff_n + 1)
    k = math.pi * n / L
    p = np.zeros_like(k)
    opposite = (n % 2) != (l % 2)
    with np.errstate(divide="ignore"):
        formula = (4.0 / math.pi**2) * l**2 / (l**2 - n.astype(float) ** 2) ** 2
    p[opposite] = formula[opposite]
    p[np.abs(n) == l] = 0.25

    # analytic remainders over n > cutoff with n - l odd (doubled for -n)
    j_min = cutoff_n - l + 1
    if j_min % 2 == 0:
        j_min += 1
    s2a, s2b, s1 = _odd_series_tails(j_min, l)
    n0 = j_min + l  # first tail outcome
    if l <= n0 / 4:  # 1/(n^2-l^2)^2 as a power series in l^2/n^2: s2a + s2b and s1 cancel
        from scipy.special import zeta

        m = np.arange(16)
        tail = (0.5 / math.pi**2) * l**2 * float(
            zeta(2.0 * m + 4.0, 0.5 * n0) @ ((m + 1) * (0.5 * l) ** (2 * m)))
    else:
        tail = 2.0 * (4.0 / math.pi**2) * (0.25 * (s2a + s2b) - s1 / (4.0 * l))
    k2_tail = 2.0 * (4.0 * l**2 / L**2) * (0.25 * (s2a + s2b) + s1 / (4.0 * l))

    return MomentumDistribution(
        n=n,
        k=k,
        probability=p,
        cutoff_n=cutoff_n,
        tail_mass=tail,
        delta_k=math.pi * l / L,
        second_moment_tail=k2_tail,
        meta={"kind": "dirichlet", "l": l},
    )


def neumann_ground_distribution(cfg: PhysicalConfig, cutoff_n: int = 10_000) -> MomentumDistribution:
    """Distribution in the free-end ground state: probability 1/2 at
    k = 0 and 2/(pi^2 n^2) for odd n.  The second moment diverges, so
    delta_k is flagged infinite."""
    from scipy.special import polygamma

    if cutoff_n < 1:
        raise ValueError("cutoff_n must be at least 1")
    L = cfg.box_length
    n = np.arange(-cutoff_n, cutoff_n + 1)
    k = math.pi * n / L
    p = np.zeros_like(k)
    odd = n % 2 != 0
    with np.errstate(divide="ignore"):
        p[odd] = 2.0 / (math.pi**2 * n[odd].astype(float) ** 2)
    p[n == 0] = 0.5

    j_min = cutoff_n + 1 if cutoff_n % 2 == 0 else cutoff_n + 2
    tail = 2.0 * (2.0 / math.pi**2) * 0.25 * float(polygamma(1, 0.5 * j_min))

    return MomentumDistribution(
        n=n,
        k=k,
        probability=p,
        cutoff_n=cutoff_n,
        tail_mass=tail,
        delta_k=math.inf,
        second_moment_tail=None,  # divergent
        meta={"kind": "neumann_ground"},
    )


def general_distribution(
    cfg: PhysicalConfig,
    robin: RobinParams,
    ext: MomentumExtension,
    state: EnergyEigenstate,
    cutoff_n: int = 64,
) -> MomentumDistribution:
    """Outcome probabilities of psi = A e^{iqx} + B e^{-iqx} in closed form,
    P(k_n) = (L/2) |A sinc((q-k_n)L/2) + B sinc((q+k_n)L/2)|^2 at k_n = pi*n/L
    (equal extension parameters; P does not depend on their value).  Per
    parity of n the tail is a pair of 1/(n -+ t)^2 series, t = qL/pi, and
    their cross term.  Unless psi vanishes at both walls P ~ 1/n^2, so
    delta_k is infinite."""
    if ext.ell_plus != ext.ell_minus:
        raise ValueError("general distribution needs equal extension parameters")
    nrm = state.two_component().norm()
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"state is not normalized (norm = {nrm})")
    L = cfg.box_length
    a, b = state.coefficient_a, state.coefficient_b
    t = state.k * L / math.pi
    if t >= cutoff_n + 1:
        raise ValueError(f"cutoff_n must exceed qL/pi - 1 = {t - 1} (the state's peak)")
    n = np.arange(-cutoff_n, cutoff_n + 1)

    u = np.stack([t - n, t + n])  # sinc((q -+ k_n)L/2) = sin(pi u/2)/(pi u/2), exact at integer u
    safe = np.where(u == 0.0, 1.0, u)
    sinc = np.where(u == 0.0, 1.0, _sinpi(0.5 * safe) / (0.5 * math.pi * safe))
    p = 0.5 * L * np.abs(a * sinc[0] + b * sinc[1]) ** 2

    tail = 0.0
    for n0 in (cutoff_n + 1, cutoff_n + 2):  # first tail outcome of each parity
        trig, alpha = (_sinpi(0.5 * t), a) if n0 % 2 == 0 else (_cospi(0.5 * t), -a)
        s2a, s2b, s1 = _odd_series_tails(n0 - t, t)
        if t > n0 / 4:  # cross = sum 1/(n^2 - t^2)
            cross = s1 / (2.0 * t)
        else:  # as a power series in t, without the cancellation in s1
            from scipy.special import zeta

            m = np.arange(16)
            cross = 0.25 * float(zeta(2.0 * m + 2.0, 0.5 * n0) @ (0.5 * t) ** (2 * m))
        tail += (2.0 * L / math.pi**2) * float(trig) ** 2 * (
            (abs(a) ** 2 + abs(b) ** 2) * (s2a + s2b) - 4.0 * (alpha * np.conj(b)).real * cross)

    delta_k = abs(state.k) if robin.is_dirichlet else math.inf
    return MomentumDistribution(n, math.pi * n / L, p, cutoff_n, tail, delta_k, meta={
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

        ks = np.linspace(-cutoff_K, cutoff_K, num_samples)
        tail_mass = 2.0 / (math.pi * L * cutoff_K)  # mean sin^2 = 1/2, both sides
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

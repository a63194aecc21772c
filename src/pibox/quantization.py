"""Roots of the energy and momentum quantization conditions.

All four conditions have the unimodular form exp(i*phase_lhs(k)) =
exp(i*phase_rhs(k)) for real k, so each is solved through a continuous
real phase function F(k); a root with integer label n satisfies
F(k) = 2*pi*n.  Working with phases (instead of moduli of the complex
condition) avoids spurious roots and gives clean bracketing:

* energy, continuum:  F(k) = 2kL + 2*atan2(k, g+) + 2*atan2(k, g-)
* energy, lattice:    F(k) = 2k(L-a) + 2*atan2(s, g+ + (cos(ka)-1)/a)
                      + ... with s = sin(ka)/a  (same reduction)
* momentum, continuum: constant right-hand phase, roots in closed form
* momentum, lattice:  F(k) = 2k(L-a) + 2*atan2(sin(ka) - ell+, cos(ka))
                      + 2*atan2(sin(ka) + ell-, cos(ka))

Each phase is scanned on one uniform grid of spacing pi/(20L), and the
lattice root counts are checked.  Lattice momentum roots live in the half
zone |k| < pi/(2a), where the dispersion k_hat = sin(ka)/a is injective,
so eigenvalues and roots are in one-to-one correspondence.  Negative
Robin couplings additionally support boundary-localized states with k = i*kappa and E = -kappa^2/2m,
found by scanning the real continuation of the condition.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .eigensolver import sturm_count
from .lattice import LatticeGrid, MomentumExtension, PhysicalConfig, RobinParams, build_hamiltonian

__all__ = [
    "RootSet",
    "RootScanError",
    "solve_energy_continuum",
    "solve_energy_lattice",
    "solve_momentum_continuum",
    "solve_momentum_lattice",
]

#: back-substitution residual |lhs - rhs| accepted for every returned root
RESIDUAL_BOUND = 1e-10

_BISECT_XTOL = 1e-13
_DEDUP_TOL = 1e-12
_BOUND_SCAN_POINTS = 65  # whatever the couplings


class RootScanError(RuntimeError):
    """A scan found no bracket, or the root count contradicts the model."""


@dataclass
class RootSet:
    """Labeled roots of one quantization condition.

    ``labels`` follow the ascending-energy (or integer momentum) indexing:
    energy problems label bound states first, continuing through the real
    roots, starting at 1 for hard walls and at 0 otherwise; momentum
    problems use the signed integer from the phase level. ``residuals``
    are |lhs - rhs| of the condition at each real root.
    """

    kind: str
    real_roots: np.ndarray
    labels: np.ndarray
    residuals: np.ndarray
    energies: np.ndarray | None = None
    bound_roots: np.ndarray | None = None
    bound_energies: np.ndarray | None = None
    k_hat: np.ndarray | None = None
    meta: dict = field(default_factory=dict)


def _bisect(f, a, b, fa, fb, xtol=_BISECT_XTOL):
    """Bisection of all brackets [a_i, b_i] at once to |b - a| <= xtol, one
    call f(m, sel) per sweep on the midpoints of the open brackets sel.
    Per bracket it is scalar bisection step for step: an exact zero at an
    endpoint or midpoint is the root (else the root drifts off), and a
    midpoint that no longer splits the bracket stops it."""
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    if np.any(fa * fb > 0):
        i = int(np.argmax(fa * fb > 0))
        raise RootScanError(f"lost bracket on [{a[i]}, {b[i]}]")
    root = np.where(fa == 0.0, a, np.where(fb == 0.0, b, np.nan))
    sel = np.nonzero((fa != 0.0) & (fb != 0.0))[0]
    while True:
        m = 0.5 * (a[sel] + b[sel])
        go = (b[sel] - a[sel] > xtol) & (m > a[sel]) & (m < b[sel])
        sel, m = sel[go], m[go]
        if not sel.size:
            return np.where(np.isnan(root), 0.5 * (a + b), root)
        fm = f(m, sel)
        zero = fm == 0.0
        root[sel[zero]] = m[zero]
        sel, m, fm = sel[~zero], m[~zero], fm[~zero]
        left = fa[sel] * fm < 0  # the sign change is in [a, m]
        b[sel[left]], fb[sel[left]] = m[left], fm[left]
        a[sel[~left]], fa[sel[~left]] = m[~left], fm[~left]


def _phase_roots(phase, k_grid, slope0=None):
    """All (k, n) with phase(k) = 2*pi*n bracketed on the scan grid: one
    bracket per adjacent grid pair and integer level it straddles, all
    bisected together.  On grids starting at the trivial root k = 0,
    ``slope0`` (with the sign of phase(0+) - phase(0)) stands in for the
    exact zero there, so a second crossing of that level in the first
    cell is found instead of collapsing onto k = 0."""
    values = phase(k_grid)
    two_pi = 2.0 * math.pi
    lo_lvl = np.ceil(np.minimum(values[:-1], values[1:]) / two_pi - 1e-12)
    hi_lvl = np.floor(np.maximum(values[:-1], values[1:]) / two_pi + 1e-12)
    counts = np.maximum(hi_lvl - lo_lvl + 1.0, 0.0).astype(int)
    cell = np.repeat(np.arange(counts.size), counts)
    # level n runs over lo_lvl..hi_lvl within each cell, cells in grid order
    levels = lo_lvl[cell] + (np.arange(cell.size) - np.repeat(np.cumsum(counts) - counts, counts))
    target = two_pi * levels
    ga, gb = values[cell] - target, values[cell + 1] - target
    if slope0 is not None:
        ga[(cell == 0) & (ga == 0.0)] = slope0
    keep = ga * gb <= 0
    cell, levels, target = cell[keep], levels[keep], target[keep]
    roots = _bisect(lambda m, sel: phase(m) - target[sel],
                    k_grid[cell], k_grid[cell + 1], ga[keep], gb[keep])
    return roots, levels.astype(int)


def _check_residuals(residuals, kind):
    worst = float(residuals.max()) if residuals.size else 0.0
    if worst > RESIDUAL_BOUND:
        raise RootScanError(
            f"{kind}: back-substitution residual {worst:.3e} exceeds {RESIDUAL_BOUND}"
        )


def _dedupe(roots, labels, tol):
    order = np.argsort(roots)
    roots, labels = np.asarray(roots)[order], np.asarray(labels, dtype=int)[order]
    keep = np.diff(roots, prepend=-np.inf) > tol
    return roots[keep], labels[keep]


# ---------------------------------------------------------------------------
# energy, continuum
# ---------------------------------------------------------------------------

def _energy_continuum_rhs(k: complex, robin: RobinParams) -> complex:
    num, den = 1.0 + 0.0j, 1.0 + 0.0j
    for g in (robin.gamma_plus, robin.gamma_minus):
        if math.isinf(g):
            continue
        num *= g - 1j * k
        den *= g + 1j * k
    return num / den


def energy_continuum_residual(cfg: PhysicalConfig, robin: RobinParams, k):
    """|exp(2ikL) - rhs(k)| at each root k (a number or an array)."""
    return np.abs(np.exp(2j * k * cfg.box_length) - _energy_continuum_rhs(k, robin))


def _degeneracy(robin: RobinParams, length: float) -> float:
    """D = g+ g- length + g+ + g- for walls ``length`` apart (g length + 1
    beside a hard wall, length between two), or 0 within rounding: a zero
    mode (linear state at E = 0).  Just right of k = 0 the bound-state
    condition moves with sign -D, and the energy phase with sign D / (g+ g-)
    over the finite couplings, or jumps up by pi at a Neumann wall."""
    finite = [g for g in (robin.gamma_plus, robin.gamma_minus) if not math.isinf(g)]
    if len(finite) == 2:
        terms = (finite[0] * finite[1] * length, *finite)
    else:
        terms = (finite[0] * length, 1.0) if finite else (length,)
    d = sum(terms)
    return 0.0 if abs(d) <= 1e-14 * max(map(abs, terms)) else d


def _split_zero_level(roots: np.ndarray, robin: RobinParams, length: float, L: float):
    """The roots above 1e-9*pi/L, deduplicated, and [0.0] for a k = 0 level:
    a zero mode (D = 0 for walls ``length`` apart), or a root below that floor,
    the near-constant ground level of a D > 0 too small to tell apart from
    k = 0 (couplings of one sign of about 1e-17 or less)."""
    tiny = roots <= 1e-9 * math.pi / L
    roots, _ = _dedupe(roots[~tiny], np.arange(roots.size - np.count_nonzero(tiny)), _DEDUP_TOL)
    return roots, [0.0] if tiny.any() or _degeneracy(robin, length) == 0.0 else []


def _phase_slope0(robin: RobinParams, length: float) -> float:
    d = _degeneracy(robin, length)
    walls = math.prod(g for g in (robin.gamma_plus, robin.gamma_minus) if not math.isinf(g))
    return d / walls if walls else float(d != 0.0)


def solve_energy_continuum(cfg: PhysicalConfig, robin: RobinParams, k_max: float | None = None) -> RootSet:
    """All energy roots with 0 < k <= k_max, plus boundary-bound states
    (k = i*kappa, E = -kappa^2/2m) when a Robin coupling is negative.

    A zero mode (E = 0) is included when the boundary conditions support
    one (Neumann being the standard case).
    """
    L = cfg.box_length
    if k_max is None:
        k_max = 50.0 * math.pi / L
    if k_max <= 0:
        raise ValueError("k_max must be positive")

    def phase(k):
        # arctan2(k, inf) = 0: a hard wall adds no phase
        return 2.0 * k * L + 2.0 * np.arctan2(k, robin.gamma_plus) + 2.0 * np.arctan2(k, robin.gamma_minus)

    resolution = math.pi / (20.0 * L)
    n_scan = int(math.ceil(k_max / resolution)) + 1
    k_grid = np.linspace(0.0, k_max, n_scan)
    roots, zero = _split_zero_level(_phase_roots(phase, k_grid, _phase_slope0(robin, L))[0], robin, L, L)
    if roots.size == 0 and not zero:
        raise RootScanError(
            f"no energy roots in (0, {k_max}] at scan resolution {resolution:.3e}"
        )

    bound = _bound_roots(cfg, robin)

    real_roots = np.concatenate([zero, roots])
    energies = real_roots**2 / (2.0 * cfg.mass)
    # the k = 0 level is set, not solved, so its residual is zero by
    # construction (the k > 0 form degenerates there)
    residuals = np.concatenate([np.zeros(len(zero)), energy_continuum_residual(cfg, robin, roots)])

    _check_residuals(residuals, "energy_continuum")
    first = 1 if robin.is_dirichlet else 0
    labels = np.arange(first + bound.size, first + bound.size + real_roots.size)
    return RootSet(
        kind="energy_continuum",
        real_roots=real_roots,
        labels=labels,
        residuals=residuals,
        energies=energies,
        bound_roots=bound,
        bound_energies=-(bound**2) / (2.0 * cfg.mass),
        meta={"k_max": k_max, "scan_resolution": resolution, "first_label": first},
    )


def _bound_roots(cfg: PhysicalConfig, robin: RobinParams) -> np.ndarray:
    """kappa > 0 with f(kappa) = exp(-2 kappa L) prod(g - kappa) -
    prod(g + kappa) = 0 over the finite couplings g (the energy condition
    at k = i*kappa), descending (ascending energy).

    Beyond kappa_max = max(2 max|g < 0|, ln 9 / 2L) each |g - kappa| /
    (g + kappa) is at most 3 and exp(-2 kappa L) < 1/9, so f < 0; f(0+)
    has the sign of -D (see ``_degeneracy``).  So the root count is odd
    iff D < 0, at most one per attractive wall, and a fixed grid over
    (0, kappa_max] plus the points |g| (where f > 0 if both walls attract)
    brackets every root, whatever |g|."""
    L = cfg.box_length
    finite = [g for g in (robin.gamma_plus, robin.gamma_minus) if not math.isinf(g)]
    attractive = [-g for g in finite if g < 0.0]
    if not attractive:
        return np.asarray([])
    d = _degeneracy(robin, L)
    # a zero mode (D = 0) takes the place of one bound state
    expected = 1 if d < 0.0 else len(attractive) // 2 * 2 if d > 0.0 else len(attractive) - 1

    def condition(kappa):
        left, right = np.exp(-2.0 * kappa * L), 1.0
        for g in finite:
            left, right = left * (g - kappa), right * (g + kappa)
        return left - right

    kappa_max = max(2.0 * max(attractive), math.log(9.0) / (2.0 * L))
    grid = np.unique(np.concatenate([np.linspace(0.0, kappa_max, _BOUND_SCAN_POINTS), attractive]))
    vals = condition(grid)
    vals[0] = -d  # f(0) = 0; just right of it f has the sign of -D
    zeros = grid[1:][vals[1:] == 0.0]
    # a zero that f touches without crossing is two roots closer than the
    # float spacing (equal couplings with exp(-2 kappa L) underflowing)
    touch = condition(np.nextafter(zeros, 0.0)) * condition(np.nextafter(zeros, np.inf)) > 0.0
    cell = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
    crossed = _bisect(lambda m, sel: condition(m), grid[cell], grid[cell + 1],
                      vals[cell], vals[cell + 1])
    roots = np.concatenate([zeros, zeros[touch], crossed])
    if roots.size != expected:
        raise RootScanError(
            f"bound-state scan found {roots.size} roots where the couplings "
            f"({robin.gamma_plus}, {robin.gamma_minus}) hold {expected}"
        )
    return np.sort(roots)[::-1]


# ---------------------------------------------------------------------------
# energy, lattice
# ---------------------------------------------------------------------------

def _energy_lattice_rhs(k, grid: LatticeGrid, cfg: PhysicalConfig, robin: RobinParams):
    a = grid.spacing
    e_term = (2.0 / a) * (1.0 - np.cos(k * a))  # 2 m E a with E on the lattice dispersion
    out = 1.0 + 0.0j
    for g in (robin.gamma_plus, robin.gamma_minus):
        num = g + (1.0 - np.exp(1j * k * a)) / a - e_term
        den = g + (1.0 - np.exp(-1j * k * a)) / a - e_term
        out = out * num / den
    return out


def energy_lattice_residual(grid: LatticeGrid, cfg: PhysicalConfig, robin: RobinParams, k):
    """|exp(2ik(L - a)) - rhs(k)| at each root k (a number or an array)."""
    phase = np.exp(2j * k * (grid.box_length - grid.spacing))
    return np.abs(phase - _energy_lattice_rhs(k, grid, cfg, robin))


def lattice_dispersion_energy(grid: LatticeGrid, cfg: PhysicalConfig, k):
    """E(k) = ((2/a) sin(ka/2))^2 / 2m, the lattice energy of wavenumber k."""
    a = grid.spacing
    return (2.0 / a * np.sin(0.5 * k * a)) ** 2 / (2.0 * cfg.mass)


def solve_energy_lattice(grid: LatticeGrid, cfg: PhysicalConfig, robin: RobinParams) -> RootSet:
    """Real-k roots of the lattice energy quantization condition.

    Requires finite Robin couplings (the hard-wall limit is covered by
    the ghost-stencil Hamiltonian and the eigensolver instead).  Energies
    attach through the lattice dispersion, and the root count is checked
    against the Sturm count of the in-band levels of H.
    """
    if robin.dirichlet_plus or robin.dirichlet_minus:
        raise ValueError("lattice energy condition needs finite Robin couplings")
    a = grid.spacing
    L = grid.box_length
    zone_edge = math.pi / a

    def phase(k):
        s = np.sin(k * a) / a
        shift = (np.cos(k * a) - 1.0) / a
        return (
            2.0 * k * (L - a)
            + 2.0 * np.arctan2(s, robin.gamma_plus + shift)
            + 2.0 * np.arctan2(s, robin.gamma_minus + shift)
        )

    # the phase function touches the level 2*pi*(N+1) exactly at the zone
    # edge without crossing it; scan strictly inside to keep that spurious
    # grazing contact out of the bracketing
    k_hi = zone_edge - 1e-9 * zone_edge
    resolution = math.pi / (20.0 * L)
    k_grid = np.linspace(0.0, k_hi, int(math.ceil(k_hi / resolution)) + 1)
    # the lattice zero mode is linear between the corner sites, L - a apart
    roots, zero = _split_zero_level(_phase_roots(phase, k_grid, _phase_slope0(robin, L - a))[0],
                                    robin, L - a, L)
    real_roots = np.concatenate([zero, roots])
    energies = lattice_dispersion_energy(grid, cfg, real_roots)
    residuals = np.concatenate([np.zeros(len(zero)), energy_lattice_residual(grid, cfg, robin, roots)])
    _check_residuals(residuals, "energy_lattice")
    # one root per level of H in the band, by Sturm counts (not LAPACK, which
    # --compare checks against): a level within d of the band top is on the
    # zone edge, outside the scan; one within d of E = 0 may round either way
    top = (2.0 / a) ** 2 / (2.0 * cfg.mass)
    d = 1e-14 * top
    h = build_hamiltonian(grid, cfg, robin)
    below_top = sturm_count(h, top + d)
    fewest, most = below_top - sturm_count(h, d), below_top - sturm_count(h, -d)
    if not fewest <= real_roots.size <= most:
        raise RootScanError(
            f"found {real_roots.size} lattice energy roots where H has {most} levels in "
            f"[0, {top}]; a level on the zone edge k = pi/a is outside the open scan window"
        )
    # labels count the levels of H below the roots (bound, or within d of E = 0)
    labels = np.arange(below_top - real_roots.size, below_top)
    return RootSet(
        kind="energy_lattice",
        real_roots=real_roots,
        labels=labels,
        residuals=residuals,
        energies=energies,
        meta={"k_max": zone_edge, "scan_resolution": resolution, "first_label": 0},
    )


# ---------------------------------------------------------------------------
# momentum, continuum
# ---------------------------------------------------------------------------

def _momentum_continuum_rhs(ext: MomentumExtension) -> complex:
    lp, lm = ext.lambda_plus, ext.lambda_minus
    return (1.0 + lp) * (1.0 - lm) / ((1.0 - lp) * (1.0 + lm))


def momentum_continuum_residual(cfg: PhysicalConfig, ext: MomentumExtension, k):
    """|exp(2ikL) - rhs| at each root k (a number or an array)."""
    return np.abs(np.exp(2j * k * cfg.box_length) - _momentum_continuum_rhs(ext))


def solve_momentum_continuum(cfg: PhysicalConfig, ext: MomentumExtension, k_max: float | None = None) -> RootSet:
    """Momentum roots in (-k_max, k_max], in closed form.

    The right-hand side of the condition is a k-independent unit-modulus
    number for purely imaginary extension parameters, so the roots are
    k_n = (theta + 2 pi n)/(2L) with theta its principal phase.
    """
    L = cfg.box_length
    if k_max is None:
        k_max = 20.0 * math.pi / L
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    rhs = _momentum_continuum_rhs(ext)
    if abs(abs(rhs) - 1.0) > 1e-14:
        raise RootScanError(f"condition right-hand side has modulus {abs(rhs)}, expected 1")
    theta = cmath.phase(rhs)
    n_lo = int(math.ceil((-2.0 * k_max * L - theta) / (2.0 * math.pi)))
    n_hi = int(math.floor((2.0 * k_max * L - theta) / (2.0 * math.pi)))
    labels = np.arange(n_lo, n_hi + 1)
    roots = (theta + 2.0 * math.pi * labels) / (2.0 * L)
    keep = roots > -k_max
    roots, labels = roots[keep], labels[keep]
    residuals = momentum_continuum_residual(cfg, ext, roots)
    _check_residuals(residuals, "momentum_continuum")
    return RootSet(
        kind="momentum_continuum",
        real_roots=roots,
        labels=labels,
        residuals=residuals,
        meta={"k_max": k_max, "rhs_phase": theta},
    )


# ---------------------------------------------------------------------------
# momentum, lattice
# ---------------------------------------------------------------------------

def _momentum_lattice_rhs(k, grid: LatticeGrid, ext: MomentumExtension):
    a = grid.spacing
    z = np.exp(1j * k * a)
    lp, lm = ext.lambda_plus, ext.lambda_minus
    return (1.0 + lp * z) * (1.0 - lm * z) / ((z - lp) * (z + lm))


def momentum_lattice_residual(grid: LatticeGrid, ext: MomentumExtension, k):
    """|exp(2ikL) - rhs(k)| at each root k (a number or an array)."""
    return np.abs(np.exp(2j * k * grid.box_length) - _momentum_lattice_rhs(k, grid, ext))


def solve_momentum_lattice(grid: LatticeGrid, ext: MomentumExtension) -> RootSet:
    """The N momentum roots in the half zone (-pi/2a, pi/2a), labeled by
    their phase level, together with the physical eigenvalues
    k_hat = sin(ka)/a.

    Raises RootScanError when fewer than N real roots exist there: for
    |ell| > 1 part of the spectrum moves to complex k (eigenvectors
    localized at the walls), and at |ell| = 1 a level can sit on the zone
    edge, where the reduced condition holds for every ell.
    """
    a = grid.spacing
    L = grid.box_length
    n_sites = grid.num_sites
    edge = 0.5 * math.pi / a

    def phase(k):
        ka = k * a
        return (
            2.0 * k * (L - a)
            + 2.0 * np.arctan2(np.sin(ka) - ext.ell_plus, np.cos(ka))
            + 2.0 * np.arctan2(np.sin(ka) + ext.ell_minus, np.cos(ka))
        )

    resolution = math.pi / (20.0 * L)
    margin = 1e-9 * edge
    # for |ell| <= 1 the phase increases strictly: any grid brackets each level once
    k_grid = np.linspace(-edge + margin, edge - margin, 2 * int(math.ceil(edge / resolution)) + 1)

    roots, labels = _phase_roots(phase, k_grid)
    roots, labels = _dedupe(roots, labels, _DEDUP_TOL)
    if roots.size != n_sites:
        raise RootScanError(
            f"found {roots.size} lattice momentum roots, expected {n_sites}; "
            f"the missing states lie on or beyond the zone edge |k| = pi/(2a) = {edge}, "
            "where |k_hat| = 1/a"
        )
    residuals = momentum_lattice_residual(grid, ext, roots)
    _check_residuals(residuals, "momentum_lattice")
    k_hat = np.sin(roots * a) / a
    return RootSet(
        kind="momentum_lattice",
        real_roots=roots,
        labels=labels,
        residuals=residuals,
        k_hat=k_hat,
        meta={"window": (-edge, edge), "scan_resolution": resolution},
    )

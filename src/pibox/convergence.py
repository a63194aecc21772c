"""Continuum-limit studies: how fast lattice spectra approach the
continuum quantization roots as the spacing shrinks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigensolver import eigh_tridiagonal
from .lattice import LatticeGrid, MomentumExtension, PhysicalConfig, RobinParams, build_hamiltonian
from .quantization import solve_energy_continuum, solve_momentum_continuum, solve_momentum_lattice

__all__ = ["ConvergenceReport", "converge_energy", "converge_momentum"]

#: fitted errors below this are treated as exactly converged
_ZERO_ERROR = 1e-13


@dataclass
class ConvergenceReport:
    observable: str
    N_list: list[int]
    errors: np.ndarray
    fitted_order: float
    fit_residual: float
    meta: dict = field(default_factory=dict)


def _check_n_list(N_list):
    if len(N_list) < 3:
        raise ValueError("need at least 3 lattice sizes to fit a rate")
    if any(n % 2 == 0 or n < 3 for n in N_list):
        raise ValueError("lattice sizes must be odd and >= 3")
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("lattice sizes must be strictly ascending")


def _fit(a_values, errors):
    """Least-squares slope of log error against log spacing over the last
    max(3, count-1) points (the earliest point is the most pre-asymptotic).
    Returns (order, rms log residual)."""
    if np.all(errors < _ZERO_ERROR):
        return math.inf, 0.0
    use = max(3, len(a_values) - 1)
    la = np.log(np.asarray(a_values[-use:]))
    le = np.log(np.asarray(errors[-use:]))
    coeffs = np.polyfit(la, le, 1)
    resid = le - np.polyval(coeffs, la)
    return float(coeffs[0]), float(np.sqrt(np.mean(resid**2)))


def converge_energy(
    cfg: PhysicalConfig,
    robin: RobinParams,
    level: int,
    N_list=(27, 81, 243, 729),
    boundary: str = "corner",
) -> ConvergenceReport:
    """|E_level(lattice, N) - E_level(continuum)| against the spacing.

    ``level`` follows the energy labeling (hard walls 1-based, otherwise
    0-based ascending, bound states first); the matching lattice
    eigenvalue is the one at the same ascending position.
    """
    N_list = list(N_list)
    _check_n_list(N_list)
    roots = solve_energy_continuum(cfg, robin)
    first = roots.meta["first_label"]
    position = level - first
    n_bound = roots.bound_roots.size if roots.bound_roots is not None else 0
    if position < 0 or position >= n_bound + roots.real_roots.size:
        raise ValueError(f"level {level} not found among the continuum roots")
    if position < n_bound:
        target = float(np.sort(roots.bound_energies)[position])
    else:
        target = float(roots.energies[position - n_bound])

    errors = np.empty(len(N_list))
    spacings = []
    for i, n_sites in enumerate(N_list):
        grid = LatticeGrid(n_sites, cfg.box_length)
        h = build_hamiltonian(grid, cfg, robin, boundary=boundary)
        res = eigh_tridiagonal(h, select=(position, position))
        errors[i] = abs(res.eigenvalues[0] - target)
        spacings.append(grid.spacing)

    order, resid = _fit(spacings, errors)
    return ConvergenceReport(
        observable=f"energy level {level}",
        N_list=N_list,
        errors=errors,
        fitted_order=order,
        fit_residual=resid,
        meta={"target": target, "boundary": boundary,
              "gamma_plus": robin.gamma_plus, "gamma_minus": robin.gamma_minus,
              "backend": res.meta["backend"]},  # the same driver for every size
    )


def converge_momentum(
    cfg: PhysicalConfig,
    ext: MomentumExtension,
    label: int,
    N_list=(27, 81, 243, 729),
) -> ConvergenceReport:
    """|k_hat(lattice, N) - k(continuum)| for the momentum root with the
    given integer label.

    For equal extension parameters the k-roots agree exactly between
    lattice and continuum, so the error is the pure dispersion defect
    |sin(ka)/a - k| ~ k^3 a^2/6 and the fitted order is 2.
    """
    N_list = list(N_list)
    _check_n_list(N_list)
    k_max = (abs(label) + 2.0) * math.pi / cfg.box_length
    cont = solve_momentum_continuum(cfg, ext, k_max=k_max)
    if label not in cont.labels:
        raise ValueError(f"label {label} not among the continuum momentum roots")
    target = float(cont.real_roots[list(cont.labels).index(label)])

    errors = np.empty(len(N_list))
    spacings = []
    for i, n_sites in enumerate(N_list):
        grid = LatticeGrid(n_sites, cfg.box_length)
        latt = solve_momentum_lattice(grid, ext)
        if label not in latt.labels:
            raise ValueError(f"label {label} missing from the N={n_sites} lattice window")
        k_hat = float(latt.k_hat[list(latt.labels).index(label)])
        errors[i] = abs(k_hat - target)
        spacings.append(grid.spacing)

    order, resid = _fit(spacings, errors)
    return ConvergenceReport(
        observable=f"momentum label {label}",
        N_list=N_list,
        errors=errors,
        fitted_order=order,
        fit_residual=resid,
        meta={"target": target, "ell_plus": ext.ell_plus, "ell_minus": ext.ell_minus},
    )

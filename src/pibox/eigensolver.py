"""Certified eigensolver for Hermitian complex tridiagonal matrices.

A diagonal unitary similarity strips the phases of the off-diagonal
entries, leaving a real symmetric tridiagonal matrix, which LAPACK solves
through scipy.  The whole spectrum without vectors comes from ``?stemr``
(MRRR: Dhillon & Parlett, Linear Algebra Appl. 387 (2004) 1-28; its dqds
stage).  An index window of eigenvalues, and every request for vectors,
comes from ``?stebz`` bisection and ``?stein`` inverse iteration: O(n) per
eigenvalue, and closer at the bottom of the spectrum (ground state of a
729-site box: 7e-12 off against 4e-10 from dqds).  Eigenvectors are
transformed back with the stored phases and every returned pair is
checked against ``RESIDUAL_BOUND`` on the original complex matrix.

``?stemr`` takes no windows and no vectors here: on split or strongly
graded matrices its window mode can return a wrong eigenvalue when the
window edge falls inside a multiple eigenvalue, and its vector stage can
stop with an internal error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import ComplexTridiagonal, hermiticity_defect

__all__ = ["SpectrumResult", "ConvergenceError", "phase_reduce", "sturm_count", "eigh_tridiagonal"]

#: LAPACK drivers (scipy names) for the whole spectrum and for windows
#: or vectors, recorded as meta["backend"]
BACKEND = "stemr"
WINDOW_BACKEND = "stebz"

#: accepted residual ||A v - lam v||_2 / ||A||_max for returned eigenpairs
RESIDUAL_BOUND = 1e-10

_HERMITICITY_TOL = 1e-13
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


class ConvergenceError(RuntimeError):
    """Raised when LAPACK reports a failure or a returned eigenpair
    misses the residual bound."""


@dataclass
class SpectrumResult:
    """Eigenvalues in ascending order, optional eigenvectors (columns,
    normalized under the weighted inner product w * sum conj(u) v) and
    their relative residuals."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    residuals: np.ndarray | None = None
    meta: dict = field(default_factory=dict)


def phase_reduce(A: ComplexTridiagonal):
    """Diagonal unitary D with unit-modulus entries such that D^† A D is
    real symmetric tridiagonal with nonnegative off-diagonals.

    Returns (diagonal, off-diagonal moduli, phases); an eigenvector u of
    the reduced matrix maps back as D u.
    """
    scale = A.max_abs()
    if hermiticity_defect(A) > _HERMITICITY_TOL * max(scale, 1.0):
        raise ValueError("matrix is not Hermitian")
    e = A.superdiagonal
    # phase recurrence: each step cancels the argument of one off-diagonal
    increments = -np.angle(e)
    phi = np.concatenate(([0.0], np.cumsum(increments)))
    phases = np.exp(1j * phi)
    return A.diagonal.real.copy(), np.abs(e), phases


def sturm_count(A: ComplexTridiagonal, sigma: float) -> int:
    """Number of eigenvalues of A strictly below the shift sigma: the
    count of negative pivots of the LDL^T factorization of the reduced
    matrix minus sigma.  Independent of LAPACK, so it can check it."""
    d, e, _ = phase_reduce(A)
    # smallest admissible pivot keeps the recurrence free of division
    # blowups; a pivot replaced by -pivmin counts as negative (as in ?stebz)
    e2 = (e * e).tolist()
    pivmin = max(max(e2, default=0.0), 1.0) * _TINY / _EPS
    sigma = float(sigma)
    count, q = 0, 1.0
    for di, e2i in zip(d.tolist(), [0.0] + e2):
        q = di - sigma - e2i / q
        if abs(q) < pivmin:
            q = -pivmin
        count += q < 0.0
    return count


def eigh_tridiagonal(
    A: ComplexTridiagonal,
    want_vectors: bool = False,
    weight: float = 1.0,
    select: tuple[int, int] | None = None,
    seed: int = 0,
) -> SpectrumResult:
    """All (or an index range of) eigenvalues of a Hermitian complex
    tridiagonal matrix, with optional residual-checked eigenvectors.

    Parameters
    ----------
    A : Hermitian complex tridiagonal matrix.
    want_vectors : also compute eigenvectors and residuals.
    weight : inner-product weight (lattice spacing for sampled states);
        eigenvector columns v satisfy weight * ||v||_2^2 = 1.
    select : optional (lo, hi) inclusive range of ascending eigenvalue
        indices; default all.
    seed : recorded in meta; the result does not depend on it.
    """
    # deferred: importing scipy.linalg would add ~10 % to `import pibox`
    import scipy.linalg

    d, e, phases = phase_reduce(A)
    n = d.size
    if select is None:
        idx_lo, idx_hi = 0, n - 1
    else:
        idx_lo, idx_hi = select
        if not (0 <= idx_lo <= idx_hi <= n - 1):
            raise ValueError(f"select range {select} invalid for size {n}")

    if want_vectors or (idx_lo, idx_hi) != (0, n - 1):
        driver, window = WINDOW_BACKEND, {"select": "i", "select_range": (idx_lo, idx_hi)}
    else:
        # no index range: with one, even the whole one, ?stemr bisects
        # instead of running dqds (7x slower at N = 999)
        driver, window = BACKEND, {}
    meta = {"backend": driver, "seed": seed, "select": (idx_lo, idx_hi)}
    try:
        out = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=not want_vectors, lapack_driver=driver, **window)
    except scipy.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK {driver} failed: {exc}") from exc
    if not want_vectors:
        return SpectrumResult(out, meta=meta)

    eigenvalues, vectors = out
    vectors = phases[:, None] * vectors
    vectors /= np.sqrt(weight)

    scale = max(A.max_abs(), _TINY)
    r = A.matvec(vectors) - vectors * eigenvalues
    residuals = np.linalg.norm(r, axis=0) / (scale * np.linalg.norm(vectors, axis=0))
    worst = int(np.argmax(residuals))
    if not residuals[worst] <= RESIDUAL_BOUND:  # NaN fails too
        raise ConvergenceError(
            f"eigenpair {idx_lo + worst} misses the residual bound "
            f"(residual {residuals[worst]:.3e}, bound {RESIDUAL_BOUND:.3e})"
        )
    return SpectrumResult(eigenvalues, vectors, residuals, meta)

"""Per-job correctness checks, run outside the timed region.

Every reference comes from a path that shares no code with the package:
LAPACK's tridiagonal eigensolver (``scipy.linalg.eigvalsh_tridiagonal``)
on bands built here, ``scipy.optimize.brentq`` on quantization conditions
written here, and the two-exponential sinc closed form of the momentum
outcome probabilities.  ``check`` returns None for a right answer and a
one-line reason otherwise; ``perturb`` spoils an answer beyond every
tolerance, for the negative control.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq

L = 1.0  # box length and mass: the jobs use the CLI defaults
MASS = 1.0

EIG_RTOL = 1e-9        # eigenvalues and roots: |x - ref| <= EIG_RTOL * max(1, |ref|)
RESIDUAL_BOUND = 1e-10  # eigenpair residual over matrix scale, root residual |lhs - rhs|
ORTHO_TOL = 1e-8       # max |w V^H V - I| of returned eigenvectors
MASS_TOL = 1e-6        # |total probability - 1|
PROB_ATOL = 1e-9       # outcome probabilities and densities against the sinc closed form


# --- parsing the CLI output ----------------------------------------------

def parse_csv(text: str):
    """(meta, columns, rows) of the CLI's CSV: '# key = value' lines, a
    header line, then comma-separated rows of strings."""
    lines = text.splitlines()
    meta = {}
    i = 0
    while lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition(" = ")
        meta[key] = value
        i += 1
    return meta, lines[i].split(","), [line.split(",") for line in lines[i + 1:]]


def _col(columns, rows, name) -> np.ndarray:
    j = columns.index(name)
    return np.array([float(r[j]) for r in rows])


def _options(argv) -> dict[str, list[str]]:
    out, key = {}, None
    for tok in argv[1:]:
        if tok.startswith("--"):
            key = tok[2:]
            out[key] = []
        else:
            out[key].append(tok)
    return out


def _close(x, ref, rtol=EIG_RTOL) -> float:
    """Worst |x - ref| / max(1, |ref|), inf on a shape mismatch."""
    x, ref = np.asarray(x, dtype=float), np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        return math.inf
    return float(np.max(np.abs(x - ref) / np.maximum(1.0, np.abs(ref)), initial=0.0))


# --- independent references ------------------------------------------------

def _couplings(opts) -> tuple[float, float]:
    if opts.get("bc") == ["dirichlet"]:
        return math.inf, math.inf
    gp, gm = opts["gamma"]
    return float(gp), float(gm)


def hamiltonian_bands(n: int, gp: float, gm: float):
    """Diagonal and off-diagonal of the lattice Hamiltonian with Robin
    couplings on the corner sites (3t, a mirror ghost, for a hard wall)."""
    a = L / n
    t = 1.0 / (2.0 * MASS * a * a)
    d = np.full(n, 2.0 * t)
    for i, g in ((0, gm), (-1, gp)):
        d[i] = 3.0 * t if math.isinf(g) else t + g / (2.0 * MASS * a)
    return d, np.full(n - 1, -t)


def p_r_bands(n: int, ell_p: float, ell_m: float):
    """p_R with its phases removed: corners -ell-/2a and ell+/2a, and
    off-diagonal moduli 1/2a."""
    a = L / n
    d = np.zeros(n)
    d[0], d[-1] = -ell_m / (2.0 * a), ell_p / (2.0 * a)
    return d, np.full(n - 1, 1.0 / (2.0 * a))


def robin_wavenumber(gp: float, gm: float, level: int) -> float:
    """Continuum wavenumber of energy level ``level`` (0-based for finite
    couplings >= 0, 1-based for hard walls): q L = th+ + th- + level pi,
    th = atan2(gamma, q)."""
    if math.isinf(gp):
        return math.pi * level / L
    f = lambda q: q * L - math.atan2(gp, q) - math.atan2(gm, q) - level * math.pi  # noqa: E731
    lo = max(level * math.pi / L, 1e-12)
    return brentq(f, lo, (level + 1) * math.pi / L, xtol=1e-15, maxiter=200)


def eigenstate_coefficients(gp: float, gm: float, level: int):
    """(A, B, q) with psi = A e^{iqx} + B e^{-iqx} the unit-norm energy
    eigenstate: cos(q(x + L/2) - th-) for Robin walls, the textbook
    cos/sin for hard walls, the constant for free ends at level 0."""
    if gp == 0.0 and gm == 0.0 and level == 0:
        return 0.5 / math.sqrt(L), 0.5 / math.sqrt(L), 0.0
    q = robin_wavenumber(gp, gm, level)
    if math.isinf(gp):
        amp = 0.5 * math.sqrt(2.0 / L)
        return (amp, amp, q) if level % 2 else (-1j * amp, 1j * amp, q)
    c = q * L / 2 - math.atan2(gm, q)
    norm2 = L / 2 + math.cos(2 * c) * math.sin(q * L) / (2 * q)
    s = 0.5 / math.sqrt(norm2)
    return s * np.exp(1j * c), s * np.exp(-1j * c), q


def _overlap(A, B, q, k):
    """(1/L) * integral over the box of psi(x) e^{-ikx}."""
    sinc = lambda u: np.sinc(u / math.pi)  # noqa: E731
    return A * sinc((q - k) * L / 2) + B * sinc((q + k) * L / 2)


def outcome_probabilities(A, B, q, k):
    """Momentum outcome probabilities at the quantized k = pi n / L; the
    two-component momentum eigenstates halve the plane-wave overlap."""
    return 0.5 * L * np.abs(_overlap(A, B, q, k)) ** 2


def fourier_density(A, B, q, k):
    """Whole-line momentum density (1/2 pi) |psi~(k)|^2."""
    return L * L / (2.0 * math.pi) * np.abs(_overlap(A, B, q, k)) ** 2


# --- checks by job kind ------------------------------------------------------

def _check_eig_all(job, text):
    opts = _options(job.argv)
    n = int(opts["N"][0])
    gp, gm = _couplings(opts)
    _, columns, rows = parse_csv(text)
    ref = eigvalsh_tridiagonal(*hamiltonian_bands(n, gp, gm))
    dev = _close(_col(columns, rows, "E"), ref)
    if dev > EIG_RTOL:
        return f"eigenvalues deviate from LAPACK by {dev:.3g} (> {EIG_RTOL})"
    return None


def _check_converge_energy(job, text):
    opts = _options(job.argv)
    gp, gm = _couplings(opts)
    level = int(opts["level"][0])
    out = json.loads(text)
    target = robin_wavenumber(gp, gm, level) ** 2 / (2.0 * MASS)
    if _close(out["meta"]["target"], target) > EIG_RTOL:
        return f"continuum target {out['meta']['target']} != {target}"
    position = level - 1 if math.isinf(gp) else level
    ref = [abs(eigvalsh_tridiagonal(*hamiltonian_bands(int(n), gp, gm), select="i",
                                    select_range=(position, position))[0] - target)
           for n in opts["N-list"]]
    errors = [row["error"] for row in out["data"]]
    if [row["N"] for row in out["data"]] != [int(n) for n in opts["N-list"]]:
        return "N list not echoed"
    tol = EIG_RTOL * max(1.0, target)
    if len(errors) != len(ref) or max(abs(e - r) for e, r in zip(errors, ref)) > tol:
        return f"errors {errors} differ from LAPACK {ref}"
    return None


def _check_vectors(job, res):
    p = dict(job.params)
    n = p["N"]
    gp, gm = (float(g) for g in p["gamma"])
    lo, hi = p["select"]
    d, e = hamiltonian_bands(n, gp, gm)
    ref = eigvalsh_tridiagonal(d, e, select="i", select_range=(lo, hi))
    dev = _close(res.eigenvalues, ref)
    if dev > EIG_RTOL:
        return f"eigenvalues deviate from LAPACK by {dev:.3g}"
    if res.residuals is None or res.residuals.max() > RESIDUAL_BOUND:
        return "reported residual above the bound"
    v = res.eigenvectors
    scale = max(np.abs(d).max(), np.abs(e).max())
    hv = d[:, None] * v
    hv[:-1] += e[:, None] * v[1:]
    hv[1:] += e[:, None] * v[:-1]
    resid = np.linalg.norm(hv - v * res.eigenvalues, axis=0) / (scale * np.linalg.norm(v, axis=0))
    if resid.max() > RESIDUAL_BOUND:
        return f"recomputed residual {resid.max():.3g} above the bound"
    ortho = np.abs((L / n) * (v.conj().T @ v) - np.eye(v.shape[1])).max()
    if ortho > ORTHO_TOL:
        return f"eigenvectors not orthonormal ({ortho:.3g})"
    return None


def _check_momentum_root(job, text):
    opts = _options(job.argv)
    n = int(opts["N"][0])
    ell_p, ell_m = (float(x) for x in opts["ell"])
    _, columns, rows = parse_csv(text)
    k, k_hat = _col(columns, rows, "k"), _col(columns, rows, "k_hat")
    if k.size != n:
        return f"{k.size} momentum roots, expected {n}"
    a = L / n
    z = np.exp(1j * k * a)
    rhs = (1 + 1j * ell_p * z) * (1 - 1j * ell_m * z) / ((z - 1j * ell_p) * (z + 1j * ell_m))
    resid = np.abs(np.exp(2j * k * L) - rhs).max()
    if resid > RESIDUAL_BOUND:
        return f"root residual {resid:.3g} above {RESIDUAL_BOUND}"
    if _close(k_hat, np.sin(k * a) / a) > EIG_RTOL:
        return "k_hat is not sin(ka)/a"
    dev = _close(np.sort(k_hat), eigvalsh_tridiagonal(*p_r_bands(n, ell_p, ell_m)))
    if dev > EIG_RTOL:
        return f"k_hat deviates from the p_R eigenvalues by {dev:.3g}"
    return None


def _check_spectrum_root(job, text):
    opts = _options(job.argv)
    n = int(opts["N"][0])
    gp, gm = _couplings(opts)
    _, columns, rows = parse_csv(text)
    energies = _col(columns, rows, "E")
    if energies.size != n:
        return f"{energies.size} lattice energy roots, expected {n}"
    if _col(columns, rows, "residual").max() > RESIDUAL_BOUND:
        return "root residual above the bound"
    dev = _close(np.sort(energies), eigvalsh_tridiagonal(*hamiltonian_bands(n, gp, gm)))
    if dev > EIG_RTOL:
        return f"root energies deviate from LAPACK eigenvalues by {dev:.3g}"
    return None


def _check_converge_momentum(job, text):
    opts = _options(job.argv)
    label = int(opts["level"][0])
    ell = float(opts["ell"][0])
    out = json.loads(text)
    # equal ell: the continuum condition's right-hand side is 1
    target = math.pi * label / L
    if _close(out["meta"]["target"], target) > EIG_RTOL:
        return f"continuum target {out['meta']['target']} != {target}"
    # for equal ell the p_R spectrum is parity-symmetric with label 0 at k = 0,
    # so label n is ascending eigenvalue number n + (N - 1)/2
    ref = []
    for n in opts["N-list"]:
        n = int(n)
        eig = eigvalsh_tridiagonal(*p_r_bands(n, ell, ell))
        ref.append(abs(eig[label + (n - 1) // 2] - target))
    errors = [row["error"] for row in out["data"]]
    if len(errors) != len(ref) or max(abs(e - r) for e, r in zip(errors, ref)) > EIG_RTOL * max(1.0, abs(target)):
        return f"errors {errors} differ from LAPACK {ref}"
    return None


def _check_bound_states(job, text):
    gp, gm = _couplings(_options(job.argv))
    _, columns, rows = parse_csv(text)
    kk, energies = _col(columns, rows, "k_or_kappa"), _col(columns, rows, "E")
    bound = energies < 0
    # a negative coupling binds at most one state; with both negative there
    # are two exactly when gamma+ gamma- L + gamma+ + gamma- > 0
    expected = 2 if gp * gm * L + gp + gm > 0 else 1
    if bound.sum() != expected or not np.all(bound[:expected]):
        return f"{bound.sum()} bound states first, expected {expected}"
    kappa = kk[bound]
    cond = np.exp(-2 * kappa * L) * (gp - kappa) * (gm - kappa) - (gp + kappa) * (gm + kappa)
    rel = np.abs(cond) / ((abs(gp) + kappa) * (abs(gm) + kappa))
    if rel.max() > RESIDUAL_BOUND:
        return f"bound-state condition residual {rel.max():.3g}"
    if _close(energies[bound], -kappa**2 / (2 * MASS)) > EIG_RTOL:
        return "bound energies are not -kappa^2/2m"
    k = kk[~bound]
    rhs = (gp - 1j * k) * (gm - 1j * k) / ((gp + 1j * k) * (gm + 1j * k))
    if k.size and np.abs(np.exp(2j * k * L) - rhs).max() > RESIDUAL_BOUND:
        return "scattering-root residual above the bound"
    if np.any(np.diff(energies) <= 0):
        return "levels not ascending"
    return None


def _check_distribution(meta, columns, rows, A, B, q):
    if abs(float(meta["total_probability"]) - 1.0) > MASS_TOL:
        return f"total probability {meta['total_probability']} not within {MASS_TOL} of 1"
    n = _col(columns, rows, "n")
    k = _col(columns, rows, "k")
    if _close(k, math.pi * n / L) > EIG_RTOL:
        return "outcomes are not pi n / L"
    dev = np.abs(_col(columns, rows, "probability") - outcome_probabilities(A, B, q, k)).max()
    if dev > PROB_ATOL:
        return f"probabilities deviate from the sinc closed form by {dev:.3g}"
    return None


def _check_measure_quadrature(job, text):
    opts = _options(job.argv)
    gp, gm = _couplings(opts)
    meta, columns, rows = parse_csv(text)
    if len(rows) != 2 * int(opts["cutoff"][0]) + 1:
        return "wrong number of outcomes"
    return _check_distribution(meta, columns, rows, *eigenstate_coefficients(gp, gm, int(opts["level"][0])))


def _check_measure_dirichlet(job, text):
    level = int(_options(job.argv)["level"][0])
    meta, columns, rows = parse_csv(text)
    n = _col(columns, rows, "n")
    peak = _col(columns, rows, "probability")[np.abs(n) == level]
    if n.size != 20001 or peak.size != 2 or np.any(peak != 0.25):
        return f"hard-wall peak {peak} is not exactly 1/4"
    return _check_distribution(meta, columns, rows, *eigenstate_coefficients(math.inf, math.inf, level))


def _check_measure_neumann(job, text):
    meta, columns, rows = parse_csv(text)
    return _check_distribution(meta, columns, rows, *eigenstate_coefficients(0.0, 0.0, 0))


def _check_fourier(job, text):
    opts = _options(job.argv)
    meta, columns, rows = parse_csv(text)
    if abs(float(meta["total_probability"]) - 1.0) > MASS_TOL:
        return f"total probability {meta['total_probability']} not within {MASS_TOL} of 1"
    if opts["kind"] == ["neumann"]:
        A, B, q = eigenstate_coefficients(0.0, 0.0, 0)
    else:
        level = int(opts["level"][0])
        A, B, q = eigenstate_coefficients(math.inf, math.inf, level)
        if _close(float(meta["delta_k"]), q) > 1e-6:
            return f"delta_k {meta['delta_k']} is not pi l / L"
    k, density = _col(columns, rows, "k"), _col(columns, rows, "density")
    ref = fourier_density(A, B, q, k)
    dev = np.abs(density - ref).max() / ref.max()
    if dev > PROB_ATOL:
        return f"density deviates from the closed form by {dev:.3g}"
    return None


CHECKS = {
    "eig_all": _check_eig_all,
    "converge_energy": _check_converge_energy,
    "vectors": _check_vectors,
    "momentum_root": _check_momentum_root,
    "spectrum_root": _check_spectrum_root,
    "converge_momentum": _check_converge_momentum,
    "bound_states": _check_bound_states,
    "measure_quadrature": _check_measure_quadrature,
    "measure_dirichlet": _check_measure_dirichlet,
    "measure_neumann": _check_measure_neumann,
    "fourier": _check_fourier,
}


def check(job, output) -> str | None:
    """None when ``output`` (CLI stdout, or the library result) is right."""
    try:
        return CHECKS[job.kind](job, output)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable answer: {exc!r}"


# --- negative control ------------------------------------------------------

SPOIL = 1.0 + 1e-3


def _spoil(tok: str) -> str:
    try:
        value = float(tok)
    except ValueError:
        return tok
    return format(value * SPOIL, ".17g") if "." in tok or "e" in tok else tok


def perturb(output):
    """The answer with every float of its data scaled by 1 + 1e-3."""
    if not isinstance(output, str):
        return dataclasses.replace(output, eigenvalues=output.eigenvalues * SPOIL)
    if output.startswith("{"):
        obj = json.loads(output)
        obj["data"] = [{k: v * SPOIL if isinstance(v, float) else v for k, v in row.items()}
                       for row in obj["data"]]
        return json.dumps(obj)
    lines = output.splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    body = [",".join(_spoil(t) for t in line.split(",")) for line in lines[head + 1:]]
    return "\n".join(lines[:head + 1] + body) + "\n"

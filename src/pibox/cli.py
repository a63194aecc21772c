"""Command-line front end.

Verbs: spectrum, momentum, measure, converge, fourier, selfcheck.
Results go to stdout (or --output) as CSV with '#'-prefixed metadata
lines, or as a single JSON object {"meta": ..., "data": ...}.  All
output is deterministic for a fixed configuration and seed: floats are
printed with 17 significant digits and no timestamps are emitted.

Exit codes: 0 ok, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .continuum import energy_eigenstate
from .convergence import converge_energy, converge_momentum
from .eigensolver import BACKEND, ConvergenceError, eigh_tridiagonal
from .lattice import (
    LatticeGrid,
    MomentumExtension,
    PhysicalConfig,
    RobinParams,
    build_hamiltonian,
    build_p_r,
)
from .measurement import (
    dirichlet_distribution,
    general_distribution,
    neumann_ground_distribution,
    p_expectations,
    fourier_density,
)
from .quantization import (
    RootScanError,
    solve_energy_continuum,
    solve_energy_lattice,
    solve_momentum_continuum,
    solve_momentum_lattice,
)


class ConfigError(ValueError):
    pass


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return format(v, ".17g")
    return str(value)


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return "inf" if math.isinf(v) else v
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(stream, meta: dict, columns: list[str], rows: list[list], fmt: str):
    if fmt == "json":
        data = [dict(zip(columns, (_jsonable(v) for v in row))) for row in rows]
        obj = {"meta": {k: _jsonable(v) for k, v in meta.items()}, "data": data}
        stream.write(json.dumps(obj, indent=2))
        stream.write("\n")
        return
    for key, value in meta.items():
        stream.write(f"# {key} = {_fmt(value)}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join("" if v is None else _fmt(v) for v in row) + "\n")


def _merge_config(args: argparse.Namespace, parser_defaults: dict) -> argparse.Namespace:
    """Fill unset options from --config (JSON object keyed by long option
    names with underscores); explicit flags win."""
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in overrides.items():
            attr = key.replace("-", "_")
            if not hasattr(args, attr):
                raise ConfigError(f"unknown config key {key!r}")
            if getattr(args, attr) is None:
                setattr(args, attr, value)
    for key, value in parser_defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    return args


def _physical(args) -> PhysicalConfig:
    try:
        return PhysicalConfig(mass=float(args.mass), box_length=float(args.length))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _robin(args) -> RobinParams:
    bc = args.bc
    if bc is None:
        bc = "robin" if args.gamma is not None else "dirichlet"
    if bc == "dirichlet":
        return RobinParams.dirichlet()
    if bc == "neumann":
        return RobinParams.neumann()
    if bc == "robin":
        if args.gamma is None:
            raise ConfigError("--gamma GP GM is required for Robin boundary conditions")
        return RobinParams(float(args.gamma[0]), float(args.gamma[1]))
    raise ConfigError(f"unknown boundary condition {bc!r}")


def _grid(args, cfg) -> LatticeGrid:
    try:
        return LatticeGrid(int(args.N), cfg.box_length)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _echo_common(args, cfg) -> dict:
    return {
        "command": args.verb,
        "mass": cfg.mass,
        "box_length": cfg.box_length,
        "seed": int(args.seed),
        "backend": BACKEND,
        "format": args.format,
    }


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

SPECTRUM_DEFAULTS = dict(mass=1.0, length=1.0, levels=10, N=99, method="continuum",
                         k_max=None, seed=0, format="csv", boundary="corner")


def _dispersion_wavenumber(E, grid, cfg):
    s = 0.5 * grid.spacing * math.sqrt(2.0 * cfg.mass * max(E, 0.0))
    return (2.0 / grid.spacing) * math.asin(min(1.0, s))


def cmd_spectrum(args, stream) -> int:
    cfg = _physical(args)
    robin = _robin(args)
    levels = int(args.levels)
    if levels < 1:
        raise ConfigError("--levels must be positive")
    meta = _echo_common(args, cfg)
    meta.update(gamma_plus=robin.gamma_plus, gamma_minus=robin.gamma_minus,
                method=args.method, levels=levels, boundary=args.boundary)

    rows = []
    columns = ["index", "k_or_kappa", "E", "residual", "method"]

    def continuum_rows():
        k_max = args.k_max or (levels + 2) * math.pi / cfg.box_length
        roots = solve_energy_continuum(cfg, robin, k_max=float(k_max))
        out = []
        if args.bound_states and roots.bound_roots is not None:
            order = np.argsort(-roots.bound_roots)  # ascending energy
            first = roots.meta["first_label"]
            for rank, idx in enumerate(order):
                out.append([first + rank, roots.bound_roots[idx],
                            roots.bound_energies[idx], 0.0, "continuum_root"])
        for i in range(roots.real_roots.size):
            out.append([int(roots.labels[i]), roots.real_roots[i],
                        roots.energies[i], roots.residuals[i], "continuum_root"])
        return out[:levels]

    def lattice_root_rows(grid):
        roots = solve_energy_lattice(grid, cfg, robin)
        return [
            [int(roots.labels[i]), roots.real_roots[i], roots.energies[i],
             roots.residuals[i], "lattice_root"]
            for i in range(min(levels, roots.real_roots.size))
        ]

    def lattice_eig_rows(grid):
        h = build_hamiltonian(grid, cfg, robin, boundary=args.boundary)
        sel_hi = min(levels, grid.num_sites) - 1
        res = eigh_tridiagonal(h, select=(0, sel_hi))
        first = 1 if robin.is_dirichlet else 0
        return [
            [i + first, _dispersion_wavenumber(lam, grid, cfg), lam, None, "lattice_eig"]
            for i, lam in enumerate(res.eigenvalues)
        ]

    if args.compare:
        grid = _grid(args, cfg)
        eig = lattice_eig_rows(grid)
        other = lattice_root_rows(grid) if not robin.is_dirichlet else continuum_rows()
        columns = columns + ["E_other", "agreement"]
        meta["compare"] = "lattice_eig vs " + other[0][4] if other else "n/a"
        for row_e, row_o in zip(eig, other):
            rows.append(row_e[:5] + [row_o[2], abs(row_e[2] - row_o[2])])
    elif args.method == "continuum":
        rows = continuum_rows()
    elif args.method == "lattice-root":
        rows = lattice_root_rows(_grid(args, cfg))
    elif args.method == "lattice-eig":
        rows = lattice_eig_rows(_grid(args, cfg))
    else:
        raise ConfigError(f"unknown method {args.method!r}")

    _emit(stream, meta, columns, rows, args.format)
    return 0


# ---------------------------------------------------------------------------
# momentum
# ---------------------------------------------------------------------------

MOMENTUM_DEFAULTS = dict(mass=1.0, length=1.0, N=99, method="lattice-root",
                         k_max=None, seed=0, format="csv", ell=(1.0, 1.0))


def cmd_momentum(args, stream) -> int:
    cfg = _physical(args)
    ext = MomentumExtension(float(args.ell[0]), float(args.ell[1]))
    meta = _echo_common(args, cfg)
    meta.update(ell_plus=ext.ell_plus, ell_minus=ext.ell_minus, method=args.method)

    if args.method == "continuum":
        k_max = args.k_max or 20.0 * math.pi / cfg.box_length
        roots = solve_momentum_continuum(cfg, ext, k_max=float(k_max))
        columns = ["n", "k", "residual", "method"]
        rows = [
            [int(roots.labels[i]), roots.real_roots[i], roots.residuals[i], "continuum_root"]
            for i in range(roots.real_roots.size)
        ]
    elif args.method in ("lattice-root", "lattice-eig"):
        grid = _grid(args, cfg)
        roots = solve_momentum_lattice(grid, ext)
        columns = ["n", "k", "k_hat", "residual", "method"]
        rows = [
            [int(roots.labels[i]), roots.real_roots[i], roots.k_hat[i],
             roots.residuals[i], "lattice_root"]
            for i in range(roots.real_roots.size)
        ]
        if args.compare or args.method == "lattice-eig":
            eig = eigh_tridiagonal(build_p_r(grid, ext)).eigenvalues
            columns = columns + ["eig", "agreement"]
            order = np.argsort(roots.k_hat)
            eig_by_root = np.empty_like(eig)
            eig_by_root[order] = eig
            for i, row in enumerate(rows):
                row.extend([eig_by_root[i], abs(eig_by_root[i] - roots.k_hat[i])])
            meta["compare"] = "k_hat vs eigensolver"
    else:
        raise ConfigError(f"unknown method {args.method!r}")

    _emit(stream, meta, columns, rows, args.format)
    return 0


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

MEASURE_DEFAULTS = dict(mass=1.0, length=1.0, level=1, cutoff=10_000, seed=0,
                        format="csv", method="closed", ell=(1.0, 1.0), expectation_N=999)


def cmd_measure(args, stream) -> int:
    cfg = _physical(args)
    robin = _robin(args)
    level = int(args.level)
    cutoff = int(args.cutoff)
    ext = MomentumExtension(float(args.ell[0]), float(args.ell[1]))

    if args.method == "closed":
        if robin.is_dirichlet:
            dist = dirichlet_distribution(cfg, level, cutoff)
        elif robin == RobinParams.neumann() and level == 0:
            dist = neumann_ground_distribution(cfg, cutoff)
        else:
            raise ConfigError(
                "closed-form distributions exist for hard walls (level >= 1) and "
                "the free-end ground state (level 0); use --method quadrature"
            )
    elif args.method == "quadrature":
        try:
            state = energy_eigenstate(cfg, robin, level)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        dist = general_distribution(cfg, robin, ext, state, cutoff)
    else:
        raise ConfigError(f"unknown method {args.method!r}")

    try:
        state = energy_eigenstate(cfg, robin, level)
        grid = LatticeGrid(int(args.expectation_N), cfg.box_length)
        exp_r, exp_i = p_expectations(state, grid, ext)
    except ValueError:
        exp_r = exp_i = None  # no closed-form eigenstate (e.g. bound level)

    meta = _echo_common(args, cfg)
    meta.update(
        gamma_plus=robin.gamma_plus, gamma_minus=robin.gamma_minus, level=level,
        cutoff_n=cutoff, method=args.method,
        delta_k=dist.delta_k, tail_mass=dist.tail_mass,
        total_probability=dist.total_mass(),
    )
    if exp_r is not None:
        meta.update(p_r_expectation=exp_r, p_i_expectation=exp_i,
                    expectation_N=int(args.expectation_N))

    cumulative = np.cumsum(dist.probability)
    columns = ["n", "k", "probability", "cumulative"]
    rows = [
        [int(dist.n[i]), dist.k[i], dist.probability[i], cumulative[i]]
        for i in range(dist.n.size)
    ]
    _emit(stream, meta, columns, rows, args.format)
    return 0


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

CONVERGE_DEFAULTS = dict(mass=1.0, length=1.0, observable="energy", level=1,
                         N_list=(27, 81, 243, 729), seed=0, format="json",
                         ell=(1.0, 1.0), boundary="corner")


def cmd_converge(args, stream) -> int:
    cfg = _physical(args)
    n_list = [int(n) for n in args.N_list]
    try:
        if args.observable == "energy":
            robin = _robin(args)
            report = converge_energy(cfg, robin, int(args.level), n_list,
                                     boundary=args.boundary)
        elif args.observable == "momentum":
            ext = MomentumExtension(float(args.ell[0]), float(args.ell[1]))
            report = converge_momentum(cfg, ext, int(args.level), n_list)
        else:
            raise ConfigError(f"unknown observable {args.observable!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    meta = _echo_common(args, cfg)
    meta.update(observable=report.observable, fitted_order=report.fitted_order,
                fit_residual=report.fit_residual)
    meta.update({k: v for k, v in report.meta.items()})
    spacings = [cfg.box_length / n for n in report.N_list]
    rows = [
        [report.N_list[i], spacings[i], report.errors[i]]
        for i in range(len(report.N_list))
    ]
    _emit(stream, meta, ["N", "spacing", "error"], rows, args.format)
    return 0


# ---------------------------------------------------------------------------
# fourier
# ---------------------------------------------------------------------------

FOURIER_DEFAULTS = dict(mass=1.0, length=1.0, level=1, cutoff_K=None,
                        kind="dirichlet", samples=2001, seed=0, format="csv")


def cmd_fourier(args, stream) -> int:
    cfg = _physical(args)
    cutoff = float(args.cutoff_K) if args.cutoff_K else 200.0 * math.pi / cfg.box_length
    try:
        fd = fourier_density(cfg, int(args.level), cutoff, kind=args.kind,
                             num_samples=int(args.samples))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    meta = _echo_common(args, cfg)
    meta.update(kind=args.kind, level=int(args.level), cutoff_K=cutoff,
                delta_k=fd.delta_k, tail_mass=fd.tail_mass,
                total_probability=fd.total_mass())
    rows = [[fd.k[i], fd.density[i]] for i in range(fd.k.size)]
    _emit(stream, meta, ["k", "density"], rows, args.format)
    return 0


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

SELFCHECK_DEFAULTS = dict(mass=1.0, length=1.0, seed=0, format="csv")


def cmd_selfcheck(args, stream) -> int:
    from .lattice import (
        build_p_backward,
        build_p_forward,
        build_parity,
        hermiticity_defect,
    )
    from .continuum import shift_operator, TwoComponentWavefunction, project

    cfg = _physical(args)
    checks: list[tuple[str, bool, str]] = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    grid = LatticeGrid(99, cfg.box_length)
    ext = MomentumExtension(1.0, 1.0)
    robin = RobinParams(2.0, 2.0)
    h = build_hamiltonian(grid, cfg, robin)
    p_r = build_p_r(grid, ext)
    check("hermiticity H", hermiticity_defect(h) == 0.0)
    check("hermiticity p_R", hermiticity_defect(p_r) == 0.0)

    quarter = 0.25 * (
        build_p_forward(grid, ext).to_dense()
        + build_p_forward(grid, ext).to_dense().conj().T
        + build_p_backward(grid, ext).to_dense()
        + build_p_backward(grid, ext).to_dense().conj().T
    )
    check("p_R quarter-sum identity", np.array_equal(quarter, p_r.to_dense()))

    g9 = LatticeGrid(9, cfg.box_length)
    u = build_parity(g9)
    pf9 = build_p_forward(g9, ext).to_dense()
    pb9 = build_p_backward(g9, ext).to_dense()
    check("parity U p_F U = -p_B", np.array_equal(u @ pf9 @ u, -pb9))
    check("parity U p_R U = -p_R",
          np.array_equal(u @ build_p_r(g9, ext).to_dense() @ u, -build_p_r(g9, ext).to_dense()))

    expected = np.sort([math.sin(math.pi * n / 9) / g9.spacing for n in range(-4, 5)])
    eig9 = eigh_tridiagonal(build_p_r(g9, ext)).eigenvalues
    check("p_R spectrum (N=9)", np.max(np.abs(eig9 - expected)) <= 1e-10)

    roots = solve_energy_lattice(grid, cfg, robin)
    eig = eigh_tridiagonal(h).eigenvalues
    agree = np.max(np.abs(np.sort(roots.energies) - eig))
    check("lattice roots vs eigenvalues", agree <= 1e-9, f"max dev {agree:.6g}")
    check("root residuals", roots.residuals.max() <= 1e-10)

    rng = np.random.default_rng(int(args.seed))
    xs = np.linspace(-cfg.box_length / 2, cfg.box_length / 2, 65)
    psi = TwoComponentWavefunction.from_arrays(
        xs,
        rng.standard_normal(65) + 1j * rng.standard_normal(65),
        rng.standard_normal(65) + 1j * rng.standard_normal(65),
        cfg,
    )
    comp = shift_operator(+1, cfg).apply(shift_operator(-1, cfg).apply(psi))
    dev = max(
        float(np.max(np.abs(comp.psi_e(xs) - psi.psi_e(xs)))),
        float(np.max(np.abs(comp.psi_o(xs) - psi.psi_o(xs)))),
    )
    check("shift operators invert", dev <= 1e-12, f"max dev {dev:.6g}")

    plus, minus = project(psi, +1), project(psi, -1)
    res = np.max(np.abs(plus.psi_e(xs) + minus.psi_e(xs) - psi.psi_e(xs)))
    check("projector completeness", res <= 1e-14)

    dist = dirichlet_distribution(cfg, 1, 1000)
    check("hard-wall peak probability", abs(dist.probability[list(dist.n).index(1)] - 0.25) == 0.0)
    check("distribution normalization", abs(dist.total_mass() - 1.0) <= 1e-6)

    from .continuum import probability_current
    state = energy_eigenstate(cfg, robin, 0)
    j_walls = max(abs(probability_current(state, cfg.box_length / 2)),
                  abs(probability_current(state, -cfg.box_length / 2)))
    check("no current through the walls", j_walls <= 1e-10, f"max {j_walls:.6g}")

    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail:
            line += f"  ({detail})"
        stream.write(line + "\n")
    stream.write(f"{len(checks) - len(failed)}/{len(checks)} checks passed\n")
    return 0 if not failed else 3


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pibox",
        description="Spectra, momentum quantization and measurement statistics "
                    "for a particle strictly confined to a 1-d box.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--mass", "-m", type=float, help="particle mass (default 1)")
        p.add_argument("--length", "-L", type=float, help="box length (default 1)")
        p.add_argument("--format", choices=["csv", "json"], help="output format")
        p.add_argument("--output", "-o", help="output path (default stdout)")
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--seed", type=int, help="seed for stochastic pieces (default 0)")

    p = sub.add_parser("spectrum", help="energy levels from roots or eigenvalues")
    p.add_argument("--bc", choices=["dirichlet", "neumann", "robin"],
                   help="boundary condition (default: robin when --gamma given, else dirichlet)")
    p.add_argument("--gamma", type=float, nargs=2, metavar=("GP", "GM"),
                   help="Robin couplings at the right and left wall")
    p.add_argument("--levels", type=int, help="number of levels to print (default 10)")
    p.add_argument("--N", type=int, help="lattice sites for lattice methods (default 99)")
    p.add_argument("--method", choices=["continuum", "lattice-root", "lattice-eig"])
    p.add_argument("--compare", action="store_true",
                   help="run the eigensolver against the root finder and report agreement")
    p.add_argument("--bound-states", action="store_true",
                   help="include boundary-bound negative-energy roots")
    p.add_argument("--k-max", type=float, help="wavenumber search cutoff")
    p.add_argument("--boundary", choices=["corner", "folded"],
                   help="Robin wall discretization for lattice-eig (default corner)")
    common(p)

    p = sub.add_parser("momentum", help="quantized momenta and lattice eigenvalue cross-check")
    p.add_argument("--ell", type=float, nargs=2, metavar=("EP", "EM"),
                   help="extension parameters ell with lambda = i*ell (default 1 1)")
    p.add_argument("--N", type=int, help="lattice sites (default 99)")
    p.add_argument("--method", choices=["continuum", "lattice-root", "lattice-eig"])
    p.add_argument("--compare", action="store_true")
    p.add_argument("--k-max", type=float)
    common(p)

    p = sub.add_parser("measure", help="momentum outcome distribution in an energy eigenstate")
    p.add_argument("--bc", choices=["dirichlet", "neumann", "robin"])
    p.add_argument("--gamma", type=float, nargs=2, metavar=("GP", "GM"))
    p.add_argument("--level", type=int, help="energy level (default 1)")
    p.add_argument("--cutoff", type=int, help="outcome label cutoff (default 10000)")
    p.add_argument("--method", choices=["closed", "quadrature"])
    p.add_argument("--ell", type=float, nargs=2, metavar=("EP", "EM"))
    p.add_argument("--expectation-N", type=int,
                   help="lattice size for <p_R>, <p_I> (default 999)")
    common(p)

    p = sub.add_parser("converge", help="continuum-limit rate fits")
    p.add_argument("--observable", choices=["energy", "momentum"])
    p.add_argument("--bc", choices=["dirichlet", "neumann", "robin"])
    p.add_argument("--gamma", type=float, nargs=2, metavar=("GP", "GM"))
    p.add_argument("--ell", type=float, nargs=2, metavar=("EP", "EM"))
    p.add_argument("--level", type=int, help="level / momentum label (default 1)")
    p.add_argument("--N-list", type=int, nargs="+", help="odd lattice sizes (default 27 81 243 729)")
    p.add_argument("--boundary", choices=["corner", "folded"])
    common(p)

    p = sub.add_parser("fourier", help="unquantized (whole-line) momentum density")
    p.add_argument("--level", type=int, help="hard-wall level (default 1)")
    p.add_argument("--cutoff-K", type=float, help="density cutoff (default 200*pi/L)")
    p.add_argument("--kind", choices=["dirichlet", "neumann"])
    p.add_argument("--samples", type=int, help="sample count for the density table")
    common(p)

    p = sub.add_parser("selfcheck", help="run the built-in invariant suite")
    common(p)

    return parser


_DEFAULTS = {
    "spectrum": SPECTRUM_DEFAULTS,
    "momentum": MOMENTUM_DEFAULTS,
    "measure": MEASURE_DEFAULTS,
    "converge": CONVERGE_DEFAULTS,
    "fourier": FOURIER_DEFAULTS,
    "selfcheck": SELFCHECK_DEFAULTS,
}

_COMMANDS = {
    "spectrum": cmd_spectrum,
    "momentum": cmd_momentum,
    "measure": cmd_measure,
    "converge": cmd_converge,
    "fourier": cmd_fourier,
    "selfcheck": cmd_selfcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, _DEFAULTS[args.verb])
        if args.output:
            with open(args.output, "w") as fh:
                return _COMMANDS[args.verb](args, fh)
        return _COMMANDS[args.verb](args, sys.stdout)
    except ConfigError as exc:
        print(f"pibox: configuration error: {exc}", file=sys.stderr)
        return 2
    except (RootScanError, ConvergenceError) as exc:
        print(f"pibox: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Verbs: spectrum, momentum, measure, converge, fourier, selfcheck.
Results go to stdout (or --output) as CSV with '#'-prefixed metadata
lines, or as a single JSON object {"meta": ..., "data": ...}.  Tables are
columns (name -> array); the CSV body is one '%d'/'%.17g'/'%s' row template,
with the text of one-valued columns written in, applied to all rows in a
single write.  All output is deterministic for a
fixed configuration and seed: floats are printed with 17 significant
digits and no timestamps are emitted.

Exit codes: 0 ok, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from .continuum import energy_eigenstate
from .convergence import converge_energy, converge_momentum
from .eigensolver import ConvergenceError, eigh_tridiagonal
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


_FIELDS = {"i": "%d", "u": "%d", "f": "%.17g"}  # by dtype kind; "%.17g" % x == _fmt(x)


def _field(col: np.ndarray) -> str | None:
    """Row-template text of a column with one value: the %-escaped string of a
    string column, '' for all None; None for a column written cell by cell."""
    if col.dtype.kind == "U" and col.size and (col == col[0]).all():
        return str(col[0]).replace("%", "%%")
    if col.dtype.kind == "O" and (col == None).all():  # noqa: E711 (elementwise)
        return ""
    return None


def _cells(col: np.ndarray, fmt: str) -> list:
    """One column's values as the writer takes them: Python numbers for
    integer and float arrays, each cell through _jsonable or _fmt otherwise
    (None is an empty CSV field)."""
    if col.dtype.kind == "f" and fmt == "json":  # _jsonable spells every infinity "inf"
        out = col.astype(object)
        out[np.isinf(col)] = "inf"
        return out.tolist()
    if col.dtype.kind in _FIELDS:
        return col.tolist()
    if fmt == "json":
        return [_jsonable(v) for v in col.tolist()]
    return ["" if v is None else _fmt(v) for v in col.tolist()]


def _emit(stream, meta: dict, table: dict, fmt: str):
    """Write ``table`` (column name -> equal-length column) with ``meta``:
    JSON rows, or '#' meta lines, a header and the CSV body in one write."""
    cols = [np.asarray(c) for c in table.values()]
    if fmt == "json":
        cells = [_cells(c, fmt) for c in cols]
        data = [dict(zip(table, row)) for row in zip(*cells)]
        obj = {"meta": {k: _jsonable(v) for k, v in meta.items()}, "data": data}
        stream.write(json.dumps(obj, indent=2))
        stream.write("\n")
        return
    for key, value in meta.items():
        stream.write(f"# {key} = {_fmt(value)}\n")
    stream.write(",".join(table) + "\n")
    fixed = [_field(c) for c in cols]
    cells = [_cells(c, fmt) for c, text in zip(cols, fixed) if text is None]
    row = ",".join(_FIELDS.get(c.dtype.kind, "%s") if text is None else text
                   for c, text in zip(cols, fixed)) + "\n"
    stream.write((row * len(cols[0])) % tuple(itertools.chain.from_iterable(zip(*cells))))


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


def _checked(make, *args, **kwargs):
    """make(*args, **kwargs), with its ValueError (a rejected input) as ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


#: upper limits of the size options: each outcome or sample is one row of output,
#: so an unbounded size could exhaust memory.  The cutoff cap is ten times its
#: default (200001 rows); the samples cap, about fifty times its default of 2001,
#: stays below that and odd, keeping k = 0 on the sample grid
_CAPS = {"cutoff": 100_000, "samples": 100_001}


def _size(args, name: str) -> int:
    value = int(getattr(args, name))
    if value > _CAPS[name]:
        raise ConfigError(f"--{name} {value} is above its cap {_CAPS[name]}")
    return value


def _physical(args) -> PhysicalConfig:
    return _checked(PhysicalConfig, mass=float(args.mass), box_length=float(args.length))


def _robin(args) -> RobinParams:
    bc = args.bc
    if bc is None:
        bc = "robin" if args.gamma is not None else "dirichlet"
    if bc == "dirichlet":
        return RobinParams.dirichlet()
    if bc == "neumann":
        return RobinParams.neumann()
    if bc != "robin":
        raise ConfigError(f"unknown boundary condition {bc!r}")
    if args.gamma is None:
        raise ConfigError("--gamma GP GM is required for Robin boundary conditions")
    return _checked(RobinParams, float(args.gamma[0]), float(args.gamma[1]))


def _extension(args) -> MomentumExtension:
    return _checked(MomentumExtension, float(args.ell[0]), float(args.ell[1]))


def _grid(num_sites, cfg) -> LatticeGrid:
    return _checked(LatticeGrid, int(num_sites), cfg.box_length)


def _echo_common(args, cfg) -> dict:
    # "backend" names the eigensolver driver of the calls a command makes
    return {
        "command": args.verb,
        "mass": cfg.mass,
        "box_length": cfg.box_length,
        "seed": int(args.seed),
        "backend": "none",
        "format": args.format,
    }


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

SPECTRUM_DEFAULTS = dict(mass=1.0, length=1.0, levels=10, N=99, method="continuum",
                         k_max=None, seed=0, format="csv", boundary="corner")


def _dispersion_wavenumber(E, grid, cfg):
    """Wavenumbers of the lattice eigenvalue array E, inverting E = (2/a sin(ka/2))^2 / 2m."""
    s = 0.5 * grid.spacing * np.sqrt(2.0 * cfg.mass * np.where(E < 0.0, 0.0, E))
    # libm asin per value: np.arcsin differs from it by up to 1.6 ulp
    return (2.0 / grid.spacing) * np.array([math.asin(x) for x in np.minimum(1.0, s).tolist()])


def cmd_spectrum(args, stream) -> int:
    cfg = _physical(args)
    robin = _robin(args)
    levels = int(args.levels)
    if levels < 1:
        raise ConfigError("--levels must be positive")
    meta = _echo_common(args, cfg)
    meta.update(gamma_plus=robin.gamma_plus, gamma_minus=robin.gamma_minus,
                method=args.method, levels=levels, boundary=args.boundary)

    def table(method, index, k, E, residual=None):  # the first `levels` rows
        n = min(len(index), levels)
        residual = np.full(n, None) if residual is None else residual
        return {"index": index[:n], "k_or_kappa": k[:n], "E": E[:n],
                "residual": residual[:n], "method": np.full(n, method)}

    def continuum_table():
        k_max = (levels + 2) * math.pi / cfg.box_length if args.k_max is None else args.k_max
        roots = _checked(solve_energy_continuum, cfg, robin, k_max=float(k_max))
        cols = roots.labels, roots.real_roots, roots.energies, roots.residuals
        if args.bound_states and roots.bound_roots is not None:
            order = np.argsort(-roots.bound_roots)  # ascending energy
            bound = (roots.meta["first_label"] + np.arange(order.size), roots.bound_roots[order],
                     roots.bound_energies[order], np.zeros(order.size))
            cols = [np.concatenate(pair) for pair in zip(bound, cols)]
        return table("continuum_root", *cols)

    def lattice_root_table(grid):
        roots = _checked(solve_energy_lattice, grid, cfg, robin)
        return table("lattice_root", roots.labels, roots.real_roots, roots.energies,
                     roots.residuals)

    def lattice_eig_table(grid):
        h = build_hamiltonian(grid, cfg, robin, boundary=args.boundary)
        sel_hi = min(levels, grid.num_sites) - 1
        res = eigh_tridiagonal(h, select=(0, sel_hi))
        meta["backend"] = res.meta["backend"]
        first = 1 if robin.is_dirichlet else 0
        k = _dispersion_wavenumber(res.eigenvalues, grid, cfg)
        return table("lattice_eig", first + np.arange(k.size), k, res.eigenvalues)

    if args.compare:
        grid = _grid(args.N, cfg)
        out = lattice_eig_table(grid)
        other = lattice_root_table(grid) if not robin.is_dirichlet else continuum_table()
        # pair by level label: the roots leave out the lattice bound levels below
        # them (E < 0, or so shallow that LAPACK may put them above 0) and end at
        # the band top
        E, E_other = out["E"], other["E"]
        bound = int(other["index"][0] - out["index"][0]) if E_other.size else 0
        n = min(E.size - bound, E_other.size)
        out["E_other"], out["agreement"] = np.full(E.size, None), np.full(E.size, None)
        out["E_other"][bound:bound + n] = E_other[:n]
        out["agreement"][bound:bound + n] = np.abs(E[bound:bound + n] - E_other[:n])
        meta["compare"] = "lattice_eig vs " + str(other["method"][0]) if E_other.size else "n/a"
    elif args.method == "continuum":
        out = continuum_table()
    elif args.method == "lattice-root":
        out = lattice_root_table(_grid(args.N, cfg))
    elif args.method == "lattice-eig":
        out = lattice_eig_table(_grid(args.N, cfg))
    else:
        raise ConfigError(f"unknown method {args.method!r}")

    _emit(stream, meta, out, args.format)
    return 0


# ---------------------------------------------------------------------------
# momentum
# ---------------------------------------------------------------------------

MOMENTUM_DEFAULTS = dict(mass=1.0, length=1.0, N=99, method="lattice-root",
                         k_max=None, seed=0, format="csv", ell=(1.0, 1.0))


def cmd_momentum(args, stream) -> int:
    cfg = _physical(args)
    ext = _extension(args)
    meta = _echo_common(args, cfg)
    meta.update(ell_plus=ext.ell_plus, ell_minus=ext.ell_minus, method=args.method)

    if args.method == "continuum":
        k_max = 20.0 * math.pi / cfg.box_length if args.k_max is None else args.k_max
        roots = _checked(solve_momentum_continuum, cfg, ext, k_max=float(k_max))
        table = {"n": roots.labels, "k": roots.real_roots, "residual": roots.residuals,
                 "method": np.full(roots.labels.size, "continuum_root")}
    elif args.method in ("lattice-root", "lattice-eig"):
        grid = _grid(args.N, cfg)
        roots = solve_momentum_lattice(grid, ext)
        table = {"n": roots.labels, "k": roots.real_roots, "k_hat": roots.k_hat,
                 "residual": roots.residuals, "method": np.full(roots.labels.size, "lattice_root")}
        if args.compare or args.method == "lattice-eig":
            res = eigh_tridiagonal(build_p_r(grid, ext))
            eig, meta["backend"] = res.eigenvalues, res.meta["backend"]
            order = np.argsort(roots.k_hat)
            eig_by_root = np.empty_like(eig)
            eig_by_root[order] = eig
            table.update(eig=eig_by_root, agreement=np.abs(eig_by_root - roots.k_hat))
            meta["compare"] = "k_hat vs eigensolver"
    else:
        raise ConfigError(f"unknown method {args.method!r}")

    _emit(stream, meta, table, args.format)
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
    cutoff = _size(args, "cutoff")
    ext = _extension(args)

    if args.method == "quadrature":
        state = _checked(energy_eigenstate, cfg, robin, level)
        dist = _checked(general_distribution, cfg, robin, ext, state, cutoff)
    elif args.method != "closed":
        raise ConfigError(f"unknown method {args.method!r}")
    elif robin.is_dirichlet:
        dist = _checked(dirichlet_distribution, cfg, level, cutoff)
    elif robin == RobinParams.neumann() and level == 0:
        dist = _checked(neumann_ground_distribution, cfg, cutoff)
    else:
        raise ConfigError(
            "closed-form distributions exist for hard walls (level >= 1) and "
            "the free-end ground state (level 0); use --method quadrature"
        )

    grid = _grid(args.expectation_N, cfg)
    if args.method != "quadrature":  # quadrature built the state above
        try:
            state = energy_eigenstate(cfg, robin, level)
        except ValueError:
            state = None  # no closed-form eigenstate (e.g. bound level)
    exp_r, exp_i = (None, None) if state is None else p_expectations(state, grid, ext)

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

    _emit(stream, meta, {"n": dist.n, "k": dist.k, "probability": dist.probability,
                         "cumulative": np.cumsum(dist.probability)}, args.format)
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
            ext = _extension(args)
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
    _emit(stream, meta, {"N": report.N_list, "spacing": spacings, "error": report.errors},
          args.format)
    return 0


# ---------------------------------------------------------------------------
# fourier
# ---------------------------------------------------------------------------

FOURIER_DEFAULTS = dict(mass=1.0, length=1.0, level=1, cutoff_K=None,
                        kind="dirichlet", samples=2001, seed=0, format="csv")


def cmd_fourier(args, stream) -> int:
    cfg = _physical(args)
    cutoff = 200.0 * math.pi / cfg.box_length if args.cutoff_K is None else float(args.cutoff_K)
    fd = _checked(fourier_density, cfg, int(args.level), cutoff, kind=args.kind,
                  num_samples=_size(args, "samples"))
    meta = _echo_common(args, cfg)
    meta.update(kind=args.kind, level=int(args.level), cutoff_K=cutoff,
                delta_k=fd.delta_k, tail_mass=fd.tail_mass,
                total_probability=fd.total_mass())
    _emit(stream, meta, {"k": fd.k, "density": fd.density}, args.format)
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

@functools.cache  # built once per process; parse_args leaves the parser as it was
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
    p.add_argument("--method", choices=["closed", "quadrature"],
                   help="closed: the rational hard-wall / free-end ground laws (default); "
                        "quadrature: the two-sinc closed form of the overlaps, any Robin state")
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

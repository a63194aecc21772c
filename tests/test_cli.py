import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pibox.cli
from pibox.cli import _emit, _fmt, _jsonable, main


def run_cli(args, tmp_path=None):
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_spectrum_dirichlet_levels():
    code, out = run_cli(["spectrum", "--bc", "dirichlet", "--levels", "3"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["index", "k_or_kappa", "E", "residual", "method"]
    energies = [float(r[2]) for r in rows]
    for l, e in enumerate(energies, start=1):
        assert e == pytest.approx(math.pi**2 * l**2 / 2.0, rel=1e-12)
    assert all(r[4] == "continuum_root" for r in rows)


def test_spectrum_bound_states():
    code, out = run_cli(["spectrum", "--gamma", "-5", "-5", "--bound-states", "--levels", "4"])
    assert code == 0
    _, _, rows = parse_csv(out)
    energies = [float(r[2]) for r in rows]
    assert energies[0] < energies[1] < 0 < energies[2]
    assert energies[0] == pytest.approx(-12.820164684696566, abs=1e-6)


def test_spectrum_compare_agreement():
    code, out = run_cli(["spectrum", "--N", "99", "--gamma", "2", "2", "--compare"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert "agreement" in header
    agreements = [float(r[header.index("agreement")]) for r in rows]
    assert max(agreements) <= 1e-9


@pytest.mark.parametrize("gammas, bound", [(("-5", "-5"), 2), (("3", "-7"), 1),
                                           (("-2", "-2"), 1), (("0.3", "50"), 0)])
def test_spectrum_compare_pairs_rows_by_level(gammas, bound):
    code, out = run_cli(["spectrum", "--N", "99", "--compare", "--gamma", *gammas])
    assert code == 0
    _, header, rows = parse_csv(out)
    energies = [float(r[header.index("E")]) for r in rows]
    paired = [r for r in rows if r[header.index("agreement")] != ""]
    # the lattice bound levels have no root to compare with
    assert [r[header.index("E_other")] for r in rows[:bound]] == [""] * bound
    assert all(e < 0 for e in energies[:bound]) and len(paired) == len(rows) - bound
    assert max(float(r[header.index("agreement")]) for r in paired) <= 1e-9


@pytest.mark.parametrize("gammas", [("1e-20", "1e-20"), ("1e-20", "0"), ("0.0000001", "-0.0000001"),
                                    ("0.0001", "-0.0001")])
def test_spectrum_keeps_the_level_of_tiny_couplings(gammas):
    # one sign: a ground level at E ~ 0; opposite signs: a level bound at kappa = |g|
    bound = 1 if gammas[1].startswith("-") else 0
    code, out = run_cli(["spectrum", "--gamma", *gammas, "--bound-states", "--levels", "3"])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["0", "1", "2"]
    ground = -0.5 * float(gammas[0]) ** 2 if bound else 0.0
    assert float(rows[0][2]) == pytest.approx(ground, rel=1e-9, abs=1e-14)
    assert float(rows[1][2]) == pytest.approx(math.pi**2 / 2, rel=1e-6)
    # the lattice binds the opposite pair's level too, and the comparison leaves it unpaired
    code, out = run_cli(["spectrum", "--N", "99", "--compare", "--gamma", *gammas])
    _, header, rows = parse_csv(out)
    agreement = [r[header.index("agreement")] for r in rows]
    assert code == 0 and agreement[:bound] == [""] * bound
    assert max(float(x) for x in agreement[bound:]) <= 1e-9


def test_spectrum_rejects_bad_config():
    code, _ = run_cli(["spectrum", "--levels", "-3"])
    assert code == 2
    code, _ = run_cli(["spectrum", "--bc", "robin"])
    assert code == 2
    code, _ = run_cli(["spectrum", "--N", "10", "--method", "lattice-eig"])
    assert code == 2


def test_momentum_lattice_failure_exit_code():
    # too-large extension parameters push roots off the real window
    code, _ = run_cli(["momentum", "--ell", "3", "3", "--N", "9"])
    assert code == 3


@pytest.mark.parametrize("argv", [
    # gamma = 2/a on both walls: a level exactly at the band top
    ["spectrum", "--method", "lattice-root", "--N", "5", "--gamma", "10", "10", "--levels", "5"],
    # |ell| = 1: the ninth eigenvalue of p_R is exactly 1/a, k on the zone edge
    ["momentum", "--N", "9", "--ell", "1", "-1"],
])
def test_level_on_the_zone_edge_is_a_numerical_failure(argv, capsys):
    code, out = run_cli(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 3 and out == ""
    assert len(err) == 1 and err[0].startswith("pibox: numerical failure: ")
    assert "zone edge" in err[0] and "|ell| > 1" not in err[0]


def test_momentum_compare():
    code, out = run_cli(["momentum", "--N", "9", "--compare"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    ks = [float(r[header.index("k")]) for r in rows]
    assert np.allclose(ks, math.pi * np.arange(-4, 5), atol=1e-10)
    agreements = [float(r[header.index("agreement")]) for r in rows]
    assert max(agreements) <= 1e-10


def test_measure_dirichlet_table():
    code, out = run_cli(["measure", "--bc", "dirichlet", "--level", "1", "--cutoff", "8"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert float(meta["delta_k"]) == pytest.approx(math.pi, rel=1e-15)
    assert float(meta["total_probability"]) == pytest.approx(1.0, abs=1e-6)
    assert abs(float(meta["p_r_expectation"])) <= 1e-10
    probs = {int(r[0]): float(r[2]) for r in rows}
    assert probs[1] == 0.25 and probs[-1] == 0.25
    assert probs[0] == pytest.approx(4.0 / math.pi**2, rel=1e-12)
    # cumulative column is a running sum
    assert float(rows[-1][3]) == pytest.approx(sum(probs.values()), rel=1e-12)


def test_measure_neumann_json_summary():
    code, out = run_cli(["measure", "--bc", "neumann", "--level", "0", "--cutoff", "4",
                         "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["delta_k"] == "inf"
    assert doc["meta"]["total_probability"] == pytest.approx(1.0, abs=1e-6)
    by_n = {row["n"]: row["probability"] for row in doc["data"]}
    assert by_n[0] == 0.5
    assert by_n[1] == pytest.approx(2.0 / math.pi**2, rel=1e-12)


def test_measure_quadrature_robin():
    code, out = run_cli(["measure", "--gamma", "2", "2", "--level", "0",
                         "--cutoff", "16", "--method", "quadrature"])
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert float(meta["total_probability"]) == pytest.approx(1.0, abs=1e-6)


def test_measure_quadrature_robin_spread_is_infinite():
    # P ~ 1/n^2 unless the state vanishes at both walls: sum k^2 P diverges
    code, out = run_cli(["measure", "--gamma", "2", "2", "--level", "3",
                         "--cutoff", "192", "--method", "quadrature"])
    assert code == 0
    assert parse_csv(out)[0]["delta_k"] == "inf"
    code, out = run_cli(["measure", "--bc", "dirichlet", "--level", "2",
                         "--cutoff", "16", "--method", "quadrature"])
    assert float(parse_csv(out)[0]["delta_k"]) == 2.0 * math.pi


@pytest.mark.parametrize("argv", [
    ["--gamma", "-2", "-2", "--level", "1", "--cutoff", "16"],  # linear zero mode
    ["--gamma", "inf", "-1", "--level", "0", "--cutoff", "16"],  # linear zero mode
    ["--gamma", "2", "2", "--level", "1", "--cutoff", "16", "--ell", "1", "0"],  # unequal ell
    ["--bc", "dirichlet", "--level", "9", "--cutoff", "4"],  # peak beyond the cutoff
])
def test_measure_quadrature_config_errors(argv):
    code, out = run_cli(["measure", "--method", "quadrature", *argv])
    assert code == 2 and out == ""


def test_measure_closed_form_guard():
    code, _ = run_cli(["measure", "--gamma", "2", "2", "--level", "0"])
    assert code == 2  # closed form only for hard walls / free-end ground


def test_converge_energy_json():
    code, out = run_cli(["converge", "--observable", "energy", "--bc", "dirichlet",
                         "--level", "1", "--N-list", "27", "81", "243"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["fitted_order"] >= 1.8
    assert len(doc["data"]) == 3
    errs = [row["error"] for row in doc["data"]]
    assert errs[0] > errs[1] > errs[2]


def test_converge_momentum_json():
    code, out = run_cli(["converge", "--observable", "momentum", "--level", "1",
                         "--N-list", "27", "81", "243"])
    assert code == 0
    doc = json.loads(out)
    assert 1.8 <= doc["meta"]["fitted_order"] <= 2.2


def test_converge_rejects_short_list():
    code, _ = run_cli(["converge", "--observable", "energy", "--bc", "dirichlet",
                       "--level", "1", "--N-list", "27"])
    assert code == 2


def test_fourier_output():
    code, out = run_cli(["fourier", "--level", "1", "--samples", "11"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["k", "density"]
    assert len(rows) == 11
    assert float(meta["delta_k"]) == pytest.approx(math.pi, rel=0.005)


def test_selfcheck_passes():
    code, out = run_cli(["selfcheck"])
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_selfcheck_passes_at_a_length_with_inexact_amplitudes():
    code, out = run_cli(["selfcheck", "--length", "0.7"])
    assert code == 0 and "FAIL" not in out


@pytest.mark.parametrize("argv", [
    ["--bc", "dirichlet", "--level", "5", "-L", "0.7", "--cutoff", "8"],
    ["--bc", "dirichlet", "--level", "20", "-L", "2.2611424348480433", "--cutoff", "300"],
    ["--bc", "neumann", "--level", "0", "-L", "0.7", "--cutoff", "8"],
])
def test_closed_and_quadrature_print_the_same_outcomes(argv):
    # one outcome law: every parity-forbidden outcome is exactly 0 on both routes
    out = {}
    for method in ("closed", "quadrature"):
        code, text = run_cli(["measure", *argv, "--method", method])
        assert code == 0
        out[method] = [line for line in text.splitlines() if line != f"# method = {method}"]
    assert out["closed"] == out["quadrature"]
    _, _, rows = parse_csv("\n".join(out["closed"]))
    if "dirichlet" in argv:
        level = int(argv[argv.index("--level") + 1])
        assert all(float(r[2]) == 0.0 for r in rows if (int(r[0]) - level) % 2 == 0 and abs(int(r[0])) != level)


@pytest.mark.parametrize("argv", [
    ["measure", "--bc", "dirichlet", "--cutoff", "100001"],
    ["fourier", "--samples", "100002"],
])
def test_sizes_above_their_caps_are_configuration_errors(argv, capsys):
    tracemalloc.start()
    try:
        code, out = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and out == ""
    assert len(err) == 1 and err[0].startswith("pibox: configuration error: ") and "cap" in err[0]
    assert peak < 500_000


def test_output_file_and_determinism(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    for p in (p1, p2):
        code, _ = run_cli(["spectrum", "--bc", "dirichlet", "--levels", "4",
                           "--seed", "7", "--output", str(p)])
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_json_determinism():
    _, out1 = run_cli(["measure", "--bc", "dirichlet", "--level", "2",
                       "--cutoff", "6", "--format", "json"])
    _, out2 = run_cli(["measure", "--bc", "dirichlet", "--level", "2",
                       "--cutoff", "6", "--format", "json"])
    assert out1 == out2


def test_config_file_merging(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"bc": "dirichlet", "levels": 2, "format": "json"}))
    code, out = run_cli(["spectrum", "--config", str(config)])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["data"]) == 2
    # explicit flags override the file
    code, out = run_cli(["spectrum", "--config", str(config), "--levels", "5"])
    doc = json.loads(out)
    assert len(doc["data"]) == 5


def test_config_file_unknown_key(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"no_such_option": 1}))
    code, _ = run_cli(["spectrum", "--config", str(config)])
    assert code == 2


def test_metadata_echoes_parameters():
    _, out = run_cli(["spectrum", "--bc", "neumann", "--levels", "2", "--seed", "42"])
    meta, _, _ = parse_csv(out)
    assert meta["gamma_plus"] == "0" and meta["gamma_minus"] == "0"
    assert meta["seed"] == "42"
    assert meta["command"] == "spectrum"


@pytest.mark.parametrize("args, driver", [
    (["spectrum", "--method", "lattice-eig", "--N", "9", "--levels", "3"], "stebz"),
    (["spectrum", "--method", "lattice-eig", "--N", "9", "--levels", "9"], "stemr"),
    (["momentum", "--N", "9", "--compare"], "stemr"),
    (["converge", "--level", "1", "--N-list", "9", "27", "81", "--format", "csv"], "stebz"),
    (["spectrum", "--method", "lattice-root", "--N", "9", "--gamma", "2", "2"], "none"),
    (["converge", "--observable", "momentum", "--N-list", "9", "27", "81", "--format", "csv"], "none"),
    (["measure", "--bc", "dirichlet", "--level", "1", "--cutoff", "10"], "none"),
])
def test_backend_header_names_the_drivers_used(args, driver):
    code, out = run_cli(args)
    assert code == 0
    assert parse_csv(out)[0]["backend"] == driver


def test_measure_quadrature_builds_the_eigenstate_once(monkeypatch):
    import pibox.cli

    calls = []
    build = pibox.cli.energy_eigenstate
    monkeypatch.setattr(pibox.cli, "energy_eigenstate", lambda *a: calls.append(a) or build(*a))
    code, _ = run_cli(["measure", "--gamma", "2", "2", "--level", "0", "--method", "quadrature",
                       "--cutoff", "24"])
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("argv, config", [
    (["spectrum", "--gamma", "nan", "2"], None),
    (["spectrum"], '{"gamma": [-1e999, 3]}'),
    (["momentum", "--ell", "nan", "1"], None),
    (["momentum", "--ell", "inf", "1"], None),
    (["measure", "--method", "quadrature", "--gamma", "2", "2", "--ell", "1", "nan"], None),
    (["measure", "--bc", "dirichlet", "--cutoff", "-1"], None),
    (["measure", "--bc", "neumann", "--level", "0", "--cutoff", "-3"], None),
    (["spectrum", "--levels", "3", "--k-max", "-2"], None),
    (["measure", "--bc", "dirichlet", "--expectation-N", "4"], None),
    (["momentum", "--method", "continuum", "--k-max", "-2"], None),
    (["momentum", "--method", "continuum", "--k-max", "0"], None),
    (["spectrum", "--k-max", "0"], None),
    (["fourier", "--cutoff-K", "0"], None),
])
def test_bad_numeric_input_is_a_configuration_error(argv, config, tmp_path, capsys):
    if config is not None:
        (tmp_path / "run.json").write_text(config)
        argv = argv + ["--config", str(tmp_path / "run.json")]
    code, out = run_cli(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and out == ""
    assert len(err) == 1 and err[0].startswith("pibox: configuration error: ")


def reference_emit(stream, meta, columns, rows, fmt):
    """The row-by-row writer the column writer replaced, kept as its oracle."""
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


def rendered(writer, *args):
    buf = io.StringIO()
    writer(buf, *args)
    return buf.getvalue()


META = {"command": "measure", "mass": 1.0, "seed": 0, "delta_k": math.inf, "tail": 5e-324}
FLOAT = hnp.arrays(np.float64, 50, elements=st.floats(width=64))
INT = hnp.arrays(np.int64, 50)
OPTIONAL = st.lists(st.none() | st.floats(width=64), min_size=50, max_size=50)


@settings(max_examples=200, deadline=None)
@given(n_rows=st.integers(0, 50), kinds=st.lists(st.sampled_from("fionx"), max_size=6),
       data=st.data(), fmt=st.sampled_from(["csv", "json"]))
def test_column_writer_matches_the_row_writer(n_rows, kinds, data, fmt):
    # float64 (inf, nan, -0.0, subnormals), int64, None-or-float, constant string
    # (a literal in the CSV row template, '%' escaped) and all-None columns
    draw = {"f": FLOAT, "i": INT, "o": OPTIONAL}
    table = {"n": np.arange(n_rows)}
    for j, kind in enumerate(kinds):
        if kind == "n":
            table[f"c{j}"] = np.full(n_rows, data.draw(st.sampled_from(["lattice_root", "50%s"])))
        elif kind == "x":
            table[f"c{j}"] = np.full(n_rows, None)
        else:
            table[f"c{j}"] = data.draw(draw[kind])[:n_rows]
    rows = [[col[i] for col in table.values()] for i in range(n_rows)]
    assert rendered(_emit, META, table, fmt) == rendered(reference_emit, META, list(table), rows, fmt)


@pytest.mark.parametrize("argv, maker, columns, rows_of", [
    (["measure", "--bc", "dirichlet", "--level", "1"], "dirichlet_distribution",
     ["n", "k", "probability", "cumulative"],
     lambda d: [[int(n), k, p, c] for n, k, p, c in
                zip(d.n, d.k, d.probability, np.cumsum(d.probability))]),
    (["fourier", "--kind", "neumann"], "fourier_density", ["k", "density"],
     lambda fd: [list(row) for row in zip(fd.k, fd.density)]),
])
def test_full_size_tables_match_the_row_writer(argv, maker, columns, rows_of, monkeypatch):
    seen = {}
    make, emit = getattr(pibox.cli, maker), pibox.cli._emit
    monkeypatch.setattr(pibox.cli, maker, lambda *a, **k: seen.setdefault("result", make(*a, **k)))
    monkeypatch.setattr(pibox.cli, "_emit", lambda s, meta, *a: emit(s, seen.setdefault("meta", meta), *a))
    code, out = run_cli(argv)
    assert code == 0
    rows = rows_of(seen["result"])
    assert len(rows) >= 2001
    assert out == rendered(reference_emit, seen["meta"], columns, rows, "csv")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--method", "lattice-root", "--bc", "dirichlet"],
    ["spectrum", "--method", "lattice-root", "--gamma", "1", "inf"],
    ["spectrum", "--method", "lattice-eig", "--compare", "--gamma", "1", "inf", "--N", "11"],
])
def test_lattice_roots_with_a_hard_wall_are_a_configuration_error(argv, capsys):
    code, out = run_cli(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and out == ""
    assert err == ["pibox: configuration error: lattice energy condition needs finite Robin couplings"]


def test_the_parser_is_built_once_and_left_as_it_was(tmp_path, capsys):
    assert pibox.cli.build_parser() is pibox.cli.build_parser()
    argv = ["spectrum", "--bc", "neumann", "--levels", "3"]
    assert run_cli(argv) == run_cli(argv)
    # config values fill one run's Namespace only
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"levels": 2, "format": "json", "gamma": [3, 4]}))
    assert run_cli(["spectrum", "--config", str(config)])[0] == 0
    code, out = run_cli(["spectrum"])
    meta, _, rows = parse_csv(out)
    assert code == 0 and len(rows) == 10
    assert meta["format"] == "csv" and meta["gamma_plus"] == "inf"
    # an argv argparse rejects leaves the next run unaffected
    with pytest.raises(SystemExit):
        run_cli(["spectrum", "--levels", "many"])
    capsys.readouterr()
    assert run_cli(argv) == run_cli(argv)


# every verb with its table-shaping options, at sizes that run in milliseconds
SWEEP = [
    ["spectrum"],
    ["spectrum", "--bc", "neumann", "--levels", "4"],
    ["spectrum", "--gamma", "2.5", "7", "-m", "2", "-L", "3"],
    ["spectrum", "--gamma", "-5", "-5", "--bound-states", "--levels", "5"],
    ["spectrum", "--gamma", "2", "2", "--k-max", "30"],
    ["spectrum", "--method", "lattice-root", "--gamma", "2.5", "7", "--N", "51"],
    ["spectrum", "--method", "lattice-root", "--gamma", "-5", "-5", "--N", "41", "--levels", "50"],
    ["spectrum", "--method", "lattice-eig", "--gamma", "2.5", "7", "--N", "301", "--levels", "301"],
    ["spectrum", "--method", "lattice-eig", "--bc", "dirichlet", "--N", "51", "--levels", "20"],
    ["spectrum", "--method", "lattice-eig", "--bc", "neumann", "--N", "51", "--levels", "5"],
    ["spectrum", "--method", "lattice-eig", "--gamma", "2", "-3", "--N", "31", "--boundary", "folded"],
    ["spectrum", "--compare", "--gamma", "2", "2", "--N", "51"],
    ["spectrum", "--compare", "--bc", "dirichlet", "--N", "51", "--levels", "6"],
    ["spectrum", "--compare", "--gamma", "-5", "-5", "--N", "99", "--levels", "12"],
    ["spectrum", "--compare", "--gamma", "0.3", "50", "--N", "21", "--levels", "30"],
    ["momentum", "--N", "51"],
    ["momentum", "--N", "31", "--ell", "0.5", "0.8", "--compare"],
    ["momentum", "--N", "31", "--ell", "-1", "-1", "--method", "lattice-eig", "-L", "2"],
    ["momentum", "--method", "continuum"],
    ["momentum", "--method", "continuum", "--ell", "2", "0.5", "--k-max", "40"],
    ["measure", "--bc", "dirichlet", "--cutoff", "300"],
    ["measure", "--bc", "dirichlet", "--level", "3", "-L", "2", "--expectation-N", "99"],
    ["measure", "--bc", "neumann", "--level", "0", "--cutoff", "200"],
    ["measure", "--method", "quadrature", "--gamma", "2", "2", "--level", "1", "--cutoff", "100"],
    ["measure", "--method", "quadrature", "--gamma", "-1", "4", "--level", "1", "--cutoff", "64"],
    ["measure", "--method", "quadrature", "--bc", "neumann", "--level", "2", "--ell", "0.5", "0.5"],
    ["converge", "--N-list", "27", "81", "243"],
    ["converge", "--bc", "neumann", "--level", "2", "--N-list", "27", "81", "243"],
    ["converge", "--gamma", "2", "2", "--boundary", "folded", "--N-list", "27", "81", "243"],
    ["converge", "--observable", "momentum", "--ell", "0.5", "0.5", "--N-list", "27", "81", "243"],
    ["fourier"],
    ["fourier", "--kind", "neumann", "--samples", "101"],
    ["fourier", "--level", "2", "--cutoff-K", "700", "--samples", "51", "-m", "3"],
]


def _agrees(text, value):
    """A CSV field against the JSON value of the same cell."""
    if value is None:
        return text == ""
    if isinstance(value, bool):
        return text == str(value).lower()
    if value == "inf":  # JSON spells every infinity "inf"
        return math.isinf(float(text))
    if isinstance(value, (int, float)):
        return float(text) == value or (math.isnan(float(text)) and math.isnan(value))
    return text == str(value)


@pytest.mark.parametrize("argv", SWEEP, ids=" ".join)
def test_stdout_repeats_and_csv_agrees_with_json(argv):
    runs = {fmt: [run_cli(argv + ["--format", fmt]) for _ in range(2)] for fmt in ("csv", "json")}
    for first, second in runs.values():
        assert first == second and first[0] == 0
    meta, header, rows = parse_csv(runs["csv"][0][1])
    doc = json.loads(runs["json"][0][1])
    assert list(meta) == list(doc["meta"])
    assert all(_agrees(meta[key], value) for key, value in doc["meta"].items() if key != "format")
    assert [list(d) for d in doc["data"]] == [header] * len(rows)
    assert all(_agrees(text, value) for row, d in zip(rows, doc["data"])
               for text, value in zip(row, d.values()))

"""Command-line contract: exit codes, JSON schemas, determinism."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from qgft import engine, groups, models
from qgft.cli import _fmt_json, load_unitary, main, matrix_to_json, parse_group_spec, write_json
from qgft.linalg import flip
from qgft.verify import run_suite

Z2 = models.build(groups.cyclic(2))


def write_function(tmp_path, name, values):
    path = tmp_path / name
    path.write_text(json.dumps(models.function_to_json(np.asarray(values, dtype=complex))))
    return str(path)


def write_unitary(tmp_path, name, w, n):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_json(w, n)))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- group spec

def test_parse_group_specs():
    assert parse_group_spec("cyclic:6").order == 6
    assert parse_group_spec("dihedral:4").order == 8
    assert parse_group_spec("s3").order == 6
    assert parse_group_spec("s4").order == 24
    g = parse_group_spec("product:cyclic:2xcyclic:3")
    assert g.order == 6 and groups.is_abelian(g)


def test_parse_group_spec_file(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 0]]}))
    assert parse_group_spec(str(path)).order == 2


# ------------------------------------------------------------------- verify

REPORT_KEYS = {"model", "seed", "suite_version", "checks"}
CHECK_KEYS = {"name", "pass", "deviation", "tolerance", "elapsed_ms"}


def test_verify_cyclic6_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--group", "cyclic:6", "--out", str(out)])
    assert code == 0
    report = read_json(out)
    assert set(report.keys()) == REPORT_KEYS
    assert isinstance(report["seed"], int)
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    for check in report["checks"]:
        assert set(check.keys()) == CHECK_KEYS
        assert check["pass"] is True
        assert check["deviation"] <= check["tolerance"]


def test_verify_s3_passes(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--group", "s3", "--out", str(out)]) == 0


def test_verify_broken_w_names_pentagon(tmp_path, capsys):
    broken = flip(2) @ Z2.qg.w  # unitary, but violates the pentagon relation
    path = write_unitary(tmp_path, "broken_w.json", broken, 2)
    out = tmp_path / "report.json"
    code = main(["verify", "--unitary", path, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "pentagon" in err
    report = read_json(out)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["pentagon"]["pass"] is False
    assert by_name["unitarity"]["pass"] is True


def test_verify_names_the_reason_for_a_failure(tmp_path, capsys):
    # the identity is a multiplicative unitary with no Haar vector; stderr
    # carries the stage's note, the report stays as it was
    path = write_unitary(tmp_path, "eye.json", np.eye(9), 3)
    out = tmp_path / "report.json"
    assert main(["verify", "--unitary", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("first failing check: haar-weights (WeightDerivationError: "
                          "leg-2 fixed space has dimension 3, expected 1")
    assert err.rstrip().endswith(")")
    for check in read_json(out)["checks"]:
        assert set(check.keys()) == CHECK_KEYS


def test_verify_valid_dense_unitary(tmp_path):
    mdl = models.build(groups.cyclic(3))
    path = write_unitary(tmp_path, "w.json", mdl.qg.w, 3)
    out = tmp_path / "report.json"
    assert main(["verify", "--unitary", path, "--out", str(out)]) == 0


def dual_group_w(group) -> np.ndarray:
    """Sigma W^* Sigma of a group model's W: an exact permutation matrix."""
    n = group.order
    return flip(n) @ models.build(group).qg.w.conj().T @ flip(n)


def verified(tmp_path, w, n) -> tuple[int, dict]:
    """The exit code of `qgft verify --unitary` on w, and its checks by name."""
    path = write_unitary(tmp_path, "w.json", w, n)
    out = tmp_path / "report.json"
    code = main(["verify", "--unitary", path, "--out", str(out)])
    return code, {c["name"]: c for c in read_json(out)["checks"]}


@pytest.mark.parametrize("group", [groups.dihedral(3), groups.cyclic(4)])
def test_verify_reads_a_permutation_matrix_as_a_permutation_w(tmp_path, group):
    # unitarity and the pentagon are exact, bound 0, and every stage passes
    code, checks = verified(tmp_path, dual_group_w(group), group.order)
    assert code == 0
    assert all(c["pass"] for c in checks.values())
    for name in ("unitarity", "pentagon"):
        assert (checks[name]["deviation"], checks[name]["tolerance"]) == (0.0, 0.0)


@pytest.mark.parametrize("entry", [1 - 2 ** -52, np.exp(0.5j)])
def test_verify_keeps_a_near_permutation_matrix_dense(tmp_path, entry):
    w = dual_group_w(groups.dihedral(3))
    w[np.nonzero(w[:, 0])[0][0], 0] = entry
    _, checks = verified(tmp_path, w, 6)
    assert checks["unitarity"]["tolerance"] == 1e-12
    assert checks["pentagon"]["tolerance"] == 1e-12


def test_verify_keeps_a_0_1_matrix_that_is_no_bijection_dense(tmp_path):
    w = dual_group_w(groups.cyclic(3))
    w[:, 1] = w[:, 0]                             # two columns share one row's 1
    code, checks = verified(tmp_path, w, 3)
    assert code == 1 and list(checks) == ["unitarity"]
    assert checks["unitarity"]["pass"] is False
    assert checks["unitarity"]["tolerance"] == 1e-12


def test_load_unitary_returns_a_permutation_matrix_as_an_array(tmp_path):
    w = dual_group_w(groups.dihedral(3))
    got = load_unitary(write_unitary(tmp_path, "w.json", w, 6))
    assert type(got) is np.ndarray and got.dtype == complex
    assert np.array_equal(got, w)


def spy_dense_kernels(monkeypatch) -> dict:
    """Every SVD of an n^2 x n^2 matrix and every dense `_comultiplier`."""
    calls, svd, comultiplier = {"svd": [], "dense_comultiplier": 0}, np.linalg.svd, \
        engine._comultiplier

    def counted_svd(a, *args, **kwargs):
        side = round(a.shape[0] ** 0.5)
        if a.shape == (side * side, side * side):
            calls["svd"].append(a.shape)
        return svd(a, *args, **kwargs)

    def counted_comultiplier(mu):
        calls["dense_comultiplier"] += not mu.is_permutation
        return comultiplier(mu)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(engine, "_comultiplier", counted_comultiplier)
    return calls


def test_verify_runs_no_dense_kernel_on_a_permutation_matrix(tmp_path, monkeypatch):
    # the dual of cyclic:12, a verify-dense source: both spans exact, both
    # comultiplication tensors by index count
    calls = spy_dense_kernels(monkeypatch)
    code, _ = verified(tmp_path, dual_group_w(groups.cyclic(12)), 12)
    assert code == 0
    assert calls == {"svd": [], "dense_comultiplier": 0}


def test_verify_reads_a_dense_unitary_as_before(tmp_path, monkeypatch):
    # a transported W takes the dense route: one slice-family SVD, and the
    # report of run_suite on the loaded array
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 6))
                        + 1j * np.random.default_rng(6).standard_normal((6, 6)))
    w = np.kron(q, q) @ models.build(groups.dihedral(3)).qg.w @ np.kron(q, q).conj().T
    calls = spy_dense_kernels(monkeypatch)
    code, checks = verified(tmp_path, w, 6)
    assert code == 0 and calls["svd"] == [(36, 36)] and calls["dense_comultiplier"] == 2
    want = run_suite(load_unitary(tmp_path / "w.json"), model_name="w")
    assert {name: (c["deviation"], c["tolerance"]) for name, c in checks.items()} == \
        {c.name: (c.deviation, c.tolerance) for c in want.checks}


def test_verify_non_finite_deviation_fails_the_stage(tmp_path, capsys):
    # W = 1e200 I is finite, but W W^* overflows: the report must still be JSON
    path = write_unitary(tmp_path, "big.json", 1e200 * np.eye(4), 2)
    out = tmp_path / "report.json"
    assert main(["verify", "--unitary", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "unitarity" in err and "non-finite deviation: inf" in err
    assert "Warning" not in err
    (check,) = json.loads(out.read_text())["checks"]
    assert (check["name"], check["pass"], check["deviation"], check["tolerance"]) == \
        ("unitarity", False, 1.0, 0.0)


def test_verify_bad_group_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 1]]}))
    assert main(["verify", "--group", str(path)]) == 2
    assert "row" in capsys.readouterr().err


def test_verify_malformed_unitary_exits_2(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"n": 2, "re": [[1.0]]}))
    assert main(["verify", "--unitary", str(path)]) == 2


def test_verify_dense_unitary_past_n12(tmp_path, capsys):
    # no leg dimension is refused: the identity at n = 13 loads, and fails
    # only where it is no quantum group in GNS position
    n = 13
    eye = np.eye(n * n)
    path = write_unitary(tmp_path, "big.json", eye, n)
    assert main(["verify", "--unitary", path]) == 1
    assert "first failing check: haar-weights" in capsys.readouterr().err


def test_verify_random_dense_unitary_at_n24_fails_in_n4_memory(tmp_path, capsys):
    # its M spans all 576 operators: the pentagon reads one n^4 block of
    # W12 W13 W23 - W23 W12, which fails, instead of a coefficient tensor of
    # 576^3 entries (3 GB)
    n = 24
    rng = np.random.default_rng(24)
    w, _ = np.linalg.qr(rng.standard_normal((n * n, n * n))
                        + 1j * rng.standard_normal((n * n, n * n)))
    path = write_unitary(tmp_path, "random24.json", w, n)
    tracemalloc.start()
    try:
        code = main(["verify", "--unitary", path, "--out", str(tmp_path / "report.json")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "first failing check: pentagon (M spans 576 > n = 24" in capsys.readouterr().err
    assert peak < 128 * 2 ** 20


# One-by-one unitaries whose leg dimension field is not a positive JSON integer.
BAD_N = {"null": None, "negative": -1, "fraction": 1.9, "true": True}

# One-by-one unitaries with a matrix entry that is not a JSON number, or with
# rows of different lengths.
BAD_ENTRIES = {"re-object": {"re": {"a": 1}, "im": [[0]]},
               "re-nested-object": {"re": [[{"a": 1}]], "im": [[0]]},
               "re-true": {"re": [[True]], "im": [[0]]},
               "im-true": {"re": [[1]], "im": [[True]]},
               "re-ragged": {"re": [[1, 0, 0, 0], [0, 1]], "im": [[0]]},
               "im-ragged": {"re": [[1]], "im": [[0, 0, 0, 0], [0, 0]]}}

LOAD_FAILURES = [
    ["verify", "--unitary", "{missing}"],
    ["verify", "--group", "cyclic:0"],
    ["fourier", "--group", "cyclic:2", "--function", "{missing}"],
    ["fourier", "--group", "cyclic:0", "--function", "{good}"],
    ["convolve", "--group", "cyclic:2", "--a", "{good}", "--c", "{missing}"],
    ["convolve", "--group", "cyclic:0", "--a", "{good}", "--c", "{good}"],
    ["pair", "--group", "cyclic:2", "--a", "{good}", "--b", "{missing}"],
    ["pair", "--group", "cyclic:0", "--a", "{good}", "--b", "{good}"],
    ["dft-compare", "--group", "cyclic:2", "--function", "{missing}"],
    ["dft-compare", "--group", "cyclic:0", "--function", "{good}"],
    pytest.param(["fourier", "--group", "cyclic:2", "--function", "{values_5}"],
                 id="fourier-values-not-a-list"),
    pytest.param(["pair", "--group", "cyclic:2", "--a", "{good}", "--b", "{values_5}"],
                 id="pair-values-not-a-list"),
    *(pytest.param(["verify", "--unitary", f"{{n_{label}}}"], id=f"verify-n-{label}")
      for label in BAD_N),
    pytest.param(["verify", "--unitary", "{number}"], id="verify-unitary-not-an-object"),
    *(pytest.param(["verify", "--unitary", f"{{entries_{label}}}"], id=f"verify-entries-{label}")
      for label in BAD_ENTRIES),
]


@pytest.mark.parametrize("argv", LOAD_FAILURES, ids=lambda argv: "-".join(
    [argv[0], "bad-group" if "cyclic:0" in argv else "missing-file"]))
def test_load_failure_exits_2_with_empty_stdout(tmp_path, capsys, argv):
    contents = {"values_5": {"values": 5}, "number": 5,
                **{f"n_{label}": {"n": n, "re": [[1.0]], "im": [[0.0]]}
                   for label, n in BAD_N.items()},
                **{f"entries_{label}": {"n": 1, **fields} for label, fields in BAD_ENTRIES.items()}}
    files = {"good": write_function(tmp_path, "f.json", [1.0, 2.0]),
             "missing": str(tmp_path / "missing.json")}
    for key, data in contents.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(data))
        files[key] = str(tmp_path / f"{key}.json")
    assert main([a.format(**files) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    for arg in argv:  # a bad matrix names its file
        if arg.startswith("{entries_"):
            assert arg.format(**files) in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("argv", [
    ["verify", "--group", "cyclic:2"],
    ["convolve", "--group", "cyclic:2", "--a", "{f}", "--c", "{f}"],
    ["dft-compare", "--group", "cyclic:2", "--function", "{f}"],
], ids=lambda argv: argv[0])
def test_bad_tolerance_exits_2_with_empty_stdout(tmp_path, capsys, argv, tol):
    f = write_function(tmp_path, "f.json", [1.0, 2.0])
    assert main([a.format(f=f) for a in argv] + [f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --tol")
    assert captured.out == ""


def test_verify_deterministic_modulo_elapsed(tmp_path):
    paths = []
    for k in range(2):
        out = tmp_path / f"r{k}.json"
        assert main(["verify", "--group", "cyclic:4", "--out", str(out)]) == 0
        paths.append(out)
    texts = [re.sub(r'"elapsed_ms": [^,\n}]+', '"elapsed_ms": 0', p.read_text())
             for p in paths]
    assert texts[0] == texts[1]


def test_verify_seed_recorded(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--group", "cyclic:2", "--seed", "99", "--out", str(out)]) == 0
    assert read_json(out)["seed"] == 99


# ------------------------------------------------------------------ fourier

def test_fourier_delta_identity(tmp_path):
    fn = write_function(tmp_path, "a.json", [1.0, 0.0])
    out = tmp_path / "out.json"
    assert main(["fourier", "--group", "cyclic:2", "--function", fn,
                 "--out", str(out)]) == 0
    data = read_json(out)
    np.testing.assert_allclose(np.asarray(data["re"]), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(np.asarray(data["im"]), 0, atol=1e-12)
    np.testing.assert_allclose(data["coefficients"], [[1.0, 0.0], [0.0, 0.0]],
                               atol=1e-12)


def test_fourier_z3_first_column(tmp_path):
    fn = write_function(tmp_path, "a.json", [1.0, 2.0, 3.0])
    out = tmp_path / "out.json"
    assert main(["fourier", "--group", "cyclic:3", "--function", fn,
                 "--out", str(out)]) == 0
    data = read_json(out)
    first_col = np.asarray(data["re"])[:, 0]
    np.testing.assert_allclose(first_col, [1.0, 2.0, 3.0], atol=1e-12)


def test_fourier_inverse_diagonal(tmp_path):
    fn = write_function(tmp_path, "b.json", [5.0, 7.0])
    out = tmp_path / "out.json"
    assert main(["fourier", "--group", "cyclic:2", "--function", fn, "--inverse",
                 "--out", str(out)]) == 0
    data = read_json(out)
    np.testing.assert_allclose(data["values"], [[5.0, 0.0], [7.0, 0.0]], atol=1e-12)


def test_fourier_length_mismatch_exits_2(tmp_path, capsys):
    fn = write_function(tmp_path, "a.json", [1.0, 0.0])
    assert main(["fourier", "--group", "cyclic:3", "--function", fn]) == 2


# ----------------------------------------------------------------- convolve

def test_convolve_frozen(tmp_path):
    a = write_function(tmp_path, "a.json", [1.0, 2.0])
    c = write_function(tmp_path, "c.json", [3.0, 4.0])
    out = tmp_path / "out.json"
    assert main(["convolve", "--group", "cyclic:2", "--a", a, "--c", c,
                 "--out", str(out)]) == 0
    data = read_json(out)
    np.testing.assert_allclose(data["values"], [[11.0, 0.0], [10.0, 0.0]], atol=1e-10)
    assert data["route_deviation"] <= 1e-10


def test_convolve_dual_pointwise(tmp_path):
    a = write_function(tmp_path, "a.json", [5.0, 7.0])
    c = write_function(tmp_path, "c.json", [2.0, 3.0])
    out = tmp_path / "out.json"
    assert main(["convolve", "--group", "cyclic:2", "--a", a, "--c", c, "--dual",
                 "--out", str(out)]) == 0
    np.testing.assert_allclose(read_json(out)["values"],
                               [[10.0, 0.0], [21.0, 0.0]], atol=1e-10)


def test_convolve_delta_identity_unit(tmp_path):
    a = write_function(tmp_path, "a.json", [1.0, 0.0, 0.0])
    c = write_function(tmp_path, "c.json", [4.0, 5.0, 6.0])
    out = tmp_path / "out.json"
    assert main(["convolve", "--group", "cyclic:3", "--a", a, "--c", c,
                 "--out", str(out)]) == 0
    np.testing.assert_allclose(read_json(out)["values"],
                               [[4.0, 0.0], [5.0, 0.0], [6.0, 0.0]], atol=1e-10)


# --------------------------------------------------------------------- pair

def test_pair_frozen(tmp_path):
    a = write_function(tmp_path, "a.json", [1.0, 2.0])
    b = write_function(tmp_path, "b.json", [3.0, 4.0])
    out = tmp_path / "out.json"
    assert main(["pair", "--group", "cyclic:2", "--a", a, "--b", b,
                 "--out", str(out)]) == 0
    data = read_json(out)
    for key in ("via_inverse", "via_forward", "via_w", "group_sum"):
        np.testing.assert_allclose(data[key], [11.0, 0.0], atol=1e-10)
    assert data["spread"] <= 1e-10


def test_pair_zero_function(tmp_path):
    a = write_function(tmp_path, "a.json", [0.0, 0.0])
    b = write_function(tmp_path, "b.json", [3.0, 4.0])
    out = tmp_path / "out.json"
    assert main(["pair", "--group", "cyclic:2", "--a", a, "--b", b,
                 "--out", str(out)]) == 0
    np.testing.assert_allclose(read_json(out)["via_inverse"], [0.0, 0.0], atol=1e-12)


def test_pair_disjoint_deltas(tmp_path):
    a = write_function(tmp_path, "a.json", [0.0, 1.0, 0.0])
    b = write_function(tmp_path, "b.json", [0.0, 0.0, 1.0])
    out = tmp_path / "out.json"
    assert main(["pair", "--group", "cyclic:3", "--a", a, "--b", b,
                 "--out", str(out)]) == 0
    np.testing.assert_allclose(read_json(out)["via_inverse"], [0.0, 0.0], atol=1e-12)


# -------------------------------------------------------------- dft-compare

def test_dft_compare_z2(tmp_path):
    fn = write_function(tmp_path, "a.json", [0.0, 1.0])
    out = tmp_path / "out.json"
    assert main(["dft-compare", "--group", "cyclic:2", "--function", fn,
                 "--out", str(out)]) == 0
    data = read_json(out)
    diag = sorted(pair[0] for pair in data["diagonal"])
    np.testing.assert_allclose(diag, [-1.0, 1.0], atol=1e-12)
    assert data["deviation"] <= 1e-10


def test_dft_compare_non_abelian_exits_2(tmp_path, capsys):
    fn = write_function(tmp_path, "a.json", [1.0] * 6)
    assert main(["dft-compare", "--group", "s3", "--function", fn]) == 2
    assert "abelian" in capsys.readouterr().err


# ------------------------------------------------------------ serialization

def test_report_floats_17_digits(tmp_path):
    out = tmp_path / "report.json"
    main(["verify", "--group", "cyclic:2", "--out", str(out)])
    text = out.read_text()
    data = json.loads(text)  # valid JSON
    # every float round-trips exactly through the emitted text
    for check in data["checks"]:
        token = format(float(check["deviation"]), ".17g")
        assert float(token) == check["deviation"]


def test_stdout_output(capsys):
    code = main(["verify", "--group", "cyclic:2"])
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["model"] == "cyclic:2"


def test_float_rows_match_per_value_format():
    rng = np.random.default_rng(3)
    row = (rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)).tolist()
    row += [-0.0, 5e-324, 1e308, 1.0, 0.1]
    assert _fmt_json(row) == "[" + ", ".join(format(v, ".17g") for v in row) + "]"


@pytest.mark.parametrize("row, text", [
    ([0.5, True, False], "[0.5, true, false]"),
    ([0.5, 2, -3], "[0.5, 2, -3]"),
    ([np.int64(4), 0.25], "[4, 0.25]"),
    ([0.5, np.float64(0.1)], "[0.5, 0.10000000000000001]"),
    ([np.bool_(True), 1.5], "[true, 1.5]"),
])
def test_rows_with_other_scalars_keep_their_text(row, text):
    assert _fmt_json(row) == text


def test_dense_unitary_round_trips_through_the_writer(tmp_path):
    u, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 6))
                        + 1j * np.random.default_rng(6).standard_normal((6, 6)))
    uu = np.kron(u, u)
    w = uu @ models.build(groups.dihedral(3)).qg.w @ uu.conj().T
    path = tmp_path / "w.json"
    write_json(matrix_to_json(w, 6), str(path))
    assert np.array_equal(load_unitary(path), w)

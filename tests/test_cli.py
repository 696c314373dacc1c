"""Command-line interface: output shapes, exit codes, and determinism."""

import ast
import hashlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import sternsums.cli as cli_mod
import sternsums.forms as forms
import sternsums.recurrences as recurrences
import sternsums.spectra as spectra
import sternsums.stern as stern
from sternsums.cli import (
    DEFAULT_ROW_CAP,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFICATION_FAILED,
    MINE_MAX_DEGREE,
    MINE_MAX_TERMS,
    PHI_MAX_DEGREE,
    SUMS_MAX_DEGREE,
    SUMS_MAX_TERMS,
    VERIFY_MAX_DEGREE,
    encode_rational,
    main,
    parse_fspec,
)
from sternsums.forms import HomogPoly
from sternsums.linalg import InexactDivisionError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- rational string round trip ----------------------------------------------


def test_rational_encoding_round_trips():
    cases = [0, 1, -7, 3 * 7**20, Fraction(1, 3), Fraction(-22, 7), Fraction(4, 2)]
    for x in cases:
        s = encode_rational(x)
        assert Fraction(s) == x
        assert "/1" not in s
    assert encode_rational(Fraction(4, 2)) == "2"
    assert encode_rational(Fraction(-1, 3)) == "-1/3"


# -- f-spec grammar -----------------------------------------------------------


def test_parse_fspec_monomials():
    assert parse_fspec("x^3") == HomogPoly.monomial(3, 3)
    assert parse_fspec("x^2y") == HomogPoly.monomial(2, 3)
    assert parse_fspec("x^2*y") == HomogPoly.monomial(2, 3)
    assert parse_fspec("y^2") == HomogPoly.monomial(0, 2)
    assert parse_fspec("y^0x^1") == HomogPoly.monomial(1, 1)
    assert parse_fspec("x") == HomogPoly.monomial(1, 1)
    assert parse_fspec("xy") == HomogPoly.monomial(1, 2)


def test_parse_fspec_coefficient_lists():
    assert parse_fspec("coeffs=[1,2,3]") == HomogPoly([1, 2, 3])
    assert parse_fspec("coeffs=[1/2, -3]") == HomogPoly([Fraction(1, 2), -3])
    assert parse_fspec("coeffs=[0.5, -2, 0.75]") == HomogPoly([Fraction(1, 2), -2, Fraction(3, 4)])


def test_parse_fspec_rejects_garbage():
    for bad in ("z^2", "x^", "coeffs=[]", "coeffs=1,2", ""):
        with pytest.raises(ValueError):
            parse_fspec(bad)


def _no_form(*args, **kwargs):
    raise AssertionError("a coefficient was built")


def test_sums_rejects_bad_coefficients_with_exit_2(monkeypatch, capsys):
    for entry in ("1/0", "0/0"):
        code, out, err = run(capsys, "sums", f"coeffs=[1,{entry}]", "5")
        assert code == EXIT_USAGE and out == ""
        assert f"'{entry}' has a zero denominator" in err
    # exponent notation is refused before Fraction sees it: parsing
    # 1e999999999 would not finish
    monkeypatch.setattr(cli_mod, "Fraction", _no_form)
    for entry in ("1e999999999", "2E1", "1.5e-3"):
        code, out, err = run(capsys, "sums", f"coeffs=[{entry},1]", "5")
        assert code == EXIT_USAGE and out == ""
        assert f"'{entry}' is in exponent notation" in err


# -- row ----------------------------------------------------------------------


def test_row_text(capsys):
    code, out, _ = run(capsys, "row", "4")
    assert code == EXIT_OK
    assert out.strip() == "1 1 2 1 3 2 3 1 3 2 3 1 2 1 1"
    code, out, _ = run(capsys, "row", "1")
    assert out.strip() == "1"


def test_row_csv_and_json(capsys):
    code, out, _ = run(capsys, "row", "3", "--format", "csv")
    assert code == EXIT_OK and out.strip() == "1,1,2,1,2,1,1"
    code, out, _ = run(capsys, "row", "3", "--json")
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "row"
    assert doc["parameters"] == {"n": "3", "cap": "20"}
    assert doc["results"]["entries"] == ["1", "1", "2", "1", "2", "1", "1"]


def test_row_exit_codes(monkeypatch, capsys):
    code, _, err = run(capsys, "row", "0")
    assert code == EXIT_USAGE
    assert f"1 <= n <= {DEFAULT_ROW_CAP}" in err
    _block_rows(monkeypatch)
    for n in (DEFAULT_ROW_CAP + 1, 24, 99):
        code, out, err = run(capsys, "row", str(n))
        assert code == EXIT_RESOURCE and out == ""
        assert f"row index {n}" in err and f"configured cap {DEFAULT_ROW_CAP}" in err


def _no_rows(*args, **kwargs):
    raise AssertionError("a row was built past the cap")


def _block_rows(monkeypatch):
    # every row past row 1 is built by stern._expand
    monkeypatch.setattr(stern, "_expand", _no_rows)
    monkeypatch.setattr(cli_mod, "power_sum_sequence", _no_rows)


def test_cap_is_not_an_option(monkeypatch, capsys):
    _block_rows(monkeypatch)
    sums = [("sums", "x", "3", mode) for mode in ("--fast", "--both", "--direct")]
    for argv in [("row", "3"), *sums]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cap", str(DEFAULT_ROW_CAP)])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --cap" in captured.err


# -- sums ----------------------------------------------------------------------


def test_sums_both_agree(capsys):
    code, out, _ = run(capsys, "sums", "x^3", "4", "--both")
    assert code == EXIT_OK
    assert out.strip() == "1 3 21 147 (paths agree)"


def test_sums_default_fast(capsys):
    code, out, _ = run(capsys, "sums", "x^2y", "4")
    assert code == EXIT_OK and out.strip() == "0 2 14 98"
    code, out, _ = run(capsys, "sums", "y^0x^1", "3")
    assert out.strip() == "1 3 9"


def test_sums_direct_respects_cap(capsys):
    past = str(DEFAULT_ROW_CAP + 1)
    code, _, err = run(capsys, "sums", "x^2", past, "--both")
    assert code == EXIT_RESOURCE
    assert f"configured cap {DEFAULT_ROW_CAP}" in err
    code, _, _ = run(capsys, "sums", "x^2", past, "--fast")
    assert code == EXIT_OK


def test_sums_past_row_cap_exits_before_any_row(monkeypatch, capsys):
    _block_rows(monkeypatch)
    for n in (DEFAULT_ROW_CAP + 1, 24, 30):
        for mode in ("--both", "--direct"):
            code, out, err = run(capsys, "sums", "x", str(n), mode)
            assert code == EXIT_RESOURCE and out == ""
            assert f"row index {n}" in err and f"configured cap {DEFAULT_ROW_CAP}" in err


def test_sums_json_and_csv(capsys):
    code, out, _ = run(capsys, "sums", "x^3", "3", "--json", "--both")
    doc = json.loads(out)
    assert doc["results"]["values"] == ["1", "3", "21"]
    assert doc["results"]["paths_agree"] is True
    code, out, _ = run(capsys, "sums", "x^3", "3", "--format", "csv")
    assert out.splitlines() == ["n,value", "1,1", "2,3", "3,21"]


def test_sums_exits_1_naming_the_degree_when_the_certificate_fails(monkeypatch, capsys):
    # a recurrence that does not hold on the head must not extend the sums
    real = recurrences.annihilator_recurrence

    def skewed(r, phi_sym=None):
        rec = real(r, phi_sym)
        coeffs = (rec.coefficients[0] + 1,) + rec.coefficients[1:]
        return recurrences.LinearRecurrence(rec.length, coeffs, rec.n0)

    monkeypatch.setattr(recurrences, "annihilator_recurrence", skewed)
    for mode in ("--fast", "--both"):
        code, out, err = run(capsys, "sums", "x^4y^3", "20", mode)
        assert code == EXIT_VERIFICATION_FAILED and out == ""
        assert "r=7" in err and "certificate" in err


def test_sums_both_exits_1_when_the_routes_disagree(monkeypatch, capsys):
    monkeypatch.setattr(cli_mod, "power_sum_direct_sequence", lambda f, n: [0] * n)
    code, out, err = run(capsys, "sums", "x^3", "4", "--both", "--json")
    assert code == EXIT_VERIFICATION_FAILED and out == ""
    assert err == "error: direct and fast power sums disagree\n"


def test_sums_bad_fspec(capsys):
    code, _, err = run(capsys, "sums", "q^3", "4")
    assert code == EXIT_USAGE


def test_sums_refuses_malformed_separators_with_exit_2(monkeypatch, capsys):
    # an empty entry would shift every later coefficient to a lower power of x
    monkeypatch.setattr(cli_mod, "power_sum_sequence", _no_form)
    for spec in ("coeffs=[1,,2]", "coeffs=[1,2,]", "coeffs=[ ,1]", "coeffs=[,]"):
        code, out, err = run(capsys, "sums", spec, "3")
        assert code == EXIT_USAGE and out == ""
        assert f"{spec!r} has an empty entry" in err
    for spec in ("x^2*", "*x", "x**y", "*", "x*^2"):
        code, out, err = run(capsys, "sums", spec, "3")
        assert code == EXIT_USAGE and out == ""
        assert f"cannot parse form {spec!r}" in err


def _no_sums(*args, **kwargs):
    raise AssertionError("power sums were computed past the cap")


def _block_sums(monkeypatch):
    monkeypatch.setattr(cli_mod, "power_sum_sequence", _no_sums)
    monkeypatch.setattr(cli_mod, "power_sum_direct_sequence", _no_sums)
    monkeypatch.setattr(stern, "sym_quotient", _no_sums)


def test_sums_degree_cap(monkeypatch, capsys):
    code, out, _ = run(capsys, "sums", f"x^{SUMS_MAX_DEGREE}", "2", "--both", "--json")
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    assert results["values"] == ["1", "3"] and results["paths_agree"] is True
    _block_sums(monkeypatch)
    past = SUMS_MAX_DEGREE + 1
    dense = "coeffs=[" + ",".join(["1"] * (past + 1)) + "]"
    for spec in (f"x^{past}", f"x^{past - 1}y", dense):
        for mode in ("--fast", "--both", "--direct"):
            code, out, err = run(capsys, "sums", spec, "2", mode)
            assert code == EXIT_RESOURCE and out == ""
            assert f"SUMS_MAX_DEGREE={SUMS_MAX_DEGREE}" in err


def test_sums_degree_cap_comes_before_any_coefficient(monkeypatch, capsys):
    monkeypatch.setattr(HomogPoly, "monomial", staticmethod(_no_form))
    monkeypatch.setattr(cli_mod, "Fraction", _no_form)
    dense = "coeffs=[" + ",".join(["1"] * (SUMS_MAX_DEGREE + 2)) + "]"
    cases = [("x^5000000", 5000000), ("y^999999999x", 10**9), (dense, SUMS_MAX_DEGREE + 1)]
    for spec, degree in cases:
        code, out, err = run(capsys, "sums", spec, "5")
        assert code == EXIT_RESOURCE and out == ""
        assert f"degree {degree} is above the cap SUMS_MAX_DEGREE={SUMS_MAX_DEGREE}" in err


def test_sums_terms_cap(monkeypatch, capsys):
    # S_n(x) = 3^(n - 1)
    code, out, _ = run(capsys, "sums", "x", str(SUMS_MAX_TERMS), "--json")
    assert code == EXIT_OK
    values = json.loads(out)["results"]["values"]
    assert len(values) == SUMS_MAX_TERMS and values[-1] == str(3 ** (SUMS_MAX_TERMS - 1))
    _block_sums(monkeypatch)
    for mode in ("--fast", "--both", "--direct"):
        code, out, err = run(capsys, "sums", "x", str(SUMS_MAX_TERMS + 1), mode)
        assert code == EXIT_RESOURCE and out == ""
        assert f"SUMS_MAX_TERMS={SUMS_MAX_TERMS}" in err


def _coeffs_spec(kind, d):
    """A degree-d form with mixed signs: integer, or with denominators 2..8."""
    num = [(-1) ** i * (1 + (7 if kind == "dense" else 5) * i % 9) for i in range(d + 1)]
    terms = [str(c) if kind == "dense" else f"{c}/{2 + i % 7}" for i, c in enumerate(num)]
    return "coeffs=[" + ",".join(terms) + "]"


# sha256 of the stdout of `sums <form> <n_max> --json` on the transfer route,
# recorded before the route moved onto the swap quotient; every value stays
# under the 4300-digit rendering limit (the largest, degree 40, has 2498).
SUMS_DIGESTS = [
    ("dense", 12, 300, "076cec583cbd358ef39f6bcfbfe337bbb494d7aa06e117b674e7480b585a837a"),
    ("dense", 20, 300, "0cc37edd5f9b7e211cbe0189ec7ab453579770ea3634652705dffca4049642cf"),
    ("dense", 30, 300, "ff1eba5d7bc146c6263b260632b2a494c87d8e636e9b07189f7dc0670ed556b8"),
    ("dense", 40, 300, "814ff8eb6e0a8024b18304a82d29d17aff1b0f199165cbac26d32241d3391ef7"),
    ("rational", 12, 300, "37e6a6871fd22368a05f883656838968910aa1f937073ec919fb0508b52d5790"),
    ("rational", 20, 200, "054f4853da07d29a7a49d105e3b4e87d8aefc37cce3901125e919783586a33b9"),
]


@pytest.mark.parametrize(
    "kind, d, n_max, digest", SUMS_DIGESTS, ids=[f"{k}{d}-{n}" for k, d, n, _ in SUMS_DIGESTS]
)
def test_sums_json_matches_the_recorded_digests(capsys, kind, d, n_max, digest):
    code, out, _ = run(capsys, "sums", _coeffs_spec(kind, d), str(n_max), "--json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "spec",
    ["x^7", "x^3y^9", _coeffs_spec("dense", 13), _coeffs_spec("rational", 13)],
    ids=["x^7", "x^3y^9", "dense13", "rational13"],
)
def test_sums_builds_each_matrix_once(monkeypatch, capsys, spec):
    calls = Counter()
    for name in ("phi_matrix", "sym_quotient"):
        original = getattr(forms, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for owner in (forms, stern, cli_mod):
            if owner.__dict__.get(name) is original:
                monkeypatch.setattr(owner, name, counted)
    code, _, _ = run(capsys, "sums", spec, "40")
    assert code == EXIT_OK
    assert calls == {"phi_matrix": 1, "sym_quotient": 1}


# -- phi -----------------------------------------------------------------------


def test_phi_text(capsys):
    code, out, _ = run(capsys, "phi", "3")
    assert code == EXIT_OK
    assert out.splitlines() == ["2 1 1 1", "3 2 2 3", "3 2 2 3", "1 1 1 2"]
    code, out, _ = run(capsys, "phi", "3", "--sym")
    assert out.splitlines() == ["3 2", "6 4"]
    code, out, _ = run(capsys, "phi", "0")
    assert out.strip() == "2"


def _no_matrix(*args, **kwargs):
    raise AssertionError("a matrix was built past the cap")


def test_phi_degree_cap(monkeypatch, capsys):
    monkeypatch.setattr(cli_mod, "phi_matrix", _no_matrix)
    monkeypatch.setattr(cli_mod, "sym_quotient", _no_matrix)
    for extra in ([], ["--sym"], ["--json"]):
        code, out, err = run(capsys, "phi", str(PHI_MAX_DEGREE + 1), *extra)
        assert code == EXIT_RESOURCE and out == ""
        assert f"PHI_MAX_DEGREE={PHI_MAX_DEGREE}" in err


def test_phi_json(capsys):
    code, out, _ = run(capsys, "phi", "2", "--json")
    doc = json.loads(out)
    assert doc["results"]["matrix"] == [
        ["2", "1", "1"],
        ["2", "2", "2"],
        ["1", "1", "2"],
    ]


# -- verify ----------------------------------------------------------------------


def test_verify_single_degree(capsys):
    code, out, _ = run(capsys, "verify", "3", "3")
    assert code == EXIT_OK
    assert "pred 2 geo 2 alg 2" in out
    assert "all checks passed" in out


def test_verify_json_payload(capsys):
    code, out, _ = run(capsys, "verify", "2", "3", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["results"]["all_passed"] is True
    reports = doc["results"]["reports"]
    assert [rep["r"] for rep in reports] == ["2", "3"]
    rep3 = reports[1]
    assert rep3["multiplicities"]["m_phi_0"]["predicted"] == "2"
    assert rep3["passed"] is True


def test_verify_degree_cap(monkeypatch, capsys):
    monkeypatch.setattr(cli_mod, "verify_range", _no_matrix)
    monkeypatch.setattr(spectra, "spectral_context", _no_matrix)
    for r_min in (1, VERIFY_MAX_DEGREE + 1):
        code, out, err = run(capsys, "verify", str(r_min), str(VERIFY_MAX_DEGREE + 1))
        assert code == EXIT_RESOURCE and out == ""
        assert f"VERIFY_MAX_DEGREE={VERIFY_MAX_DEGREE}" in err


def test_verify_residue_count_mismatch_is_a_failed_check(monkeypatch, capsys):
    # a residue count that disagrees with dim W is reported, not raised
    real = spectra.odd_case_dims

    def miscounted(ctx):
        dims = real(ctx)
        return {**dims, "count": dims["count"] + 1}

    monkeypatch.setattr(spectra, "odd_case_dims", miscounted)
    code, out, _ = run(capsys, "verify", "3", "3")
    assert code == EXIT_VERIFICATION_FAILED
    assert "FAIL" in out and "CHECKS FAILED" in out
    code, out, _ = run(capsys, "verify", "3", "3", "--json")
    assert code == EXIT_VERIFICATION_FAILED
    rep3 = json.loads(out)["results"]["reports"][0]
    assert rep3["dims"]["dim_W"]["residue_count"] == "3"
    assert rep3["passed"] is False


def test_verify_bad_range(capsys):
    code, _, err = run(capsys, "verify", "5", "4")
    assert code == EXIT_USAGE
    assert "range" in err


# -- mine ----------------------------------------------------------------------


def test_mine_r3(capsys):
    code, out, _ = run(capsys, "mine", "3")
    assert code == EXIT_OK
    assert "l=1, a=[7], n0=2" in out
    assert "bound 1: PASS" in out


def test_mine_r1(capsys):
    code, out, _ = run(capsys, "mine", "1")
    assert code == EXIT_OK
    assert "a=[3]" in out


def test_mine_affine(capsys):
    code, out, _ = run(capsys, "mine", "2", "--affine")
    assert code == EXIT_OK
    assert "affine" in out
    assert "bound 2: PASS" in out


def test_mine_json(capsys):
    code, out, _ = run(capsys, "mine", "3", "--json")
    doc = json.loads(out)
    assert doc["results"]["all_within_bounds"] is True
    recs = doc["results"]["results"]
    assert all(r["recurrence"]["coefficients"] == ["7"] for r in recs)


def test_mine_bad_terms(capsys):
    code, _, err = run(capsys, "mine", "3", "--terms", "4")
    assert code == EXIT_USAGE


def test_mine_degree_cap(capsys):
    # at the cap the degree passes to the miner, which here rejects the
    # horizon; one past it the cap stops the call before any work
    code, _, err = run(capsys, "mine", str(MINE_MAX_DEGREE), "--terms", "1")
    assert code == EXIT_USAGE
    assert "required horizon" in err
    code, out, err = run(capsys, "mine", str(MINE_MAX_DEGREE + 1), "--affine")
    assert code == EXIT_RESOURCE and out == ""
    assert f"MINE_MAX_DEGREE={MINE_MAX_DEGREE}" in err


def test_mine_terms_cap(capsys):
    code, out, _ = run(capsys, "mine", "1", "--terms", str(MINE_MAX_TERMS), "--json")
    assert code == EXIT_OK
    assert json.loads(out)["parameters"]["terms"] == str(MINE_MAX_TERMS)
    code, out, err = run(capsys, "mine", "1", "--terms", str(MINE_MAX_TERMS + 1))
    assert code == EXIT_RESOURCE and out == ""
    assert f"MINE_MAX_TERMS={MINE_MAX_TERMS}" in err


BENCH_DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def test_mine_affine_json_matches_the_recorded_digests(capsys):
    # sha256 of the stdout of `mine r --affine --json`, r = 1..24, as the
    # benchmark's mine-band workload recorded it
    recorded = json.loads(BENCH_DIGESTS.read_text())["mine-band"]
    assert sorted(recorded, key=int) == [str(r) for r in range(1, 25)]
    for r in range(1, 25):
        code, out, err = run(capsys, "mine", str(r), "--affine", "--json")
        assert code == EXIT_OK and err == "", r
        assert hashlib.sha256(out.encode()).hexdigest() == recorded[str(r)], r


def test_verify_json_matches_the_recorded_digests(capsys):
    # sha256 of the stdout of `verify r r --json`, r = 41..50, as the
    # benchmark's verify-band workload recorded it
    recorded = json.loads(BENCH_DIGESTS.read_text())["verify-band"]
    assert sorted(recorded, key=int) == [str(r) for r in range(41, 51)]
    for r in range(41, 51):
        code, out, err = run(capsys, "verify", str(r), str(r), "--json")
        assert code == EXIT_OK and err == "", r
        assert hashlib.sha256(out.encode()).hexdigest() == recorded[str(r)], r


def test_mine_arithmetic_error_exits_1_naming_the_degree(monkeypatch, capsys):
    # a mined recurrence that fails its exact check on the window
    with monkeypatch.context() as patch:
        patch.setattr(recurrences, "verify_recurrence", lambda seq, rec: False)
        code, out, err = run(capsys, "mine", "4", "--json")
    assert code == EXIT_VERIFICATION_FAILED and out == ""
    assert "r=4" in err and "Berlekamp-Massey" in err

    # a division that must be exact is not
    def inexact(p, q, k):
        raise InexactDivisionError(f"({p}) is not divisible by ({q})")

    monkeypatch.setattr(recurrences, "divide_out", inexact)
    code, out, err = run(capsys, "mine", "5", "--affine")
    assert code == EXIT_VERIFICATION_FAILED and out == ""
    assert "r=5" in err and "not divisible" in err


def test_broken_pipe_is_not_an_error(monkeypatch):
    import sternsums.cli as cli_mod

    def explode(*args, **kwargs):
        raise BrokenPipeError

    # shadow print inside the cli module only, and stub the devnull redirect
    # (patching os.dup2 itself would break pytest's capture suspension)
    monkeypatch.setattr(cli_mod, "print", explode, raising=False)
    parked = []
    monkeypatch.setattr(cli_mod, "_park_stdout_on_devnull", lambda: parked.append(1))
    assert main(["row", "4"]) == EXIT_OK
    assert parked == [1]


def test_only_main_reports_a_failure():
    # commands raise; main alone prints `error: ...` and picks the exit code
    tree = ast.parse(Path(cli_mod.__file__).read_text())
    funcs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    writers = [
        fn.name
        for fn in funcs
        for node in ast.walk(fn)
        if isinstance(node, ast.keyword) and node.arg == "file"
    ]
    assert writers == ["main"]
    caught = {
        ast.unparse(handler.type)
        for fn in funcs
        if fn.name.startswith("cmd_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Try)
        for handler in node.handlers
    }
    assert caught == {"ArithmeticError"}


def test_only_main_writes_output():
    # commands return their report; main alone renders it, and emit_json is
    # the JSON writer that main calls
    tree = ast.parse(Path(cli_mod.__file__).read_text())
    calls = {
        (fn.name, node.func.id)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"print", "emit_json", "report_document"}
    }
    assert calls == {
        ("main", "print"),
        ("main", "emit_json"),
        ("main", "report_document"),
        ("emit_json", "print"),
    }


# -- determinism ------------------------------------------------------------------


def test_json_output_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "1", "4", "--json")
    _, out2, _ = run(capsys, "verify", "1", "4", "--json")
    assert out1 == out2
    _, m1, _ = run(capsys, "mine", "2", "--affine", "--json")
    _, m2, _ = run(capsys, "mine", "2", "--affine", "--json")
    assert m1 == m2

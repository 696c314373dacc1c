"""Command-line interface: output shapes, exit codes, and determinism."""

import ast
import hashlib
import json
import re
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import sternsums.cli as cli_mod
import sternsums.forms as forms
import sternsums.linalg as linalg
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
    SUMS_MAX_DIRECT_WORK,
    SUMS_MAX_TERMS,
    VERIFY_MAX_DEGREE,
    encode_rational,
    main,
    parse_fspec,
)
from sternsums.forms import HomogPoly, sym_quotient
from sternsums.linalg import InexactDivisionError
from sternsums.stern import power_sum_sequence, power_sum_table


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


def test_decimal_encoding_matches_int_and_fraction():
    # `sums` renders its transfer route from integral Decimals
    with localcontext(cli_mod._EXACT):
        for s in (0, 1, -7, 3 * 7**20, -(10**4300 - 1)):
            for d in (1, 2, 6, 7):
                q = s if d == 1 else cli_mod._decimal_quotient(Decimal(s), d)
                assert encode_rational(q) == str(Fraction(s, d)), (s, d)
        zero = -1 * Decimal(0)
        assert str(zero) == "-0" and encode_rational(zero) == "0"
        with pytest.raises(ValueError) as refusal:
            str(10**4300)
        with pytest.raises(ValueError, match=f"^{re.escape(str(refusal.value))}$"):
            encode_rational(Decimal(-(10**4300)))
        with pytest.raises(ValueError, match=f"^{re.escape(str(refusal.value))}$"):
            encode_rational(cli_mod._decimal_quotient(Decimal(10**4300 + 1), 3))


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


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    # a usage error or --help on the kept parser leaves it as it was
    calls = []
    real = cli_mod.build_parser
    monkeypatch.setattr(cli_mod, "build_parser", lambda: calls.append(1) or real())
    cli_mod._parser.cache_clear()
    outputs = []
    try:
        for _ in range(2):
            outputs.append(run(capsys, "row", "3"))
            for argv in (["verify", "--help"], ["sums", "x", "3", "--cap", "2"]):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                outputs.append((exc.value.code, *capsys.readouterr()))
    finally:
        cli_mod._parser.cache_clear()
    assert calls == [1]
    assert outputs[:3] == outputs[3:]
    assert [code for code, _, _ in outputs[:3]] == [EXIT_OK, 0, EXIT_USAGE]


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


def _row_refusal(n):
    return f"error: row index {n} is outside the valid range 1 <= n <= DEFAULT_ROW_CAP=20\n"


def test_row_exit_codes(monkeypatch, capsys):
    # below 1 a usage error and past the cap a resource limit, in one
    # message, and either before any row
    _block_rows(monkeypatch)
    for n in (-2, 0):
        assert run(capsys, "row", str(n)) == (EXIT_USAGE, "", _row_refusal(n))
    for n in (DEFAULT_ROW_CAP + 1, 24, 99):
        assert run(capsys, "row", str(n)) == (EXIT_RESOURCE, "", _row_refusal(n))


def _no_rows(*args, **kwargs):
    raise AssertionError("a row was built past the cap")


def _block_rows(monkeypatch):
    # every row past row 1, and every segment of the direct route past
    # seg_2, is built by stern._expand
    monkeypatch.setattr(stern, "_expand", _no_rows)
    monkeypatch.setattr(cli_mod, "_transfer_sums", _no_rows)


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


def test_sums_both_agree_at_the_dearest_direct_shapes(capsys):
    # the dearest shapes SUMS_MAX_DIRECT_WORK admits, run on both routes
    dense = "coeffs=[" + ",".join(["1"] * 101) + "]"
    for spec, n in (("x^50*y^50", DEFAULT_ROW_CAP), ("x^100", DEFAULT_ROW_CAP), (dense, 13)):
        code, out, err = run(capsys, "sums", spec, str(n), "--both")
        assert code == EXIT_OK and err == "", spec
        assert out.endswith(" (paths agree)\n"), spec


def test_sums_default_fast(capsys):
    code, out, _ = run(capsys, "sums", "x^2y", "4")
    assert code == EXIT_OK and out.strip() == "0 2 14 98"
    code, out, _ = run(capsys, "sums", "y^0x^1", "3")
    assert out.strip() == "1 3 9"


def test_sums_direct_respects_cap(capsys):
    past = str(DEFAULT_ROW_CAP + 1)
    code, _, err = run(capsys, "sums", "x^2", past, "--both")
    assert code == EXIT_RESOURCE
    assert f"DEFAULT_ROW_CAP={DEFAULT_ROW_CAP}" in err
    code, _, _ = run(capsys, "sums", "x^2", past, "--fast")
    assert code == EXIT_OK


def test_sums_past_row_cap_exits_before_any_row(monkeypatch, capsys):
    _block_rows(monkeypatch)
    for n in (DEFAULT_ROW_CAP + 1, 24, 30):
        for mode in ("--both", "--direct"):
            assert run(capsys, "sums", "x", str(n), mode) == (EXIT_RESOURCE, "", _row_refusal(n))
    # the zero form does no work, so only the row cap stops it
    assert run(capsys, "sums", "coeffs=[0]", "21", "--direct") == (
        EXIT_RESOURCE, "", _row_refusal(21)
    )


def test_sums_json_and_csv(capsys):
    code, out, _ = run(capsys, "sums", "x^3", "3", "--json", "--both")
    doc = json.loads(out)
    assert doc["results"]["values"] == ["1", "3", "21"]
    assert doc["results"]["paths_agree"] is True
    code, out, _ = run(capsys, "sums", "x^3", "3", "--format", "csv")
    assert out.splitlines() == ["n,value", "1,1", "2,3", "3,21"]


def _skewed_images(monkeypatch):
    """Make every Berlekamp-Massey image of the lift wrong: w_1 moved by one."""
    real = stern._berlekamp_massey_mod

    def skewed(seq, p):
        image = real(seq, p)
        return [(image[0] + 1) % p, *image[1:]]

    monkeypatch.setattr(stern, "_berlekamp_massey_mod", skewed)


def test_sums_exits_1_naming_the_degree_when_the_certificate_fails(monkeypatch, capsys):
    # an image that is wrong mod the one prime walked is never certified,
    # so no recurrence extends the sums
    def one_prime():
        yield spectra._CERTIFICATE_PRIME

    monkeypatch.setattr(stern, "_primes_below_2_30", one_prime)
    _skewed_images(monkeypatch)
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
    monkeypatch.setattr(cli_mod, "_transfer_sums", _no_form)
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
    monkeypatch.setattr(cli_mod, "_transfer_sums", _no_sums)
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
        # below 1 it is a usage error
        for n_max in ("0", "-3"):
            code, out, err = run(capsys, "sums", "x", n_max, mode)
            assert (code, out, err) == (EXIT_USAGE, "", "error: n_max must be at least 1\n")


def test_sums_direct_work_cap(monkeypatch, capsys):
    # work is nonzero terms times the 2^(n+1) - 2 pairs of rows 1..n; past
    # the row cap the row cap speaks, before any row
    dense = "coeffs=[" + ",".join(["1"] * 101) + "]"
    _block_rows(monkeypatch)
    code, _, err = run(capsys, "sums", dense, str(DEFAULT_ROW_CAP + 1), "--direct")
    assert code == EXIT_RESOURCE and f"DEFAULT_ROW_CAP={DEFAULT_ROW_CAP}" in err
    reached = []

    def stub(f, n):
        reached.append((f.degree, n))
        return [0] * n

    monkeypatch.setattr(cli_mod, "power_sum_direct_sequence", stub)
    monkeypatch.setattr(cli_mod, "_transfer_sums", lambda f, n, num: (stub(f, n), 1))
    dense10 = "coeffs=[" + ",".join(["3"] * 11) + "]"
    # a monomial reaches the row cap (x^50 y^50 is the dearest shape
    # admitted), a dense degree-100 form n = 13, and a dense degree-10 form
    # n = 16, the largest --both shape of the benchmark
    cap = DEFAULT_ROW_CAP
    admitted = [("x^100", cap), ("x^50*y^50", cap), (dense, 13), (dense10, 16)]
    for spec, n in admitted:
        for mode in ("--direct", "--both"):
            code, _, err = run(capsys, "sums", spec, str(n), mode)
            assert code == EXIT_OK and err == "", (spec, n)
    assert [n for _, n in reached] == [20] * 6 + [13] * 3 + [16] * 3
    reached.clear()
    for spec, n in ((dense, 14), (dense10, 18)):
        work = (spec.count(",") + 1) * (2 ** (n + 1) - 2)
        assert work > SUMS_MAX_DIRECT_WORK
        for mode in ("--direct", "--both"):
            code, out, err = run(capsys, "sums", spec, str(n), mode)
            assert code == EXIT_RESOURCE and out == ""
            assert err == (
                f"error: direct-route work {work} is above the cap "
                f"SUMS_MAX_DIRECT_WORK={SUMS_MAX_DIRECT_WORK}\n"
            )
        assert run(capsys, "sums", spec, str(n), "--fast")[0] == EXIT_OK
    # zero coefficients do no work
    sparse = "coeffs=[" + ",".join(["0"] * 100) + ",1]"
    assert run(capsys, "sums", sparse, "20", "--direct")[0] == EXIT_OK
    assert reached == [(100, 14), (10, 18), (100, 20)]


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


def _expected_output(spec: str, n_max: int, fmt: str, values=None) -> str:
    """What `sums spec n_max` prints in fmt: power_sum_sequence rendered by
    str, the oracle of the command's own rendering."""
    if values is None:
        values = power_sum_sequence(parse_fspec(spec), n_max)
    texts = [str(v) for v in values]
    if fmt == "json":
        params = {"f": spec, "n_max": str(n_max), "mode": "fast"}
        doc = {
            "schema_version": "1",
            "command": "sums",
            "parameters": params,
            "results": {"values": texts, "mode": "fast"},
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        return "".join(f"{line}\n" for line in ["n,value", *map("{},{}".format, range(1, n_max + 1), texts)])
    return " ".join(texts) + "\n"


FORMAT_ARGS = {"json": ["--json"], "text": [], "csv": ["--format", "csv"]}


def _rendering_grid() -> list:
    """(spec, n_max): monomials on both sides of the middle, dense forms with
    mixed signs and rational forms at odd and even r, forms whose sums all
    vanish, and r = 0, each at n_max = 2m, 2m + 1 and 300."""
    specs = ["coeffs=[5]", "coeffs=[-3/4]", "coeffs=[1,0,-1]", "coeffs=[2,0,0,-2]"]
    for r in (1, 2, 7, 12, 21, 40):
        specs += [f"x^{r}", f"y^{r}", f"x^{r // 3}y^{r - r // 3}", f"x^{(r + 1) // 2}y^{r // 2}"]
        specs += [_coeffs_spec("dense", r), _coeffs_spec("rational", r)]
    grid = []
    for spec in specs:
        m = (parse_fspec(spec).degree + 2) // 2
        grid += [(spec, n) for n in (2 * m, 2 * m + 1, 300)]
    return grid


def test_sums_renders_what_power_sum_sequence_computes(capsys):
    for spec, n_max in _rendering_grid():
        for fmt, extra in FORMAT_ARGS.items():
            code, out, err = run(capsys, "sums", spec, str(n_max), *extra)
            assert (code, err) == (EXIT_OK, ""), (spec, n_max, fmt)
            assert out == _expected_output(spec, n_max, fmt), (spec, n_max, fmt)
    # sums that all vanish print as 0, never as -0
    code, out, _ = run(capsys, "sums", "coeffs=[1,0,-1]", "300")
    assert out.split() == ["0"] * 300


def test_sums_past_the_digit_limit_exits_2_as_str_refuses(capsys):
    limit = sys.get_int_max_str_digits()
    assert limit  # the interpreter's default, 4300
    with pytest.raises(ValueError) as refusal:
        str(10**limit)
    message = f"error: {refusal.value}\n"
    values = power_sum_sequence(HomogPoly.monomial(40, 40), 600)
    printable = []
    for v in values:
        try:
            printable.append(str(v))
        except ValueError:
            break
    assert 0 < len(printable) < 600
    for fmt, extra in FORMAT_ARGS.items():
        code, out, err = run(capsys, "sums", "x^40", "600", *extra)
        assert (code, err) == (EXIT_USAGE, message), fmt
        if fmt == "csv":
            # rows print until the first value past the limit
            lines = ["n,value", *map("{},{}".format, range(1, len(printable) + 1), printable)]
            assert out == "".join(f"{line}\n" for line in lines)
        else:
            assert out == ""
    sys.set_int_max_str_digits(0)
    try:
        for spec, n_max in (("x^40", 600), ("x^100", 300), (_coeffs_spec("rational", 12), 800)):
            expected = power_sum_sequence(parse_fspec(spec), n_max)
            for fmt, extra in FORMAT_ARGS.items():
                code, out, err = run(capsys, "sums", spec, str(n_max), *extra)
                assert (code, err) == (EXIT_OK, "")
                assert out == _expected_output(spec, n_max, fmt, expected)
    finally:
        sys.set_int_max_str_digits(limit)


def _no_charpoly(*args, **kwargs):
    raise AssertionError("sums computed a characteristic polynomial")


def test_sums_computes_no_charpoly(monkeypatch, capsys):
    for owner, name in (
        (linalg, "charpoly"),
        (linalg, "_berkowitz"),
        (linalg, "_charpoly_mod"),
        (recurrences, "charpoly"),
        (recurrences, "annihilator_recurrence"),
    ):
        monkeypatch.setattr(owner, name, _no_charpoly)
    for spec in ("x^40", "x^7y^30", _coeffs_spec("dense", 33), _coeffs_spec("rational", 20)):
        for extra in (["--json"], ["--both"]):
            code, _, err = run(capsys, "sums", spec, "300" if extra == ["--json"] else "12", *extra)
            assert (code, err) == (EXIT_OK, ""), (spec, extra)


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
    # a negative degree passes the cap, and phi_matrix and sym_quotient refuse it
    for extra in ([], ["--sym"], ["--json"]):
        code, out, err = run(capsys, "phi", "-1", *extra)
        assert (code, out, err) == (EXIT_USAGE, "", "error: degree must be nonnegative\n")
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
    # raised from 130 once the multiplicities were certified mod p, and
    # from 190 once the twist halves were; cli.py and README give the
    # timings behind it
    assert VERIFY_MAX_DEGREE == 350
    monkeypatch.setattr(cli_mod, "verify_range", _no_matrix)
    monkeypatch.setattr(spectra, "spectral_context", _no_matrix)
    for r_min in (1, VERIFY_MAX_DEGREE + 1):
        code, out, err = run(capsys, "verify", str(r_min), str(VERIFY_MAX_DEGREE + 1))
        assert code == EXIT_RESOURCE and out == ""
        assert f"VERIFY_MAX_DEGREE={VERIFY_MAX_DEGREE}" in err


# the text of `verify 1 6`, line for line: each eigenvalue's one pinned count
# is written as both geo and alg
VERIFY_1_6_TEXT = [
    "r=  1 odd  | m_phi_0 pred 0 geo 0 alg 0 =; m_phi_sym_0 pred 0 geo 0 alg 0 = | PASS",
    (
        "r=  2 even | m_phi_plus1 pred 1 geo 1 alg 1 =; "
        "m_phi_minus1 pred 0 geo 0 alg 0 =; "
        "m_phi_sym_plus1 pred 0 geo 0 alg 0 =; "
        "m_phi_sym_minus1 pred 0 geo 0 alg 0 = | PASS"
    ),
    "r=  3 odd  | m_phi_0 pred 2 geo 2 alg 2 =; m_phi_sym_0 pred 1 geo 1 alg 1 = | PASS",
    (
        "r=  4 even | m_phi_plus1 pred 1 geo 1 alg 1 =; "
        "m_phi_minus1 pred 2 geo 2 alg 2 =; "
        "m_phi_sym_plus1 pred 0 geo 0 alg 0 =; "
        "m_phi_sym_minus1 pred 1 geo 1 alg 1 = | PASS"
    ),
    "r=  5 odd  | m_phi_0 pred 2 geo 2 alg 2 =; m_phi_sym_0 pred 1 geo 1 alg 1 = | PASS",
    (
        "r=  6 even | m_phi_plus1 pred 1 geo 1 alg 1 =; "
        "m_phi_minus1 pred 0 geo 0 alg 0 =; "
        "m_phi_sym_plus1 pred 0 geo 0 alg 0 =; "
        "m_phi_sym_minus1 pred 0 geo 0 alg 0 = | PASS"
    ),
    "all checks passed for r in [1, 6]",
]


def test_verify_text_matches_the_recorded_lines(capsys):
    code, out, err = run(capsys, "verify", "1", "6")
    assert code == EXIT_OK and err == ""
    assert out.splitlines() == VERIFY_1_6_TEXT
    assert out.endswith("\n") and out.count("\n") == len(VERIFY_1_6_TEXT)


@pytest.mark.parametrize("r", [3, 4])
def test_verify_failed_symmetry_identity_is_a_failed_check(monkeypatch, capsys, r):
    # the one diagonalizability witness a report can fail; the other is the
    # certificate, which raises before a report exists
    monkeypatch.setattr(spectra, "check_diagonalizability", lambda ctx: False)
    code, out, _ = run(capsys, "verify", str(r), str(r))
    assert code == EXIT_VERIFICATION_FAILED
    assert "| FAIL" in out and "CHECKS FAILED" in out
    code, out, _ = run(capsys, "verify", str(r), str(r), "--json")
    assert code == EXIT_VERIFICATION_FAILED
    doc = json.loads(out)["results"]
    assert doc["reports"][0]["symmetry_identity"] is False
    assert doc["reports"][0]["passed"] is False and doc["all_passed"] is False


def test_verify_residue_count_mismatch_is_a_failed_check(monkeypatch, capsys):
    # a residue count that disagrees with dim W is reported, not raised
    real = spectra.odd_case_dims

    def miscounted(ctx):
        dims = real(ctx)
        dims["dim_W"]["residue_count"] += 1
        return dims

    monkeypatch.setattr(spectra, "odd_case_dims", miscounted)
    code, out, _ = run(capsys, "verify", "3", "3")
    assert code == EXIT_VERIFICATION_FAILED
    assert "FAIL" in out and "CHECKS FAILED" in out
    code, out, _ = run(capsys, "verify", "3", "3", "--json")
    assert code == EXIT_VERIFICATION_FAILED
    rep3 = json.loads(out)["results"]["reports"][0]
    assert rep3["dims"]["dim_W"]["residue_count"] == "3"
    assert rep3["passed"] is False


def test_verify_dim_below_its_bound_is_a_failed_check(monkeypatch, capsys):
    # an even degree's intersection dims are held against lower bounds only
    real = spectra.eigenspace_dims

    def short(ctx):
        dims = real(ctx)
        dims["dim_X_cap_Y_plus"]["computed"] -= 1
        return dims

    monkeypatch.setattr(spectra, "eigenspace_dims", short)
    code, out, _ = run(capsys, "verify", "4", "4")
    assert code == EXIT_VERIFICATION_FAILED
    assert "| FAIL" in out and "CHECKS FAILED" in out
    code, out, _ = run(capsys, "verify", "4", "4", "--json")
    assert code == EXIT_VERIFICATION_FAILED
    doc = json.loads(out)["results"]
    assert doc["reports"][0]["dims"]["dim_X_cap_Y_plus"] == {"bound": "2", "computed": "1"}
    assert doc["reports"][0]["passed"] is False and doc["all_passed"] is False


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
    code, out, err = run(capsys, "mine", "2", "--terms", "3")
    assert code == EXIT_USAGE and out == ""
    assert err == (
        "error: a horizon of 3 terms is below the required horizon of 16 for degree 2\n"
    )


def test_mine_degree_cap(capsys):
    # at the cap the degree passes to the miner, which here rejects the
    # horizon; one past it the cap stops the call before any work, and
    # below 1 it is a usage error
    code, _, err = run(capsys, "mine", str(MINE_MAX_DEGREE), "--terms", "1")
    assert code == EXIT_USAGE
    assert "required horizon" in err
    code, out, err = run(capsys, "mine", str(MINE_MAX_DEGREE + 1), "--affine")
    assert code == EXIT_RESOURCE and out == ""
    assert f"MINE_MAX_DEGREE={MINE_MAX_DEGREE}" in err
    code, out, err = run(capsys, "mine", "0")
    assert (code, out, err) == (EXIT_USAGE, "", "error: degree must be at least 1\n")


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
    # images wrong mod every prime: no lifted candidate passes its exact
    # check on the window, and the degree's one lift, of the classes'
    # suffixes weighted by 1, 2, 3 in table order, stops at its budget of
    # primes
    real_walk, taken = stern._primes_below_2_30, []

    def walk():
        for p in real_walk():
            taken.append(p)
            yield p

    with monkeypatch.context() as patch:
        _skewed_images(patch)
        patch.setattr(stern, "_primes_below_2_30", walk)
        code, out, err = run(capsys, "mine", "4", "--json")
    assert code == EXIT_VERIFICATION_FAILED and out == ""
    assert err.startswith("error: r=4: mining failed: r=4: ") and "certificate" in err
    n_terms = 2 * recurrences.corollary_bound(4) + 8
    table = power_sum_table(4, n_terms, sym_quotient(4))
    weighted = [sum(i * seq[k] for i, seq in enumerate(table, 1)) for k in range(1, n_terms)]
    budget = stern._prime_budget(weighted, recurrences._certifiable_max_length(n_terms, 2, 0))
    assert len(taken) == budget == 19

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

"""Command-line interface with machine-readable output.

Subcommands: row, sums, phi, verify, mine.  Every command accepts --json and
emits a ReportDocument: a JSON object with schema_version, command,
parameters, and a command-specific results payload in which every integer
and rational is rendered as a decimal string (rationals as "p/q" in lowest
terms, integers without the "/1").  Output is deterministic: key order is
fixed.

Exit codes: 0 success (and, for verify/mine, every check passed);
1 a verified bound or equality failed, an exact certificate or identity
failed, or the two routes of `sums --both` disagree; 2 usage or input error;
3 resource limit (a row index, a degree, a term count or the direct route's
work past the caps below).  Commands return,
and `main` alone renders and reports.  A command returns the parameters and
results of its JSON report, its text or CSV lines as a lazy iterable (so a
JSON query renders no text), and its exit code.  A command that fails
raises, and `main` writes `error: <message>` on stderr and exits with the
code of the exception's kind.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    localcontext,
)
from fractions import Fraction

from .forms import HomogPoly, phi_matrix, sym_quotient
from .recurrences import mine_all_monomials
from .spectra import verify_range
from .stern import _transfer_sums, power_sum_direct_sequence, stern_row

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# Cost caps on `mine`; past either one it exits EXIT_RESOURCE.  At degree
# 100 most of its time is the exact checks of each class's homogeneous,
# affine and annihilator recurrences on the window, and the Berkowitz
# charpoly behind the annihilator; the degree's one modular lift and the
# classes' gcds take about a tenth.  The degree cap keeps the top degree
# no dearer than `mine 60 --affine` was while every class iterated the full
# transfer matrix on its own, and the term cap keeps a run at both caps
# within about the same time.  README's command-line section has the
# timings behind every cap in this block.
MINE_MAX_DEGREE = 100
MINE_MAX_TERMS = 200
# Degree caps on `phi` and `verify`; past either one the command exits
# EXIT_RESOURCE.  `phi` stops where its text output is still a few MB and
# under a second; its size grows as the cube of the degree.  The verify cap
# rises only to a degree no dearer than its top degree was before the last
# speed-up.  `verify r r --json` in a fresh process on one core of a 2-core
# Xeon costs most at even r, where the charpolys mod p, the twist halves
# mod p, the annihilation products and the exact ranks of the halves'
# parities share the cost.  With every modular step mod a prime below 2^30,
# 350 takes 4.2 s (median of 5 runs, 3.8 to 5.1 s), against 6.0 s (4.7 to
# 6.6 s) mod 2^31 - 1 in alternation with them; mod 2^31 - 1 on a quieter
# host it took 4.4 s at 340, 4.2 s at 350 and 5.2 s at 360, and 3.0 to
# 4.2 s at the odd 351.
PHI_MAX_DEGREE = 400
VERIFY_MAX_DEGREE = 350
# Caps on `sums`: the form's degree and n_max; past either one it exits
# EXIT_RESOURCE.  At both caps the transfer route costs most in the
# recurrence's multiply-adds on values of up to about 17 000 digits: a
# dense degree-100 form over 800 terms takes 1.2 to 1.4 s in a fresh
# process on one core of a 2-core Xeon, 0.2 s of it the 102 quotient steps
# of the head and 0.05 s the recurrence's lift.  A higher term cap would
# only admit more outputs past the 4300 digits that Python renders.
SUMS_MAX_DEGREE = 100
SUMS_MAX_TERMS = 800
# Cap on the direct route's work (`sums --direct` and `--both`): the form's
# nonzero terms times the 2^(n_max+1) - 2 consecutive pairs of rows
# 1..n_max.  The route walks only the segment of 2^(n-2) pairs that row n
# adds to row n-1 (stern.power_sum_direct_sequence), so the unit counts
# about 4 times the pairs it evaluates; it does not weigh the degree, and
# memory is set by the last segment, not the row.  Medians of 11 fresh
# `--direct --json` runs on one core of a 2-core Xeon: the dearest shape it
# admits, x^50*y^50 over rows 1..20, takes 0.51 s and 32 MB (0.59 s and
# 71 MB when full rows were built), x^100 there 0.30 s and 32 MB (0.46 s,
# 71 MB); dense forms of degree 100 and 10 stop at n_max = 13 and 16, in
# 0.16 to 0.23 s and 17 to 19 MB either way.
SUMS_MAX_DIRECT_WORK = 2**21
# Cap on the row index of `row` and on n_max of the direct route; past it
# the command exits EXIT_RESOURCE before it builds any row, and below 1 it
# exits EXIT_USAGE in the same words.  The library takes any n >= 1, and
# memory doubles per row: `row 20 --json` takes about 0.8 s and 210 MB,
# and `row 21 --json` 1.9 s and 410 MB, on one core of a 2-core Xeon.
DEFAULT_ROW_CAP = 20


# `sums` extends the transfer route in Decimal, whose str() takes linear
# time where that of int is quadratic.  Every operation on these integers
# is exact: one that would round raises instead.
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)


@dataclass(frozen=True)
class _DecimalFraction:
    """A non-integral rational whose numerator is an integral Decimal, in
    lowest terms with a positive denominator, as Fraction keeps it."""

    numerator: Decimal
    denominator: int


def _decimal_quotient(s: Decimal, d: int):
    """s / d for integral s and d > 0: a Decimal if d divides s, otherwise a
    _DecimalFraction.  Call under _EXACT."""
    g = math.gcd(int(s % d), d)
    return s // d if g == d else _DecimalFraction(s // g, d // g)


def encode_rational(x) -> str:
    """Decimal-string form: integers plain, non-integers as p/q in lowest terms.

    A Decimal must be integral with exponent 0, as `sums` makes them: it
    renders as the int it equals, and a _DecimalFraction as the Fraction it
    equals.  An integer with more digits than a nonzero
    sys.get_int_max_str_digits() raises the ValueError that str(int) raises,
    as a Decimal or not.
    """
    if isinstance(x, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Decimal):
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit and x.adjusted() >= limit:
            str(int(x))  # raises str(int)'s own refusal
        return str(x) if x else "0"  # never "-0"
    if isinstance(x, (Fraction, _DecimalFraction)):
        numerator = encode_rational(x.numerator)
        return numerator if x.denominator == 1 else f"{numerator}/{x.denominator}"
    raise TypeError(f"cannot encode {type(x).__name__} as a rational")


def encode_payload(value):
    """Recursively stringify every rational in a results payload."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, Fraction, Decimal, _DecimalFraction)):
        return encode_rational(value)
    if isinstance(value, dict):
        return {k: encode_payload(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_payload(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__} in a report")


def report_document(command: str, parameters: dict, results) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": {k: encode_payload(v) for k, v in parameters.items()},
        "results": encode_payload(results),
    }


def emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


class _CapExceeded(Exception):
    """An input past one of the cost caps; `main` exits EXIT_RESOURCE."""


def _check_cap(what: str, value: int, name: str, limit: int, cap: str = "cap") -> None:
    if value > limit:
        raise _CapExceeded(f"{what} {value} is above the {cap} {name}={limit}")


def _check_row_index(n: int) -> None:
    # a usage error below 1 and a resource limit past the cap, in one message
    if not 1 <= n <= DEFAULT_ROW_CAP:
        message = (
            f"row index {n} is outside the valid range 1 <= n <= "
            f"DEFAULT_ROW_CAP={DEFAULT_ROW_CAP}"
        )
        raise (ValueError if n < 1 else _CapExceeded)(message)


_FACTOR = re.compile(r"([xy])(?:\^(\d+))?")
# factors, each but the first optionally after one "*"
_MONOMIAL = re.compile(rf"{_FACTOR.pattern}(?:\*?{_FACTOR.pattern})*")


def _coefficient(entry: str) -> Fraction:
    # exponent notation would let a short entry cost seconds to parse
    if "e" in entry or "E" in entry:
        raise ValueError(
            f"coefficient {entry!r} is in exponent notation; write an integer, "
            f"p/q or a decimal"
        )
    try:
        return Fraction(entry)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {entry!r} has a zero denominator") from None


def parse_fspec(spec: str) -> HomogPoly:
    """Parse a form: a monomial token like x^2*y or x^2y, or coeffs=[...].

    coeffs=[c0,c1,...,cr] lists the coefficient of x^a y^(r-a) at index a;
    entries may be integers, fractions p/q or decimals.  A degree above
    SUMS_MAX_DEGREE is refused before any coefficient is built.
    """
    spec = spec.strip()
    if spec.startswith("coeffs="):
        body = spec[len("coeffs="):].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError("coeffs= expects a bracketed list, e.g. coeffs=[0,1,2]")
        if not body[1:-1].strip():
            raise ValueError("coefficient list is empty")
        items = [p.strip() for p in body[1:-1].split(",")]
        if "" in items:
            raise ValueError(f"coefficient list {spec!r} has an empty entry")
        _check_cap("degree", len(items) - 1, "SUMS_MAX_DEGREE", SUMS_MAX_DEGREE)
        return HomogPoly([_coefficient(p) for p in items])
    if not _MONOMIAL.fullmatch(spec):
        raise ValueError(
            f"cannot parse form {spec!r}; expected a monomial like x^2*y "
            f"or coeffs=[...]"
        )
    powers = {"x": 0, "y": 0}
    for var, exp in _FACTOR.findall(spec):
        powers[var] += int(exp) if exp else 1
    degree = powers["x"] + powers["y"]
    _check_cap("degree", degree, "SUMS_MAX_DEGREE", SUMS_MAX_DEGREE)
    return HomogPoly.monomial(powers["x"], degree)


# ---------------------------------------------------------------------------
# subcommands: each returns (parameters, results, lines, exit code)
# ---------------------------------------------------------------------------


def cmd_row(args):
    _check_row_index(args.n)
    row = stern_row(args.n)
    sep = "," if args.format == "csv" else " "
    lines = (sep.join(map(str, entries)) for entries in [row])
    parameters = {"n": args.n, "cap": DEFAULT_ROW_CAP}
    return parameters, {"entries": row}, lines, EXIT_OK


def _sums_lines(values, fmt, both):
    if fmt == "csv":
        yield "n,value"
        for n, v in enumerate(values, start=1):
            yield f"{n},{encode_rational(v)}"
    else:
        line = " ".join(map(encode_rational, values))
        yield line + " (paths agree)" if both else line


def cmd_sums(args):
    # n_max first: parse_fspec already refuses a degree past its cap, and
    # usage errors come before resource limits
    if args.n_max < 1:
        raise ValueError("n_max must be at least 1")
    f = parse_fspec(args.fspec)
    _check_cap("n_max", args.n_max, "SUMS_MAX_TERMS", SUMS_MAX_TERMS)
    mode = args.mode
    if mode != "fast":
        _check_row_index(args.n_max)
        work = sum(1 for c in f.coeffs if c) * (2 ** (args.n_max + 1) - 2)
        _check_cap("direct-route work", work, "SUMS_MAX_DIRECT_WORK", SUMS_MAX_DIRECT_WORK)
        values = power_sum_direct_sequence(f, args.n_max)
    if mode != "direct":
        # an ArithmeticError names r: no recurrence to extend the sums
        # passed its exact certificate
        with localcontext(_EXACT):
            sums, d = _transfer_sums(f, args.n_max, Decimal)
            if mode == "fast":
                values = sums if d == 1 else [_decimal_quotient(s, d) for s in sums]
            elif sums != [v * d for v in values]:
                raise ArithmeticError("direct and fast power sums disagree")
    results = {"values": values, "mode": mode}
    if mode == "both":
        results["paths_agree"] = True
    parameters = {"f": args.fspec, "n_max": args.n_max, "mode": mode}
    lines = _sums_lines(values, args.format, mode == "both")
    return parameters, results, lines, EXIT_OK


def cmd_phi(args):
    _check_cap("degree", args.r, "PHI_MAX_DEGREE", PHI_MAX_DEGREE)
    mat = sym_quotient(args.r) if args.sym else phi_matrix(args.r)
    lines = (" ".join(map(encode_rational, row)) for row in mat.rows)
    return {"r": args.r, "sym": args.sym}, {"matrix": mat.rows}, lines, EXIT_OK


def _verify_text_lines(reports, r_min, r_max, all_ok):
    for rep in reports:
        bits = []
        for key, chk in rep.multiplicities.items():
            flag = "=" if chk.equal else (">=" if chk.bound_holds else "VIOLATED")
            bits.append(
                f"{key} pred {chk.predicted} geo {chk.count} alg {chk.count} {flag}"
            )
        status = "PASS" if rep.passed else "FAIL"
        yield f"r={rep.r:>3} {rep.parity:<4} | " + "; ".join(bits) + f" | {status}"
    yield (
        f"{'all checks passed' if all_ok else 'CHECKS FAILED'} "
        f"for r in [{r_min}, {r_max}]"
    )


def cmd_verify(args):
    if not 1 <= args.r_min <= args.r_max:
        raise ValueError(
            f"range must satisfy 1 <= r_min <= r_max, got {args.r_min}..{args.r_max}"
        )
    _check_cap(
        "degree", args.r_max, "VERIFY_MAX_DEGREE", VERIFY_MAX_DEGREE, "verification cap"
    )
    # an ArithmeticError names r and its witness: a certificate the
    # verification rests on refused (the swap commutation, a twist half, an
    # annihilation identity or a block's multiplicities)
    reports = verify_range(args.r_min, args.r_max)
    all_ok = all(rep.passed for rep in reports)
    return (
        {"r_min": args.r_min, "r_max": args.r_max},
        {"reports": [rep.to_json_dict() for rep in reports], "all_passed": all_ok},
        _verify_text_lines(reports, args.r_min, args.r_max, all_ok),
        EXIT_OK if all_ok else EXIT_VERIFICATION_FAILED,
    )


def _mine_text_lines(results, r, affine):
    # every class shares the degree's bounds
    yield f"degree {r}: homogeneous length bound {results[0].bound}" + (
        f", affine-alternating bound {results[0].affine_bound}" if affine else ""
    )
    for res in results:
        rec = res.recurrence
        coeffs = ", ".join(encode_rational(c) for c in rec.coefficients)
        status = "PASS" if res.within_bound and res.annihilator_validates else "FAIL"
        line = (
            f"  {res.label}: l={rec.length}, a=[{coeffs}], n0={rec.n0}"
            f" (valid from n0={res.best_n0}); bound {res.bound}: {status}"
        )
        if res.affine is not None:
            arec = res.affine
            acoeffs = ", ".join(encode_rational(c) for c in arec.coefficients)
            line += (
                f"; affine l={arec.length}, a=[{acoeffs}], "
                f"b={encode_rational(arec.affine_b)}, "
                f"c={encode_rational(arec.alternating_c)}, "
                f"bound {res.affine_bound}: "
                + ("PASS" if res.affine_within_bound else "FAIL")
            )
        yield line


def cmd_mine(args):
    if args.r < 1:
        raise ValueError("degree must be at least 1")
    _check_cap("degree", args.r, "MINE_MAX_DEGREE", MINE_MAX_DEGREE, "mining cap")
    if args.terms is not None:
        _check_cap("--terms", args.terms, "MINE_MAX_TERMS", MINE_MAX_TERMS, "mining cap")
    try:
        results = mine_all_monomials(args.r, args.terms, include_affine=args.affine)
    except ArithmeticError as exc:
        # an exact check of the mining failed (the certificate of a mined
        # recurrence on its window, or an exact division)
        raise ArithmeticError(f"r={args.r}: mining failed: {exc}") from exc
    ok = all(res.within_bound and res.annihilator_validates for res in results)
    ok = ok and all(res.affine_within_bound is not False for res in results)
    return (
        {"r": args.r, "terms": args.terms, "affine": args.affine},
        {"results": [res.to_json_dict() for res in results], "all_within_bounds": ok},
        _mine_text_lines(results, args.r, args.affine),
        EXIT_OK if ok else EXIT_VERIFICATION_FAILED,
    )


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_format_args(sub, csv: bool = False):
    choices = ["text", "json"] + (["csv"] if csv else [])
    sub.add_argument(
        "--format", choices=choices, default="text", help="output format"
    )
    sub.add_argument(
        "--json",
        action="store_const",
        const="json",
        dest="format",
        help="shorthand for --format json",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sternsums",
        description=(
            "Exact computations on the Stern array: rows, power sums, "
            "transfer matrices, eigenvalue-multiplicity verification, and "
            "recurrence mining."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_row = sub.add_parser("row", help="print one row of the Stern array")
    p_row.add_argument(
        "n", type=int, help=f"row index (1-based, at most {DEFAULT_ROW_CAP})"
    )
    _add_format_args(p_row, csv=True)
    p_row.set_defaults(func=cmd_row)

    p_sums = sub.add_parser("sums", help="power sums S_1..S_n of a form")
    p_sums.add_argument(
        "fspec",
        help=(
            "form: monomial like x^3, x^2y, x^2*y, or coeffs=[c0,c1,...]; "
            f"degree at most {SUMS_MAX_DEGREE}"
        ),
    )
    p_sums.add_argument(
        "n_max", type=int, help=f"number of terms (at most {SUMS_MAX_TERMS})"
    )
    mode = p_sums.add_mutually_exclusive_group()
    mode.add_argument(
        "--direct", action="store_const", const="direct", dest="mode",
        help="brute-force summation over generated rows",
    )
    mode.add_argument(
        "--fast", action="store_const", const="fast", dest="mode",
        help="transfer-matrix iteration (default)",
    )
    mode.add_argument(
        "--both", action="store_const", const="both", dest="mode",
        help="run both and require exact agreement",
    )
    p_sums.set_defaults(mode="fast")
    _add_format_args(p_sums, csv=True)
    p_sums.set_defaults(func=cmd_sums)

    p_phi = sub.add_parser("phi", help="transfer matrix of degree r")
    p_phi.add_argument("r", type=int, help=f"degree (at most {PHI_MAX_DEGREE})")
    p_phi.add_argument(
        "--sym", action="store_true", help="matrix on the swap-symmetric quotient"
    )
    _add_format_args(p_phi)
    p_phi.set_defaults(func=cmd_phi)

    p_verify = sub.add_parser(
        "verify", help="verify multiplicity predictions over a degree range"
    )
    p_verify.add_argument("r_min", type=int, help="lowest degree (at least 1)")
    p_verify.add_argument(
        "r_max", type=int, help=f"highest degree (at most {VERIFY_MAX_DEGREE})"
    )
    _add_format_args(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_mine = sub.add_parser(
        "mine", help="mine minimal recurrences for degree-r power sums"
    )
    p_mine.add_argument("r", type=int, help=f"degree (at most {MINE_MAX_DEGREE})")
    p_mine.add_argument(
        "--terms",
        type=int,
        default=None,
        help=f"horizon length (default 2*bound+8, at most {MINE_MAX_TERMS})",
    )
    p_mine.add_argument(
        "--affine",
        action="store_true",
        help="also mine recurrences with b + c*(-1)^n terms",
    )
    _add_format_args(p_mine)
    p_mine.set_defaults(func=cmd_mine)

    return parser


def _park_stdout_on_devnull() -> None:
    # keeps interpreter shutdown quiet after a consumer closed the pipe
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and kept: building costs about
    # twenty times what parsing does
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        parameters, results, lines, code = args.func(args)
        if args.format == "json":
            emit_json(report_document(args.command, parameters, results))
        else:
            for line in lines:
                print(line)
        return code
    except BrokenPipeError:
        # the downstream consumer (head, less, ...) closed the pipe early
        _park_stdout_on_devnull()
        return EXIT_OK
    except (ValueError, _CapExceeded, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ValueError):
            return EXIT_USAGE
        return EXIT_RESOURCE if isinstance(exc, _CapExceeded) else EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())

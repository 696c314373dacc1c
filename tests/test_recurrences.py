"""Recurrence mining, bounds, and annihilators.

The fraction-free Berlekamp-Massey miner is cross-checked against an
independent Berlekamp-Massey implementation over Fraction on clean
sequences; test_recurrence_oracle.py compares it with the Hankel fitter.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import sternsums.forms as forms
import sternsums.recurrences as recurrences
import sternsums.stern as stern
from sternsums.forms import HomogPoly, sym_quotient
from sternsums.linalg import IntPolynomial
from sternsums.recurrences import (
    AFFINE_ALT,
    HOMOGENEOUS,
    InsufficientDataError,
    LinearRecurrence,
    _min_recurrence_impl,
    annihilator_recurrence,
    corollary_bound,
    fit_recurrence,
    min_affine_alt_recurrence,
    min_recurrence,
    mine_all_monomials,
    shortened_annihilator,
    verify_recurrence,
)
from sternsums.stern import power_sum_sequence, power_sum_table

X3 = HomogPoly.monomial(3, 3)


def berlekamp_massey(seq):
    """Shortest LFSR length for the full sequence; classic iteration over Q."""
    c = [Fraction(1)]
    b = [Fraction(1)]
    L, m = 0, 1
    bb = Fraction(1)
    for n, s_n in enumerate(seq):
        d = Fraction(s_n)
        for i in range(1, L + 1):
            d += c[i] * seq[n - i]
        if d == 0:
            m += 1
        elif 2 * L <= n:
            t = c[:]
            coef = d / bb
            c = c + [Fraction(0)] * (len(b) + m - len(c))
            for i, bv in enumerate(b):
                c[i + m] -= coef * bv
            L = n + 1 - L
            b = t
            bb = d
            m = 1
        else:
            coef = d / bb
            c = c + [Fraction(0)] * (len(b) + m - len(c))
            for i, bv in enumerate(b):
                c[i + m] -= coef * bv
            m += 1
    return L


def test_min_recurrence_cubic_power_sums():
    seq = power_sum_sequence(X3, 14)
    assert seq[:5] == [1, 3, 21, 147, 1029]
    rec = min_recurrence(seq, 2)
    assert rec.length == 1
    assert rec.coefficients == (7,)
    assert rec.n0 == 2
    assert not rec.affine_b and not rec.alternating_c


def test_min_recurrence_constant_sequence():
    rec = min_recurrence([5] * 12, 1)
    assert rec.length == 1 and rec.coefficients == (1,)


def test_min_recurrence_row_sums():
    seq = power_sum_sequence(HomogPoly.monomial(1, 1), 14)
    rec = min_recurrence(seq, 1)
    assert rec.length == 1 and rec.coefficients == (3,)


def test_min_recurrence_zero_tail():
    assert min_recurrence([0] * 10, 1).length == 0
    # zero from n0 on, nonzero before
    rec = min_recurrence([9, 0, 0, 0, 0, 0, 0, 0, 0], 2)
    assert rec.length == 0


def test_min_recurrence_insufficient_data():
    with pytest.raises(InsufficientDataError) as err:
        min_recurrence([1, 2], 1)
    assert err.value.required_terms >= 3
    # Fibonacci prefix too short to certify length 2 from n0 = 1
    fib = [1, 1, 2, 3, 5]
    with pytest.raises(InsufficientDataError) as err2:
        min_recurrence(fib, 1)
    assert "terms" in str(err2.value)


def test_min_recurrence_fibonacci():
    fib = [1, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    rec = min_recurrence(fib, 1)
    assert rec.length == 2 and rec.coefficients == (1, 1)


def test_verify_recurrence_window_semantics():
    seq = power_sum_sequence(X3, 12)
    assert verify_recurrence(seq, LinearRecurrence(1, (7,), 2))
    # from n0=1 the window starts at n=2, where S_2 = 3 != 7 * S_1
    assert not verify_recurrence(seq, LinearRecurrence(1, (7,), 1))
    assert verify_recurrence([0, 0, 0], LinearRecurrence(0, (), 1))
    # empty window is vacuously true
    assert verify_recurrence([1, 2], LinearRecurrence(3, (1, 1, 1), 5))


def test_fit_recurrence_reports_failure_as_none():
    seq = power_sum_sequence(X3, 12)
    assert fit_recurrence(seq, 1, 1) is None
    fitted = fit_recurrence(seq, 2, 1)
    assert fitted is not None and fitted.coefficients == (7,)


def test_fit_recurrence_needs_a_nonempty_window():
    with pytest.raises(InsufficientDataError):
        fit_recurrence([1, 2], 1, 5)


def test_affine_alternating_plus_constant():
    seq = [1 + (-1) ** n for n in range(1, 13)]  # 0, 2, 0, 2, ...
    rec = min_affine_alt_recurrence(seq, 1)
    assert rec.length == 0
    assert rec.affine_b == 1 and rec.alternating_c == 1
    # same values shifted by one index: the alternating sign flips
    seq2 = [1 - (-1) ** n for n in range(1, 13)]  # 2, 0, 2, 0, ...
    rec2 = min_affine_alt_recurrence(seq2, 1)
    assert rec2.length == 0
    assert rec2.affine_b == 1 and rec2.alternating_c == -1


def test_affine_prefers_zero_b_then_zero_c():
    seq = power_sum_sequence(X3, 14)
    rec = min_affine_alt_recurrence(seq, 2)
    assert rec.length == 1 and rec.coefficients == (7,)
    assert rec.affine_b == 0 and rec.alternating_c == 0
    # pure alternating tail: b can stay zero
    alt = [(-1) ** n * 5 for n in range(1, 13)]
    ra = min_affine_alt_recurrence(alt, 1)
    assert ra.affine_b == 0


def test_min_recurrence_agrees_with_berlekamp_massey():
    rng = random.Random(1234)
    for _ in range(25):
        order = rng.randint(1, 4)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(order)]
        if not coeffs[-1]:
            coeffs[-1] = Fraction(1)
        seq = [Fraction(rng.randint(-4, 4)) for _ in range(order)]
        while len(seq) < 2 * order + 10:
            seq.append(sum(c * s for c, s in zip(coeffs, reversed(seq[-order:]))))
        mined = min_recurrence(seq, 1)
        assert mined.length == berlekamp_massey(seq)
        assert verify_recurrence(seq, mined)


def test_mining_certificate_rejects_a_wrong_annihilator(monkeypatch):
    seq = power_sum_sequence(X3, 14)
    assert _min_recurrence_impl(seq, 2, HOMOGENEOUS, [1, -7]).coefficients == (7,)
    # a passed annihilator has had its homogeneous check (mine's lift), but
    # the affine recurrence read from it is still checked
    with pytest.raises(ArithmeticError, match="fails the exact check"):
        _min_recurrence_impl(seq, 2, AFFINE_ALT, [1, -6])
    # the fraction-free route checks its homogeneous recurrence
    monkeypatch.setattr(recurrences, "_suffix_annihilator", lambda seq, n0: [1, -6])
    with pytest.raises(ArithmeticError, match="fails the exact check"):
        min_recurrence(seq, 2)


def test_minimality_no_shorter_fit_on_horizon():
    seq = power_sum_sequence(HomogPoly.monomial(2, 4), 20)
    rec = min_recurrence(seq, 2)
    assert rec.length >= 1
    assert fit_recurrence(seq, 2, rec.length - 1) is None


def test_corollary_bound_goldens():
    assert corollary_bound(3, HOMOGENEOUS) == 1
    assert corollary_bound(1, HOMOGENEOUS) == 1
    assert corollary_bound(2, AFFINE_ALT) == 2
    assert corollary_bound(4, HOMOGENEOUS) == 4
    assert corollary_bound(4, AFFINE_ALT) == 2
    assert corollary_bound(6, HOMOGENEOUS) == 6
    # odd degrees fall back to the homogeneous bound
    assert corollary_bound(3, AFFINE_ALT) == 1
    with pytest.raises(ValueError):
        corollary_bound(2, "nonsense")


def test_corollary_bounds_are_nonnegative_integers():
    for r in range(1, 101):
        assert corollary_bound(r, HOMOGENEOUS) >= 0
        assert corollary_bound(r, AFFINE_ALT) >= 0


def test_shortened_annihilator_goldens():
    assert shortened_annihilator(3) == IntPolynomial([-7, 1])
    assert shortened_annihilator(1) == IntPolynomial([-3, 1])
    a4 = shortened_annihilator(4)
    assert a4.degree() <= corollary_bound(4, HOMOGENEOUS)
    assert a4.is_monic()


def test_annihilator_recurrence_r3():
    rec = annihilator_recurrence(3)
    assert rec.length == 1 and rec.coefficients == (7,) and rec.n0 == 2
    assert verify_recurrence(power_sum_sequence(X3, 16), rec)


def test_annihilator_validates_on_random_forms():
    rng = random.Random(8)
    for r in range(1, 13):
        rec = annihilator_recurrence(r)
        assert rec.length <= corollary_bound(r, HOMOGENEOUS)
        horizon = 2 * corollary_bound(r, HOMOGENEOUS) + 8
        for _ in range(5):
            f = HomogPoly([rng.randint(-9, 9) for _ in range(r + 1)])
            seq = power_sum_sequence(f, horizon)
            assert verify_recurrence(seq, rec), (r, f)


def test_mine_all_monomials_r3():
    results = mine_all_monomials(3)
    assert [m.label for m in results] == ["x^2*y", "x^3"]
    for m in results:
        assert m.recurrence.length == 1
        assert m.recurrence.coefficients == (7,)
        assert m.within_bound and m.annihilator_validates
        assert m.best_n0 == 2


def test_mine_all_monomials_r1():
    (m,) = mine_all_monomials(1)
    assert m.recurrence.length == 1 and m.recurrence.coefficients == (3,)
    assert m.best_n0 == 1


def test_mine_all_monomials_r6_within_bounds():
    results = mine_all_monomials(6)
    assert corollary_bound(6, HOMOGENEOUS) == 6
    for m in results:
        assert m.within_bound and m.annihilator_validates
        assert m.affine is not None and m.affine_within_bound


def test_mine_all_monomials_rejects_short_horizon(monkeypatch):
    with pytest.raises(InsufficientDataError):
        mine_all_monomials(3, n_terms=5)
    # an image longer than the horizon certifies refuses it at the first
    # prime, in the words of the fraction-free route
    taken = []

    def walk():
        taken.append(2**30 - 35)
        yield 2**30 - 35

    monkeypatch.setattr(stern, "_primes_below_2_30", walk)
    monkeypatch.setattr(stern, "_berlekamp_massey_mod", lambda seq, p: [1] * 7)
    with pytest.raises(InsufficientDataError) as lifted:
        mine_all_monomials(4, n_terms=16)
    seq = [1, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]  # length 8 from n0 = 2
    with pytest.raises(InsufficientDataError) as exact:
        min_recurrence(seq, 2)
    assert (str(lifted.value), lifted.value.required_terms) == (
        str(exact.value), exact.value.required_terms
    )
    assert taken == [2**30 - 35]


@pytest.mark.parametrize("r", [1, 6, 11, 12])
def test_mine_all_monomials_builds_each_object_once(monkeypatch, r):
    calls = Counter()
    for module, name in (
        (forms, "phi_matrix"),
        (forms, "sym_quotient"),
        (stern, "power_sum_sequence"),
        (recurrences, "verify_recurrence"),
        (recurrences, "_annihilator_validates"),
        (recurrences, "_check_class"),
        (recurrences, "_berlekamp_massey"),
        (stern, "_lift_recurrence"),
    ):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for owner in (forms, stern, recurrences):
            if owner.__dict__.get(name) is original:
                monkeypatch.setattr(owner, name, counted)
    results = mine_all_monomials(r, include_affine=True)
    assert calls["phi_matrix"] == 1
    assert calls["sym_quotient"] == 1
    assert calls["power_sum_sequence"] == 0
    # one lift and one annihilator certificate for the degree; per class,
    # one walk of the window proves both the affine and the homogeneous
    # recurrence, no window walk checks the annihilator (its certificate
    # holds), and the fraction-free Berlekamp-Massey never runs
    assert calls["_lift_recurrence"] == 1
    assert calls["_annihilator_validates"] == 1
    assert calls["_check_class"] == len(results)
    assert calls["verify_recurrence"] == 0
    assert calls["_berlekamp_massey"] == 0


def _mining_inputs(r):
    n_terms = 2 * corollary_bound(r) + 8
    phi_sym = sym_quotient(r)
    table = power_sum_table(r, n_terms, phi_sym)
    connections = recurrences._class_connections(r, table, n_terms)
    return table, annihilator_recurrence(r, phi_sym), connections


def _refused_as_walked(monkeypatch, r, table, forged):
    """The degree certificate and mine report `forged` as the walk of each
    class's window does; returns the walks in table order."""
    walked = [verify_recurrence(seq, forged) for seq in table]
    assert recurrences._annihilator_validates(table, forged) == walked
    with monkeypatch.context() as patch:
        patch.setattr(recurrences, "annihilator_recurrence", lambda *args: forged)
        results = mine_all_monomials(r)
    assert [m.annihilator_validates for m in results] == [walked[r - m.x_power] for m in results]
    return walked


@pytest.mark.parametrize("r", [4, 7, 12])
def test_a_forged_annihilator_is_refused_by_exactly_the_classes_that_walk_it(monkeypatch, r):
    table, ann, _ = _mining_inputs(r)
    coeffs = list(ann.coefficients)
    coeffs[-1] += 1
    forged = LinearRecurrence(ann.length, tuple(coeffs), ann.n0)
    assert not any(_refused_as_walked(monkeypatch, r, table, forged))


def test_a_class_recurrence_as_annihilator_holds_on_exactly_its_walks(monkeypatch):
    # at r = 12 the classes x^a y^(12-a) of odd a share a recurrence one
    # shorter than the rest's: x^11*y's holds on every class of odd a only
    table, _, connections = _mining_inputs(12)
    own = recurrences._connection_recurrence(table[1], 2, connections[5], 0)
    walked = _refused_as_walked(monkeypatch, 12, table, own)
    assert walked == [i % 2 == 1 for i in range(7)]


def _forge(monkeypatch, name, change):
    real = getattr(recurrences, name)
    monkeypatch.setattr(recurrences, name, lambda *args: change(real(*args), *args))


@pytest.mark.parametrize("affine", [False, True])
def test_a_forged_class_connection_is_refused_naming_the_class(monkeypatch, affine):
    def off_by_one(connections, *args):
        connections[1] = [*connections[1][:-1], connections[1][-1] + 1]
        return connections

    _forge(monkeypatch, "_class_connections", off_by_one)
    refusal = r"^r=4, class x\^3\*y: the .* fails its exact check at n="
    with pytest.raises(ArithmeticError, match=refusal):
        mine_all_monomials(4, include_affine=affine)


@pytest.mark.parametrize("field", ["affine_b", "alternating_c"])
def test_a_forged_affine_term_is_refused_naming_the_class(monkeypatch, field):
    first = mine_all_monomials(12, include_affine=True)[0]

    def shifted(rec, seq, n0, conn, extra):
        return replace(rec, **{field: getattr(rec, field) + 1}) if extra else rec

    _forge(monkeypatch, "_connection_recurrence", shifted)
    with pytest.raises(ArithmeticError) as err:
        mine_all_monomials(12, include_affine=True)
    assert str(err.value) == (
        f"r=12, class {first.label}: the affine recurrence of length "
        f"{first.affine.length} fails its exact check at n={first.affine.first_checked_index}"
    )


def test_a_homogeneous_recurrence_is_checked_through_the_affine_residuals(monkeypatch):
    # x^6*y^6 at r = 12 loses the factor 1 + x to its affine recurrence, so
    # its affine residuals are c*(-1)^n with c != 0; a period forged to 1
    # passes the affine walk and reads them as the homogeneous residuals
    first = mine_all_monomials(12, include_affine=True)[0]
    assert first.affine.length == first.recurrence.length - 1 and first.affine.alternating_c
    _forge(monkeypatch, "_divide_out_period_two", lambda pair, conn: (pair[0], [1]))
    with pytest.raises(ArithmeticError) as err:
        mine_all_monomials(12, include_affine=True)
    assert str(err.value) == (
        f"r=12, class x^6*y^6: the homogeneous recurrence of length "
        f"{first.recurrence.length} fails its exact check at "
        f"n={first.recurrence.first_checked_index}"
    )


def test_annihilator_takes_the_quotient_matrix():
    for r in range(1, 13):
        assert annihilator_recurrence(r, sym_quotient(r)) == annihilator_recurrence(r)


def test_mined_length_never_exceeds_annihilator_length():
    for r in range(1, 11):
        ann = annihilator_recurrence(r)
        for m in mine_all_monomials(r):
            assert m.recurrence.length <= ann.length, r


def test_mining_result_json_shape():
    (m,) = mine_all_monomials(1)
    d = m.to_json_dict()
    assert d["monomial"] == "x"
    assert d["recurrence"]["coefficients"] == [3]
    assert d["within_bound"] is True


def _rhs_loop(rec, seq, n):
    """LinearRecurrence.rhs one coefficient at a time, skipping zeros."""
    total = rec.affine_b + rec.alternating_c * (-1) ** n
    for j, a in enumerate(rec.coefficients, start=1):
        if a:
            total += a * seq[n - 1 - j]
    return total


def test_rhs_matches_the_coefficient_loop():
    rng = random.Random(94)

    def number():
        return rng.choice([0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(2, 7))])

    seen = set()
    for _ in range(300):
        length = rng.randint(0, 6)
        rec = LinearRecurrence(
            length, tuple(number() for _ in range(length)), rng.randint(1, 3), number(), number()
        )
        seq = [Fraction(rng.randint(-99, 99), rng.randint(1, 6)) for _ in range(length + 10)]
        for n in range(rec.first_checked_index, len(seq) + 1):
            assert rec.rhs(seq, n) == _rhs_loop(rec, seq, n), (rec, n)
        seen.add((0 in rec.coefficients, bool(rec.affine_b), bool(rec.alternating_c)))
    # zero coefficients, and b and c each with and without the other
    assert seen == {(z, b, c) for z in (False, True) for b in (False, True) for c in (False, True)}


def test_recurrence_validation_rejects_wrong_coefficients():
    seq = power_sum_sequence(X3, 10)
    assert not verify_recurrence(seq, LinearRecurrence(1, (6,), 2))
    assert not verify_recurrence(seq, LinearRecurrence(1, (7,), 2, affine_b=1))

"""Stern rows and the two power-sum routes."""

import random
from fractions import Fraction

import pytest

import sternsums.recurrences as recurrences
import sternsums.stern as stern
from sternsums.forms import HomogPoly, phi_matrix, sym_dimension, sym_quotient
from sternsums.recurrences import LinearRecurrence, annihilator_recurrence
from sternsums.stern import (
    DEFAULT_ROW_CAP,
    RowCapError,
    SternRow,
    _extend_certified,
    _row_power_sum,
    power_sum_direct,
    power_sum_direct_sequence,
    power_sum_sequence,
    power_sum_table,
    stern_row,
)

X3 = HomogPoly.monomial(3, 3)
X2Y = HomogPoly.monomial(2, 3)
X = HomogPoly.monomial(1, 1)


def test_row_goldens():
    assert stern_row(1).entries == (1,)
    assert stern_row(2).entries == (1, 1, 1)
    assert stern_row(4).entries == (1, 1, 2, 1, 3, 2, 3, 1, 3, 2, 3, 1, 2, 1, 1)


def _block_rows(monkeypatch):
    def no_rows(row):
        raise AssertionError("a row was built outside the cap")

    monkeypatch.setattr(stern, "_expand", no_rows)


def test_row_cap_errors_name_the_cap(monkeypatch):
    # every entry point refuses before its first insertion step, naming the
    # requested row and the cap in the same words
    _block_rows(monkeypatch)
    cap = DEFAULT_ROW_CAP
    for n in (0, cap + 1):
        calls = [
            lambda: stern_row(n),
            lambda: power_sum_direct(n, X3),
            lambda: power_sum_direct_sequence(X3, n),
        ]
        for call in calls:
            with pytest.raises(RowCapError) as err:
                call()
            assert str(err.value) == (
                f"row index {n} is outside the valid range 1 <= n <= {cap} "
                f"(configured cap {cap})"
            )
    with pytest.raises(RowCapError, match="<= 20"):
        stern_row(0)


def test_row_lengths_and_palindromes():
    for n in range(1, 13):
        row = stern_row(n).entries
        assert len(row) == 2**n - 1
        assert row == row[::-1]


def test_row_recurrence_definition():
    # s(n, 2k) = s(n-1, k); s(n, 2k+1) = s(n-1, k) + s(n-1, k+1)
    for n in range(2, 11):
        prev = stern_row(n - 1).entries
        cur = stern_row(n).entries

        def s_prev(k):
            return prev[k - 1] if 1 <= k <= len(prev) else 0

        for k in range(0, 2 ** (n - 1)):
            if k >= 1:
                assert cur[2 * k - 1] == s_prev(k)
            assert cur[2 * k] == s_prev(k) + s_prev(k + 1)


def test_row_sums_triple():
    for n in range(1, 13):
        assert sum(stern_row(n).entries) == 3 ** (n - 1)


def test_stern_row_type_validates_length():
    with pytest.raises(ValueError):
        SternRow(3, (1, 2))


def test_power_sum_direct_goldens():
    assert power_sum_direct(1, X3) == 1
    assert power_sum_direct(2, X2Y) == 2
    assert power_sum_direct(3, X) == 9


def test_power_sum_direct_includes_boundary_pairs():
    # row 1 contributes the pairs (0, 1) and (1, 0) only
    f = HomogPoly([1, 0, 0, 1])  # x^3 + y^3
    assert power_sum_direct(1, f) == 2
    g = HomogPoly.monomial(0, 2)  # y^2
    assert power_sum_direct(1, g) == 1


def test_power_sum_direct_honors_cap(monkeypatch):
    _block_rows(monkeypatch)
    with pytest.raises(RowCapError):
        power_sum_direct(DEFAULT_ROW_CAP + 1, X3)


def test_power_sum_fast_goldens():
    # the fast route: S_n is the last entry of the transfer-matrix sequence
    assert power_sum_sequence(X3, 4)[-1] == 147
    for f in (X3, X2Y, HomogPoly([Fraction(1, 3), 2])):
        assert power_sum_sequence(f, 1) == [f(0, 1) + f(1, 0)]
    # the length-1 pattern with ratio 7 starts at S_2 = 3: S_n = 3 * 7^(n-2)
    assert power_sum_sequence(X3, 16)[-1] == 3 * 7**14
    with pytest.raises(ValueError):
        power_sum_sequence(X3, 0)


def test_power_sum_sequence_goldens():
    assert power_sum_sequence(X3, 4) == [1, 3, 21, 147]
    assert power_sum_sequence(X2Y, 4) == [0, 2, 14, 98]
    assert power_sum_sequence(X, 4) == [1, 3, 9, 27]


def test_power_sum_sequence_matches_pointwise_fast():
    # every prefix is the sequence of the shorter horizon
    f = HomogPoly([2, -1, 0, 3, 1])
    seq = power_sum_sequence(f, 9)
    for n in range(1, 10):
        assert seq[n - 1] == power_sum_sequence(f, n)[-1]


# Single-term forms: x^a y^b at a = 0, a = r and r = 0, with negative and
# with rational coefficients.
SINGLE_TERMS = [
    HomogPoly.monomial(a, r) * c
    for r in range(0, 6)
    for a in range(r + 1)
    for c in (1, -3)
] + [HomogPoly.monomial(2, 5) * Fraction(-5, 7), HomogPoly.monomial(4, 4) * Fraction(1, 2)]


def test_dual_path_agreement_small():
    # the termwise row sum against f evaluated pair by pair, on rows with
    # zeros and negative entries as well as on Stern rows
    rows = [[1], [0], [2, 3], [-4, 5, 0, 7, -1]]
    dense = [HomogPoly([2, -1, 0, 3]), HomogPoly([Fraction(1, 2), 0, Fraction(-2, 3)])]
    for f in SINGLE_TERMS + dense:
        for row in rows:
            padded = [0, *row, 0]
            expected = sum(f(x, y) for x, y in zip(padded, padded[1:]))
            assert _row_power_sum(row, f) == expected, (f, row)
        direct = [power_sum_direct(n, f) for n in range(1, 11)]
        assert direct == power_sum_sequence(f, 10), f
        assert power_sum_direct_sequence(f, 10) == direct, f


def test_power_sum_direct_sequence_validates_its_horizon(monkeypatch):
    assert power_sum_direct_sequence(X3, 6) == power_sum_sequence(X3, 6)
    _block_rows(monkeypatch)
    past = DEFAULT_ROW_CAP + 1
    with pytest.raises(RowCapError) as err:
        power_sum_direct_sequence(X3, past)
    assert f"row index {past}" in str(err.value)
    assert f"configured cap {DEFAULT_ROW_CAP}" in str(err.value)
    with pytest.raises(ValueError):
        power_sum_direct_sequence(X3, 0)


def test_dual_path_agreement_rational_coefficients():
    f = HomogPoly([Fraction(1, 2), Fraction(-2, 3), 1])
    assert [power_sum_direct(n, f) for n in range(1, 8)] == power_sum_sequence(f, 7)


def per_form_power_sums(f: HomogPoly, n_max: int, phi=None) -> list:
    """The oracle of the transfer route: the form's own coefficients, Fraction
    ones included, iterated as a column vector through the full transfer
    matrix (phi_matrix(f.degree) unless given), S_n read off by the boundary
    functional g -> g(0,1) + g(1,0)."""
    rows = (phi_matrix(f.degree) if phi is None else phi).rows
    v = list(f.coeffs)
    out = [v[0] + v[-1]]
    for _ in range(n_max - 1):
        v = [sum(c * x for c, x in zip(row, v) if c) for row in rows]
        out.append(v[0] + v[-1])
    return out


def test_rational_forms_against_the_fraction_iteration():
    rng = random.Random(2718)
    for trial in range(40):
        d = rng.randint(0, 20)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(d + 1)]
        if trial % 4 == 0:
            coeffs = [Fraction(c.numerator, 6) for c in coeffs]  # sums may be integral
        f = HomogPoly(coeffs)
        n_max = rng.randint(1, 30)
        seq = power_sum_sequence(f, n_max)
        assert seq == per_form_power_sums(f, n_max), f
        assert all(isinstance(s, (int, Fraction)) for s in seq)


def test_swap_symmetry_spot():
    f = HomogPoly([3, 1, 4, 1, 5])
    assert power_sum_sequence(f, 7) == power_sum_sequence(HomogPoly(f.coeffs[::-1]), 7)


def test_linearity_spot():
    f, g = HomogPoly([1, 2, 3]), HomogPoly([0, -1, 5])
    a, b = Fraction(2, 3), Fraction(-7, 2)
    lhs = power_sum_sequence(a * f + b * g, 7)
    sf, sg = power_sum_sequence(f, 7), power_sum_sequence(g, 7)
    assert lhs == [a * x + b * y for x, y in zip(sf, sg)]


def test_power_sum_sequence_against_the_per_form_iteration():
    # Long horizons at high degree, where the folded contraction carries
    # about a thousand digits: monomials on both sides of the middle, dense
    # integer forms with mixed signs, and rational forms.
    rng = random.Random(1618)
    for r in (0, 1, 2, 12, 20, 30, 40):
        phi = phi_matrix(r)
        forms = [HomogPoly.monomial(a, r) for a in sorted({0, r // 2, (r + 1) // 2, r})]
        forms.append(HomogPoly([rng.randint(-9, 9) for _ in range(r + 1)]))
        fractions = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(r + 1)]
        forms.append(HomogPoly(fractions))
        for f in forms:
            for n_max in (1, 2, 120):
                expected = per_form_power_sums(f, n_max, phi)
                assert power_sum_sequence(f, n_max) == expected, (f, n_max)


# -- the certified recurrence past the head ------------------------------------


def _window(r: int) -> int:
    """W = n0 + L + m - 1: the head that certifies the degree's recurrence."""
    rec = annihilator_recurrence(r)
    return rec.first_checked_index + sym_dimension(r) - 1


def test_power_sum_sequence_around_the_recurrence_window():
    # Horizons below, at and past the window W, and past 2m, where the
    # recurrence takes over, for every monomial class plus one dense and one
    # rational form per degree.  Odd r has n0 > 1, from the power of x
    # divided out of the charpoly.
    rng = random.Random(1729)
    for r in range(0, 31):
        m = sym_dimension(r)
        phi = phi_matrix(r)
        w = _window(r) if r else 1
        horizons = sorted({n for n in (w - 1, w, w + 1, 2 * m + 1, 2 * m + 12) if n >= 1})
        forms = [HomogPoly.monomial(r - i, r) for i in range(m)]
        forms.append(HomogPoly([rng.randint(-9, 9) for _ in range(r + 1)]))
        fractions = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(r + 1)]
        forms.append(HomogPoly(fractions))
        for f in forms:
            expected = per_form_power_sums(f, horizons[-1], phi)
            for n_max in horizons:
                assert power_sum_sequence(f, n_max) == expected[:n_max], (f, n_max)


@pytest.mark.parametrize("r", [1, 8, 21, 40])
def test_power_sum_sequence_steps_only_the_head(monkeypatch, r):
    heads = []
    steps = stern._boundary_steps

    def counted(r_, n_max, phi_sym):
        heads.append(n_max)
        return steps(r_, n_max, phi_sym)

    monkeypatch.setattr(stern, "_boundary_steps", counted)
    f = HomogPoly([1 + i % 5 for i in range(r + 1)])
    assert power_sum_sequence(f, 300) == per_form_power_sums(f, 300)
    assert heads == [_window(r)]
    m = sym_dimension(r)
    if r % 2:
        assert heads == [2 * m]


def test_extension_certifies_the_recurrence_first():
    for r in (5, 12):
        f = HomogPoly([3 - i for i in range(r + 1)])
        rec = annihilator_recurrence(r)
        w = _window(r)
        head = power_sum_sequence(f, w)
        assert _extend_certified(head, rec, 90, r) == per_form_power_sums(f, 90)
        # one wrong coefficient, or one coefficient dropped, fails the check
        # before any term is produced
        wrong = LinearRecurrence(
            rec.length, rec.coefficients[:-1] + (rec.coefficients[-1] + 1,), rec.n0
        )
        short = LinearRecurrence(rec.length - 1, rec.coefficients[:-1], rec.n0)
        for bad in (wrong, short):
            with pytest.raises(ArithmeticError, match=f"r={r}:"):
                _extend_certified(head, bad, 90, r)


def test_power_sum_sequence_raises_naming_r_when_the_certificate_fails(monkeypatch):
    def skewed(r, phi_sym=None):
        rec = annihilator_recurrence(r, phi_sym)
        coeffs = (rec.coefficients[0] + 1,) + rec.coefficients[1:]
        return LinearRecurrence(rec.length, coeffs, rec.n0)

    monkeypatch.setattr(recurrences, "annihilator_recurrence", skewed)
    with pytest.raises(ArithmeticError, match="r=9:"):
        power_sum_sequence(HomogPoly.monomial(9, 9), 100)
    # a horizon the head covers never reads the recurrence
    assert power_sum_sequence(X3, 4) == [1, 3, 21, 147]


# -- the shared table on the swap-symmetric quotient ---------------------------


def test_power_sum_table_against_the_per_form_iteration():
    # r = 0 starts from [2], r = 1 from [1]; odd and even r have a self-paired
    # middle class or not; every a in 0..r reads class min(a, r - a).  The
    # oracle costs (r + 1)^3 per step over all a, so the horizon shrinks from
    # 60 as r grows.
    for r in range(0, 41):
        phi = phi_matrix(r)
        phi_sym = sym_quotient(r, phi)
        for n_max in (1, 2, max(8, 60 - 2 * r)):
            table = power_sum_table(r, n_max, phi_sym)
            assert len(table) == sym_dimension(r)
            for a in range(r + 1):
                expected = per_form_power_sums(HomogPoly.monomial(a, r), n_max, phi)
                assert table[min(a, r - a)] == expected, (r, a, n_max)


def test_power_sum_table_goldens_and_validation():
    assert power_sum_table(0, 3, sym_quotient(0)) == [[2, 4, 8]]
    assert power_sum_table(3, 4, sym_quotient(3)) == [[1, 3, 21, 147], [0, 2, 14, 98]]
    with pytest.raises(ValueError):
        power_sum_table(4, 5, sym_quotient(3))
    with pytest.raises(ValueError):
        power_sum_table(3, 0, sym_quotient(3))

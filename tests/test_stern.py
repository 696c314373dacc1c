"""Stern rows and the two power-sum routes."""

import random
from collections import Counter
from decimal import MAX_PREC, Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction
from operator import mul

import pytest

import sternsums.linalg as linalg
import sternsums.recurrences as recurrences
import sternsums.spectra as spectra
import sternsums.stern as stern
from sternsums.forms import HomogPoly, phi_matrix, sym_dimension, sym_quotient
from sternsums.stern import (
    _berlekamp_massey_mod,
    _form_recurrence,
    _row_power_sum,
    _transfer_sums,
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
    assert stern_row(1) == (1,)
    assert stern_row(2) == (1, 1, 1)
    assert stern_row(4) == (1, 1, 2, 1, 3, 2, 3, 1, 3, 2, 3, 1, 2, 1, 1)


def _block_rows(monkeypatch):
    def no_rows(row):
        raise AssertionError("a row was built outside the cap")

    monkeypatch.setattr(stern, "_expand", no_rows)


def test_entry_points_refuse_n_below_1(monkeypatch):
    # every entry point refuses before its first insertion step
    _block_rows(monkeypatch)
    for n in (0, -2):
        calls = [
            lambda: stern_row(n),
            lambda: power_sum_direct(n, X3),
            lambda: power_sum_direct_sequence(X3, n),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="must be at least 1$"):
                call()


def test_entry_points_take_n_past_the_command_line_cap(monkeypatch):
    # the row cap is the command line's: the library walks any n, here on a
    # stand-in step that keeps each list short
    calls = []

    def cheap(prev):
        calls.append(prev)
        return [0, *prev, 0]

    monkeypatch.setattr(stern, "_expand", cheap)
    assert len(stern_row(25)) == 49 and len(calls) == 24
    # S_1 = 1, and the segment stays [1, 1], which adds 2 on each later row
    calls.clear()
    assert power_sum_direct_sequence(X3, 25)[-1] == 49 and len(calls) == 23
    calls.clear()
    assert power_sum_direct(25, X3) == 49 and len(calls) == 23


def test_row_lengths_and_palindromes():
    for n in range(1, 13):
        row = stern_row(n)
        assert len(row) == 2**n - 1
        assert row == row[::-1]


def test_row_recurrence_definition():
    # s(n, 2k) = s(n-1, k); s(n, 2k+1) = s(n-1, k) + s(n-1, k+1)
    for n in range(2, 11):
        prev = stern_row(n - 1)
        cur = stern_row(n)

        def s_prev(k):
            return prev[k - 1] if 1 <= k <= len(prev) else 0

        for k in range(0, 2 ** (n - 1)):
            if k >= 1:
                assert cur[2 * k - 1] == s_prev(k)
            assert cur[2 * k] == s_prev(k) + s_prev(k + 1)


def test_row_sums_triple():
    for n in range(1, 13):
        assert sum(stern_row(n)) == 3 ** (n - 1)


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


def direct_oracle(n: int, f: HomogPoly):
    """The direct route's oracle: f summed pair by pair over the whole of
    row n, padded with s(n, 0) = s(n, 2^n) = 0."""
    padded = [0, *stern_row(n), 0]
    return sum(f(x, y) for x, y in zip(padded, padded[1:]))


def test_dual_path_agreement_small():
    # the termwise segment sum against f evaluated pair by pair, on padded
    # rows with zeros, negative entries and repeated values.  The segment
    # sum reads powers from a table over the segment's values: SINGLE_TERMS
    # hold x^2 y^2, whose two sides read one exponent, and the degree-0
    # forms, where 0**0 == 1 counts the boundary pairs; the dense forms add
    # a middle term among zero coefficients and a rational degree-0 form.
    rows = [[1], [0], [2, 3], [-4, 5, 0, 7, -1], [3, 3, -2, 3, 0, 0, -2, 3]]
    dense = [
        HomogPoly([2, -1, 0, 3]),
        HomogPoly([Fraction(1, 2), 0, Fraction(-2, 3)]),
        HomogPoly([1, -2, 3, 0, 5]),
        HomogPoly([Fraction(5, 3)]),
    ]
    for f in SINGLE_TERMS + dense:
        for row in rows:
            padded = [0, *row, 0]
            expected = sum(f(x, y) for x, y in zip(padded, padded[1:]))
            assert _row_power_sum(padded, f) == expected, (f, row)
        direct = [direct_oracle(n, f) for n in range(1, 11)]
        assert direct == power_sum_sequence(f, 10), f
        assert [power_sum_direct(n, f) for n in range(1, 11)] == direct, f
        assert power_sum_direct_sequence(f, 10) == direct, f


def _pairs(seq):
    return Counter(zip(seq, seq[1:]))


def test_each_row_adds_two_copies_of_its_second_quarter():
    # the pairs of padded row n are those of padded row n-1 and twice those
    # of s(n, 2^(n-2)) .. s(n, 2^(n-1)); row n is a palindrome, its first
    # 2^(n-2) entries are row n-1's, and that quarter is one insertion step
    # on row n-1's quarter, less its two ends
    prev = [0, 1, 0]
    for n in range(2, 16):
        row = stern_row(n)
        padded = [0, *row, 0]
        quarter = padded[2 ** (n - 2) : 2 ** (n - 1) + 1]
        added = _pairs(quarter)
        assert _pairs(padded) == _pairs(prev) + added + added, n
        assert row == row[::-1], n
        assert padded[: 2 ** (n - 2) + 1] == prev[: 2 ** (n - 2) + 1], n
        if n > 2:
            assert quarter == stern._expand(prev_quarter)[1:-1], n
        prev, prev_quarter = padded, quarter


# Forms for the direct route's oracle: monomials, x^r and y^r among them;
# degree-0 forms, where 0**0 == 1 counts the boundary pairs; dense forms with
# negative and Fraction coefficients; zero coefficients between nonzero ones.
ORACLE_FORMS = [
    HomogPoly.monomial(0, 0),
    HomogPoly([-7]),
    HomogPoly([Fraction(2, 3)]),
    HomogPoly.monomial(0, 1),
    HomogPoly.monomial(4, 4),
    HomogPoly.monomial(0, 5) * -2,
    HomogPoly.monomial(2, 3),
    HomogPoly.monomial(3, 6),
    HomogPoly([3, -1, 4, -1, 5]),
    HomogPoly([Fraction(1, 2), Fraction(-3, 5), 2, Fraction(7, 4)]),
    HomogPoly([1, 0, 0, -2, 0, 3]),
    HomogPoly([0, Fraction(-1, 3), 0, 0, 5, 0]),
]


def test_power_sum_direct_sequence_against_the_full_row_oracle():
    for f in ORACLE_FORMS:
        assert power_sum_direct_sequence(f, 14) == [
            direct_oracle(n, f) for n in range(1, 15)
        ], f


def test_power_sum_direct_sequence_walks_segments_not_rows(monkeypatch):
    # seg_n_max needs n_max - 2 insertion steps from seg_2 = [1, 1], and the
    # longest list expanded is seg_(n_max-1): no full row is ever built
    calls = []
    expand = stern._expand

    def counted(prev):
        calls.append(len(prev))
        return expand(prev)

    monkeypatch.setattr(stern, "_expand", counted)
    for n in range(1, 13):
        calls.clear()
        power_sum_direct_sequence(HomogPoly([1, -2, 3]), n)
        assert len(calls) == max(n - 2, 0), n
        assert all(length <= 2 ** (n - 3) + 1 for length in calls), n


def test_power_sum_direct_sequence_validates_its_horizon():
    assert power_sum_direct_sequence(X3, 6) == power_sum_sequence(X3, 6)
    with pytest.raises(ValueError, match="^n_max must be at least 1$"):
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


def test_power_sum_sequence_around_the_recurrence_window():
    # Horizons below, at and past the head of 2m steps, where the form's own
    # recurrence takes over, for every monomial class plus one dense and one
    # rational form per degree.
    rng = random.Random(1729)
    for r in range(0, 31):
        m = sym_dimension(r)
        phi = phi_matrix(r)
        horizons = sorted({n for n in (2 * m - 1, 2 * m, 2 * m + 1, 2 * m + 2, 2 * m + 12) if n >= 1})
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
    m = sym_dimension(r)
    expected = per_form_power_sums(f, 300)
    for n_max in (2 * m - 1, 2 * m, 2 * m + 1, 300):
        assert power_sum_sequence(f, n_max) == expected[:n_max]
    assert heads == [2 * m - 1, 2 * m, 2 * m, 2 * m]


def _head(f: HomogPoly) -> list:
    """The 2m integer sums that power_sum_sequence steps before it extends."""
    return power_sum_sequence(f, 2 * sym_dimension(f.degree))


def _primes(monkeypatch, primes) -> list:
    """Make the lift walk only the given primes; returns the list of the
    primes it took, in order."""
    taken = []

    def walk():
        for p in primes:
            taken.append(p)
            yield p

    monkeypatch.setattr(stern, "_primes_below_2_30", walk)
    return taken


def _residuals(w: list, seq: list) -> list:
    """seq[n] - (w_1 seq[n-L] + ... + w_L seq[n-1]) at every n from L on."""
    return [seq[n] - sum(map(mul, w, seq[n - len(w):n])) for n in range(len(w), len(seq))]


def test_berlekamp_massey_mod_p_against_the_exact_one():
    # The exact, fraction-free run is the oracle: over Q its connection
    # polynomial c, divided by c[0], reduces to the image mod p.
    rng = random.Random(4142)
    p = spectra._CERTIFICATE_PRIME
    heads = [_head(HomogPoly([rng.randint(-9, 9) for _ in range(r + 1)])) for r in range(25)]
    others = [[rng.randint(-50, 50) for _ in range(rng.randint(0, 30))] for _ in range(40)]
    others += [[0] * 6, [0, 0, 0, 5, 1], [3, 6, 12, 24]]
    for seq in heads + others:
        c = recurrences._berlekamp_massey(seq)
        inv = pow(c[0], -1, p)
        expected = [-x * inv % p for x in reversed(c[1:])]
        assert _berlekamp_massey_mod(seq, p) == expected, seq
        for q in (2, 3, 7):
            assert all(x % q == 0 for x in _residuals(_berlekamp_massey_mod(seq, q), seq))
    # a head has an integer recurrence of at most half its length, so a
    # small prime may see a shorter one, never a longer one
    for seq in heads:
        for q in (2, 3, 7):
            assert len(_berlekamp_massey_mod(seq, q)) < len(recurrences._berlekamp_massey(seq))


def _skewed(seq, p):
    """An image that is wrong mod every prime: w_1 moved by one."""
    image = _berlekamp_massey_mod(seq, p)
    return [(image[0] + 1) % p, *image[1:]]


def test_an_unlucky_prime_is_skipped_and_the_next_one_is_used(monkeypatch):
    # Every sum of 7 x^2 y^14 + 14 y^16 is a multiple of 7, so its image mod
    # 7 is the empty recurrence, shorter than the true one, which takes two
    # primes of the walk.
    f = HomogPoly([14, 0, 7] + [0] * 14)
    expected = per_form_power_sums(f, 60)
    big = [p for p, _ in zip(linalg._primes_below_2_30(), range(40))]
    plain = _primes(monkeypatch, big)
    assert power_sum_sequence(f, 60) == expected
    assert len(plain) == 2
    # first, 7's empty candidate is checked and refused, and the next prime
    # restarts the lift
    first = _primes(monkeypatch, [7, *big])
    assert power_sum_sequence(f, 60) == expected
    assert first == [7, *plain]
    # in the middle, 7 is skipped, not lifted: the lift of big[0] goes on
    middle = _primes(monkeypatch, [big[0], 7, *big[1:]])
    assert power_sum_sequence(f, 60) == expected
    assert middle == [big[0], 7, big[1]]


def test_a_forged_image_never_reaches_the_output(monkeypatch):
    # a short image at the first prime starts a lift whose candidate the
    # exact check refuses at once; the next prime, with the true length,
    # restarts it, and one prime of that length settles this form
    f = HomogPoly([3, -1, 4, 1, -5, 9, 2])
    real = stern._berlekamp_massey_mod
    images = []

    def shortened_once(seq, p):
        image = real(seq, p)
        images.append(len(image))
        return image[1:] if len(images) == 1 else image

    monkeypatch.setattr(stern, "_berlekamp_massey_mod", shortened_once)
    taken = _primes(monkeypatch, [p for p, _ in zip(linalg._primes_below_2_30(), range(40))])
    assert power_sum_sequence(f, 80) == per_form_power_sums(f, 80)
    assert len(taken) == 2 and images[0] == images[1]


def test_extension_certifies_the_recurrence_first(monkeypatch):
    rng = random.Random(3)
    for r in (0, 1, 5, 12, 21, 40):
        m = sym_dimension(r)
        for f in (HomogPoly.monomial(r, r), HomogPoly([rng.randint(-9, 9) for _ in range(r + 1)])):
            head = _head(f)
            w = _form_recurrence(head, r)
            assert len(w) <= m and not any(_residuals(w, head))
            assert len(w) == len(recurrences._berlekamp_massey(head)) - 1
    # sums that all vanish have the empty recurrence
    assert _form_recurrence(_head(HomogPoly([1, 0, -1])), 2) == []
    # an image that is wrong mod every prime lifts to candidates that the
    # exact check refuses before any term is extended; the walk stops at
    # the lift's budget, or where the primes run out, and names r
    monkeypatch.setattr(stern, "_berlekamp_massey_mod", _skewed)
    for r, walked in ((5, 5), (12, 12)):
        f = HomogPoly([3 - i for i in range(r + 1)])
        budget = stern._prime_budget(_head(f), sym_dimension(r))
        taken = _primes(monkeypatch, [p for p, _ in zip(linalg._primes_below_2_30(), range(12))])
        with pytest.raises(ArithmeticError, match=f"r={r}: .* mod {walked} primes .*certificate"):
            power_sum_sequence(f, 90)
        assert len(taken) == walked == min(budget, 12)
    # an image longer than m, which no recurrence of the sums is, ends the
    # lift at its first prime
    m = sym_dimension(5)
    monkeypatch.setattr(stern, "_berlekamp_massey_mod", lambda seq, p: [1] * (m + 1))
    taken = _primes(monkeypatch, [p for p, _ in zip(linalg._primes_below_2_30(), range(12))])
    with pytest.raises(ArithmeticError, match=f"r=5: .* longer than m={m}"):
        power_sum_sequence(HomogPoly.monomial(5, 5), 90)
    assert len(taken) == 1


def test_power_sum_sequence_raises_naming_r_when_the_certificate_fails(monkeypatch):
    # an image that is wrong mod the one prime walked is never certified
    monkeypatch.setattr(stern, "_berlekamp_massey_mod", _skewed)
    taken = _primes(monkeypatch, [spectra._CERTIFICATE_PRIME])
    with pytest.raises(ArithmeticError, match="r=9: .*certificate"):
        power_sum_sequence(HomogPoly.monomial(9, 9), 100)
    assert taken == [spectra._CERTIFICATE_PRIME]
    # a horizon the head covers never reads a prime
    taken.clear()
    assert power_sum_sequence(HomogPoly.monomial(9, 9), 10) == per_form_power_sums(
        HomogPoly.monomial(9, 9), 10
    )
    assert power_sum_sequence(X3, 4) == [1, 3, 21, 147]
    assert taken == []


def test_transfer_sums_extend_in_the_type_given():
    f = HomogPoly([Fraction(1, 2), Fraction(-1, 3), 5])
    sums, d = _transfer_sums(f, 40)
    assert d == 6 and all(type(s) is int for s in sums)
    assert [Fraction(s, d) for s in sums] == per_form_power_sums(f, 40)
    with localcontext(Context(prec=MAX_PREC, traps=[Inexact, Rounded])):
        decimals, d = _transfer_sums(f, 40, Decimal)
    assert d == 6 and all(type(s) is Decimal for s in decimals)
    assert decimals == sums


@pytest.mark.extended
def test_power_sum_sequence_sweep_to_the_degree_cap(monkeypatch):
    # Every degree up to SUMS_MAX_DEGREE, one dense form and three monomial
    # classes each, just past the head and at 3m, against the per-form
    # iteration.  Prints the most primes one lift took and the lifts that
    # restarted on a longer image or skipped a shorter one.
    real_walk, real_image = stern._primes_below_2_30, stern._berlekamp_massey_mod
    lengths = []

    def walk():
        lengths.clear()
        yield from real_walk()

    def image(seq, p):
        w = real_image(seq, p)
        lengths.append(len(w))
        return w

    monkeypatch.setattr(stern, "_primes_below_2_30", walk)
    monkeypatch.setattr(stern, "_berlekamp_massey_mod", image)
    rng = random.Random(100)
    most, uneven = (0, None), []
    for r in range(1, 101):
        m = sym_dimension(r)
        phi = phi_matrix(r)
        forms = [HomogPoly([rng.randint(-9, 9) for _ in range(r + 1)])]
        forms += [HomogPoly.monomial(a, r) for a in sorted({r, (r + 1) // 2, r // 3})]
        for f in forms:
            expected = per_form_power_sums(f, 3 * m, phi)
            for n_max in (2 * m + 1, 3 * m):
                assert power_sum_sequence(f, n_max) == expected[:n_max], (f, n_max)
                most = max(most, (len(lengths), r))
                if len(set(lengths)) > 1:
                    uneven.append((r, tuple(lengths)))
    print(f"most primes in one lift: {most[0]} (r={most[1]}); uneven lifts: {uneven}")


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

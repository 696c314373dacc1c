"""Property suites over randomized exact-rational inputs, fixed seeds.

Each suite targets one library invariant: row palindromy, power-sum swap
symmetry and linearity, substitution composition, minimal-divides-
characteristic polynomial, rank plus nullity, and minimality of the mined
recurrence length.  All runs are derandomized so the suite is reproducible.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from sternsums.forms import HomogPoly, Mat2, substitute
from sternsums.linalg import (
    RationalMatrix,
    charpoly,
    divide_out,
    is_squarefree,
    kernel_basis,
    minpoly,
    nullity,
    rank,
)
from sternsums.recurrences import fit_recurrence, min_recurrence, verify_recurrence
from sternsums.stern import power_sum_sequence, stern_row
from test_linalg import horner_at_matrix

COMMON = settings(derandomize=True, deadline=None, max_examples=40)

rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)
small_ints = st.integers(min_value=-6, max_value=6)


def forms(max_degree=6, coeffs=rationals):
    return st.integers(min_value=0, max_value=max_degree).flatmap(
        lambda r: st.lists(coeffs, min_size=r + 1, max_size=r + 1).map(HomogPoly)
    )


def mat2s(bound=3):
    entry = st.integers(min_value=-bound, max_value=bound)
    return st.tuples(entry, entry, entry, entry).map(lambda t: Mat2(*t))


def square_matrices(max_n=5, entries=small_ints):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(RationalMatrix)
    )


def rect_matrices(max_rows=5, max_cols=6):
    return st.tuples(
        st.integers(min_value=1, max_value=max_rows),
        st.integers(min_value=1, max_value=max_cols),
    ).flatmap(
        lambda shape: st.lists(
            st.lists(rationals, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ).map(RationalMatrix)
    )


# -- suite 1: palindromy ------------------------------------------------------


@COMMON
@given(st.integers(min_value=1, max_value=12))
def test_rows_are_palindromic_with_exact_length(n):
    row = stern_row(n)
    assert len(row) == 2**n - 1
    assert row == row[::-1]
    assert sum(row) == 3 ** (n - 1)


# -- suite 2: swap symmetry ---------------------------------------------------


@COMMON
@given(forms(max_degree=5), st.integers(min_value=1, max_value=8))
def test_power_sums_are_swap_symmetric(f, n):
    assert power_sum_sequence(f, n) == power_sum_sequence(HomogPoly(f.coeffs[::-1]), n)


# -- suite 3: linearity ---------------------------------------------------------


@COMMON
@given(
    st.integers(min_value=0, max_value=5).flatmap(
        lambda r: st.tuples(
            st.lists(rationals, min_size=r + 1, max_size=r + 1).map(HomogPoly),
            st.lists(rationals, min_size=r + 1, max_size=r + 1).map(HomogPoly),
        )
    ),
    rationals,
    rationals,
    st.integers(min_value=1, max_value=8),
)
def test_power_sums_are_linear(fg, alpha, beta, n):
    f, g = fg
    combined = power_sum_sequence(alpha * f + beta * g, n)
    sf, sg = power_sum_sequence(f, n), power_sum_sequence(g, n)
    assert combined == [alpha * x + beta * y for x, y in zip(sf, sg)]


# -- suite 4: substitution composes with the matrix product ---------------------


@COMMON
@given(mat2s(), mat2s(), forms(max_degree=6))
def test_substitution_composes_covariantly(gamma, delta, f):
    assert substitute(gamma @ delta, f) == substitute(gamma, substitute(delta, f))


# -- suite 5: minimal polynomial divides the characteristic one -----------------


@COMMON
@given(square_matrices(max_n=5))
def test_minpoly_divides_charpoly_and_annihilates(m):
    mp = minpoly(m)
    cp = charpoly(m)
    quotient = divide_out(cp, mp, 1)  # raises on non-divisibility
    assert quotient.degree() == cp.degree() - mp.degree()
    assert horner_at_matrix(mp, m).is_zero()
    assert mp.is_monic()


@COMMON
@given(square_matrices(max_n=4))
def test_squarefree_minpoly_forces_equal_multiplicities(m):
    from sternsums.linalg import eigen_multiplicity

    squarefree = is_squarefree(minpoly(m))
    for lam in (0, 1, -1):
        geo, alg = eigen_multiplicity(m, lam)
        assert geo <= alg
        if squarefree:
            assert geo == alg


# -- suite 6: rank plus nullity --------------------------------------------------


@COMMON
@given(rect_matrices())
def test_rank_plus_nullity_is_column_count(m):
    kb = kernel_basis(m)
    assert rank(m) + nullity(m) == rank(m) + len(kb) == m.ncols
    for v in kb:
        assert not any(m.mat_vec(list(v)))


# -- suite 7: Hankel minimality ---------------------------------------------------


@st.composite
def recurrent_sequences(draw):
    order = draw(st.integers(min_value=1, max_value=4))
    coeffs = draw(
        st.lists(
            st.fractions(
                min_value=Fraction(-3), max_value=Fraction(3), max_denominator=2
            ),
            min_size=order,
            max_size=order,
        )
    )
    if not coeffs[-1]:
        coeffs[-1] = Fraction(1)
    seed = draw(
        st.lists(
            st.fractions(
                min_value=Fraction(-4), max_value=Fraction(4), max_denominator=2
            ),
            min_size=order,
            max_size=order,
        )
    )
    seq = list(seed)
    while len(seq) < 2 * order + 10:
        seq.append(sum(c * s for c, s in zip(coeffs, reversed(seq[-order:]))))
    return seq


@COMMON
@given(recurrent_sequences())
def test_mined_recurrence_is_minimal_and_holds_on_held_out_terms(seq):
    rec = min_recurrence(seq, 1)
    # sound on the whole horizon, including terms past any fitting window
    assert verify_recurrence(seq, rec)
    # and no shorter recurrence fits the same horizon
    if rec.length > 0:
        assert fit_recurrence(seq, 1, rec.length - 1) is None


@COMMON
@given(recurrent_sequences())
def test_prefix_mining_never_beats_the_full_horizon(seq):
    rec = min_recurrence(seq, 1)
    held_out = max(rec.length, 1)
    prefix = seq[: len(seq) - held_out]
    try:
        prefix_rec = min_recurrence(prefix, 1)
    except Exception:
        return
    # a full-horizon fit restricts to every prefix, so the prefix minimum
    # cannot exceed it; when the same recurrence is found it extends
    assert prefix_rec.length <= rec.length
    if prefix_rec == rec:
        assert verify_recurrence(seq, prefix_rec)

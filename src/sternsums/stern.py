"""Stern array rows and power sums over consecutive pairs.

Row n holds the 2^n - 1 nonzero values s(n, 1) .. s(n, 2^n - 1), generated
from a single 1 by inserting the sum between adjacent entries (with zeros
padding the outside).  The power sum of a form f over row n is

    S_n(f) = sum over k = 0 .. 2^n - 1 of f(s(n, k), s(n, k + 1)),

where s(n, 0) = s(n, 2^n) = 0, so the boundary pairs (0, 1) and (1, 0) are
included; for n = 1 the sum is f(0, 1) + f(1, 0).  Every function here
takes any n >= 1: the cost caps are the command line's (cli), and the
memory of a row doubles with n.

Two independent evaluation routes are provided: direct summation over
generated segments of the rows, and the transfer route, which iterates
the boundary functional g -> g(0,1) + g(1,0) as a row vector through the
transfer matrix on the swap-symmetric quotient.  The direct route sums
only the pairs that each row adds to the one before: every pair (a, b)
has the Calkin-Wilf children (a, a+b) and (a+b, b) in the next row (N.
Calkin and H. Wilf, Recounting the rationals, Amer. Math. Monthly 107,
2000), so row n repeats row n-1's pairs and adds twice those of its
segment s(n, 2^(n-2)) .. s(n, 2^(n-1)).  That segment is one insertion
step on row n-1's segment, less its two ends, so the route builds no full
row; stern_row is the one full-row walk (the proofs are in
power_sum_direct_sequence).  It reads each power from a table over the
segment's distinct values, which are few (at most F(n+1)), instead of
calling pow on every entry.

Step n of the transfer iteration holds S_n of every monomial class at
once (power_sum_table).  power_sum_sequence contracts each step with the
form's coefficients folded onto the swap classes (forms._swap_fold), but
only over a head of 2m steps, m = ceil((r+1)/2).  It then extends the
sums by the form's own minimal recurrence, of length at most m (about
r/3 in practice, the paper's bound), found by Berlekamp-Massey mod primes
below 2^30 and Chinese remaindering, and used only once an exact check on
the head proves that it holds for every later n; no characteristic
polynomial is computed.  That lift, _lift_recurrence, also gives
recurrences the one recurrence it mines each degree from.
The extension runs on whichever exact integer type it is given: int for
power_sum_sequence, Decimal for the command line, whose values then print
in linear time.  The agreement of the two routes is a core test
invariant; the per-form iteration of the full transfer matrix is the
transfer route's oracle in the tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from operator import add, mul
from typing import Sequence, Union

from .forms import HomogPoly, _swap_fold, sym_dimension, sym_quotient
from .linalg import RationalMatrix, _crt_step, _integer_rows, _primes_below_2_30

Rational = Union[int, Fraction]


def _expand(prev: list) -> list:
    """One insertion step: copy the row and insert pairwise sums."""
    out = [0] * (2 * len(prev) + 1)
    out[1::2] = prev
    out[0::2] = map(add, [0, *prev], [*prev, 0])
    return out


def stern_row(n: int) -> tuple:
    """Row n's entries s(n, 1) .. s(n, 2^n - 1), generated from row 1.

    Nothing is memoized, and memory doubles per row.  Raises ValueError
    for n < 1.
    """
    if n < 1:
        raise ValueError("row index must be at least 1")
    row = [1]
    for _ in range(n - 1):
        row = _expand(row)
    return tuple(row)


def _row_power_sum(segment: list, f: HomogPoly) -> Rational:
    """The sum of f over the consecutive pairs of segment: padded row 1 or
    a segment seg_n of power_sum_direct_sequence.

    Each term c x^a y^(r-a) of f is summed over the pairs at C level.
    Powers are read from tables over the segment's distinct values, which
    are few: every entry of row n is at most F(n+1), so seg_16 has 16385
    entries but at most 1597 distinct values.
    """
    xs, ys = segment[:-1], segment[1:]
    values = set(segment)
    r = f.degree
    total = 0
    for a, c in enumerate(f.coeffs):
        if c:
            tx = {v: v**a for v in values}
            ty = {v: v ** (r - a) for v in values}
            total += c * sum(map(mul, map(tx.__getitem__, xs), map(ty.__getitem__, ys)))
    return total


def power_sum_direct(n: int, f: HomogPoly) -> Rational:
    """S_n(f) by brute force over the generated segments, boundary pairs
    included: the last of power_sum_direct_sequence(f, n)."""
    return power_sum_direct_sequence(f, n)[-1]


def power_sum_direct_sequence(f: HomogPoly, n_max: int) -> list:
    """[S_1(f), ..., S_n_max(f)] by brute force over the rows' segments.

    S_1 is the sum over padded row 1, [0, 1, 0], and for n >= 2

        S_n = S_(n-1) + 2 * (sum of f over the consecutive pairs of
              seg_n = s(n, 2^(n-2)) .. s(n, 2^(n-1))).

    Proof: the insertion step turns each pair (a, b) of a row into its
    Calkin-Wilf children (a, a+b), (a+b, b), so the pairs of padded row n,
    in order, are the depth-(n-1) descendants of (0, 1) and then those of
    (1, 0).  The children of (0, 1) are (0, 1), (1, 1) and those of (1, 0)
    are (1, 1), (1, 0).  So row n's pairs are row n-1's, the depth-(n-2)
    descendants of (0, 1) and (1, 0), and twice the depth-(n-2)
    descendants of (1, 1), which the first time are the pairs
    (s(n, k), s(n, k+1)) for k = 2^(n-2) .. 2^(n-1) - 1.  So each row costs
    2^(n-2) pair evaluations, not 2^n.

    The walk builds no full row: seg_2 = [1, 1] and seg_(n+1) =
    _expand(seg_n)[1:-1].  Proof: by the defining recurrence s(n+1, 2k) =
    s(n, k) and s(n+1, 2k+1) = s(n, k) + s(n, k+1) for k = 2^(n-2) ..
    2^(n-1), s(n+1, 2^(n-1)) .. s(n+1, 2^n) is seg_n with the sum of each
    adjacent two inserted: _expand(seg_n) less its two ends, which read the
    zero padding.  So memory is set by seg_n_max, 2^(n_max-2) + 1 entries,
    not by row n_max's 2^n_max - 1.  Raises ValueError for n_max < 1.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    sums, segment = [_row_power_sum([0, 1, 0], f)], [1, 1]
    for n in range(2, n_max + 1):
        if n > 2:
            segment = _expand(segment)[1:-1]
        sums.append(sums[-1] + 2 * _row_power_sum(segment, f))
    return sums


def _boundary_steps(r: int, n_max: int, phi_sym: RationalMatrix):
    """Yield u_1 .. u_n_max, the boundary functional's steps on the quotient.

    S_n(f) = l . phi^(n-1) . f with l = e_0 + e_r.  The swap fixes l and
    commutes with phi, so l . phi^(n-1) . f = u_n . _swap_fold(f, 1) for
    the block phi_sym of sym_quotient(r), and u_(n+1) = u_n @ phi_sym runs
    ceil((r+1)/2) wide on integers.  The start is u_1 = e_0, or [2] for
    r = 0, where l = 2 e_0.
    """
    cols = list(zip(*phi_sym.rows))
    u = [2 if r == 0 else 1] + [0] * (len(cols) - 1)
    yield u
    for _ in range(n_max - 1):
        u = [sum(map(mul, col, u)) for col in cols]
        yield u


def _berlekamp_massey_mod(seq: Sequence[int], p: int) -> list:
    """The shortest linear recurrence of seq over GF(p), in window order.

    Returns [w_1, ..., w_L], residues mod p, with seq[n] = w_1 seq[n-L] +
    ... + w_L seq[n-1] mod p at every index n from L on, for the linear
    complexity L of seq mod p (J. L. Massey, IEEE Trans. Inf. Theory 15,
    1969).  L = 0 means that seq vanishes mod p.
    """
    s = [x % p for x in seq]
    c, b = [1], [1]  # connection polynomials, lowest degree first
    length, shift, last = 0, 1, 1
    for n in range(len(s)):
        d = sum(map(mul, c, s[n::-1])) % p
        if not d:
            shift += 1
            continue
        coef = d * pow(last, -1, p) % p
        new = c + [0] * (len(b) + shift - len(c))
        for i, x in enumerate(b):
            new[i + shift] = (new[i + shift] - coef * x) % p
        if 2 * length <= n:
            length, b, last, shift = n + 1 - length, c, d, 1
        else:
            shift += 1
        c = new
    c += [0] * (length + 1 - len(c))
    return [-x % p for x in reversed(c[1:length + 1])]


def _prime_budget(seq: list, longest: int) -> int:
    """How many primes _lift_recurrence walks at most: 2 (b // 29) + 1."""
    window = seq[:2 * longest]
    width = max((abs(x).bit_length() for x in window), default=0)
    bits = longest * (width + (longest + 1).bit_length())
    return 2 * (bits // 29) + 1


def _lift_recurrence(seq: list, longest: int, what: str) -> list | None:
    """The minimal recurrence over Q of the integers seq, lifted from its
    images mod p and checked exactly on seq; None once an image is longer
    than longest, which seq must cover twice.

    Returns [w_1, ..., w_L] in window order: seq[n] = w_1 seq[n-L] + ... +
    w_L seq[n-1] at every n from L on.  The lift protocol of sums and mine:
    Berlekamp-Massey runs mod each prime of _primes_below_2_30 in turn.  An
    image longer than any before restarts the lift, a shorter one is
    skipped, and each is combined with the others of its length by Chinese
    remaindering.  Every new candidate is checked exactly at once, and the
    check stops at its first failing index.  A refused candidate is never
    checked again: within one lift a candidate that changes never comes
    back, and a restart changes the length.

    A returned candidate is the connection polynomial C of the minimal
    recurrence of seq over Q, of length L, which the fraction-free
    recurrences._berlekamp_massey finds.  Let C' of length l <= longest be
    the candidate's: integral, C'(0) = 1, and it generates seq, so L <= l
    and seq holds at least 2l >= L + l terms.  Two recurrences that
    generate L + l terms have the same generating function N/C = N'/C', and
    N/C is in lowest terms as C is minimal; so C' = C G with G(0) = 1, and
    l >= L + deg G.  By Gauss's lemma C is then integral, C mod p generates
    seq mod p, and l, the length of an image mod p, is at most L.  So G = 1,
    l = L and C' = C.

    When C is integral (always for a form's sums, see _form_recurrence), no
    image is longer than L, so None proves L > longest.  If L <= longest, an
    image of length L is C mod p, the one recurrence of length L on 2L
    terms, and a shorter image's prime divides det H for the Hankel matrix
    H = (seq[i + j]), i, j < L, which is nonsingular: the image's recurrence
    makes H's first l + 1 columns dependent mod p.  By Cramer's rule on the
    equations at n = L .. 2L-1, C's coefficients are L x L minors of
    seq[0 .. 2L-1] over det H, a nonzero integer, so they and det H are
    below Hadamard's bound 2**b, b = longest * (w + bit length of
    longest + 1) for the largest bit length w in seq[0 .. 2 longest - 1].
    Each prime walked exceeds 2**29 (the first 20 million below 2**30 all
    do), so at most b // 29 are skipped, and b // 29 + 1 of length L make
    the symmetric residues C itself.  Past those 2 (b // 29) + 1 primes,
    _prime_budget, the lift raises ArithmeticError naming what.
    """
    size, checked, taken = -1, None, 0
    primes = islice(_primes_below_2_30(), _prime_budget(seq, longest))
    for taken, prime in enumerate(primes, 1):
        image = _berlekamp_massey_mod(seq, prime)
        if len(image) < size:
            continue  # an unlucky prime
        if len(image) > size:
            if len(image) > longest:
                return None
            size, modulus, lifted = len(image), 1, [0] * len(image)
        lifted, modulus, candidate = _crt_step(lifted, modulus, image, prime)
        if candidate == checked:
            continue
        checked = candidate
        if all(
            sum(map(mul, candidate, seq[n - size:n])) == seq[n]
            for n in range(size, len(seq))
        ):
            return candidate
    raise ArithmeticError(
        f"{what}: no recurrence lifted from Berlekamp-Massey images mod "
        f"{taken} primes below 2**30 passed its certificate"
    )


def _form_recurrence(head: list, r: int) -> list:
    """The minimal recurrence of head, 2m sums of a degree-r form, by
    _lift_recurrence with longest = m.

    The sums' generating function is u_1 (1 - xA)^-1 g for the quotient
    matrix A, so the connection polynomial of their own minimal recurrence
    divides det(1 - xA), which is integral with constant term 1; by Gauss's
    lemma it is integral too, and its length is at most m.  Two recurrences
    of length at most m that generate the 2m terms of head agree, so that
    one is head's, and the lift finds it within its budget.  Its length L is
    at most m, and the check reproduces head at every index L + 1 .. 2m
    (1-based), at least m consecutive ones; power_sum_sequence says why that
    proves it for every later index.  Raises ArithmeticError naming r when
    no candidate passes, or when an image is longer than m, which no
    recurrence of the sums is.
    """
    m = len(head) // 2
    rec = _lift_recurrence(head, m, f"r={r}")
    if rec is None:
        raise ArithmeticError(
            f"r={r}: a Berlekamp-Massey image of the head is longer than m={m}, "
            f"so no recurrence passes its certificate"
        )
    return rec


def _transfer_sums(f: HomogPoly, n_max: int, num=int) -> tuple[list, int]:
    """(sums, d): d S_1(f), ..., d S_n_max(f) as values of type num, for the
    lcm d of f's denominators.

    The head, S_1 .. S_min(n_max, 2m), comes from the quotient steps in
    int.  Past it, the recurrence of _form_recurrence extends the sums in
    num, which must be int or a type that does exact integer arithmetic
    with int: Decimal under a context that traps rounding, as the command
    line uses, because its str() takes linear time and that of int
    quadratic time.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    r = f.degree
    phi_sym = sym_quotient(r)
    [coeffs], d = _integer_rows([f.coeffs])
    g = _swap_fold(coeffs, 1)
    m = len(g)
    head = [sum(map(mul, u, g)) for u in _boundary_steps(r, min(n_max, 2 * m), phi_sym)]
    sums = list(map(num, head))
    if n_max > 2 * m:
        rec = list(map(num, _form_recurrence(head, r)))
        length, zero = len(rec), num()  # zero: an empty rec extends in num too
        for n in range(2 * m, n_max):
            sums.append(sum(map(mul, rec, sums[n - length:n]), zero))
    return sums, d


def power_sum_sequence(f: HomogPoly, n_max: int) -> list:
    """[S_1(f), ..., S_n_max(f)]: a head of quotient steps, then the form's
    own certified recurrence.

    No row is generated: the cost is polynomial in the degree and linear in
    n_max, so large n is cheap.  A caller that needs only S_n takes the last
    entry.  S_n(f) = u_n . _swap_fold(f, 1) for the steps u_n of the
    boundary functional (see _boundary_steps): the fold adds each
    coefficient onto its swap class.  S_n is linear in f, so a rational
    form is contracted on integers as d*f, for the lcm d of its
    denominators, and each sum is divided by d at the end.

    For n_max <= 2m, m = ceil((r+1)/2), every sum is a step.  Past that,
    the head is exactly 2m steps, and each later sum is a combination of
    the last L, for the minimal recurrence w of the form's own sums
    (_form_recurrence): L multiplications per term instead of the m^2 of
    a step, and L <= m.  w is found by Berlekamp-Massey mod primes and
    Chinese remaindering, with no characteristic polynomial, and is
    accepted only when it reproduces the head exactly at every index L + 1
    .. 2m.  That check proves w for every later n, whatever produced it:
    the residual b_n = S_n - (w_L S_(n-1) + ... + w_1 S_(n-L)) is
    u_1 . A^(n-L-1) . q(A) . g for the quotient matrix A, w's polynomial q
    and the folded form g, so by Cayley-Hamilton it satisfies the charpoly
    of A, of degree m, and the 2m - L >= m consecutive zeros that the check
    finds force every later b_n to vanish.  If no lifted candidate passes
    within the lift's budget of primes, ArithmeticError names r.
    """
    sums, d = _transfer_sums(f, n_max)
    return sums if d == 1 else [Fraction(s, d) for s in sums]


def power_sum_table(r: int, n_max: int, phi_sym: RationalMatrix) -> list:
    """[S_1, ..., S_n_max] of x^(r-i) y^i for every swap class i at once.

    Step n of the boundary functional (see _boundary_steps) holds S_n of
    every monomial class: entry i of u_n is S_n(x^(r-i) y^i), as the fold
    maps that monomial to the basis vector of class i.  phi_sym is the
    block of sym_quotient(r).  Entry i of the result is the sequence of
    class i, which holds x^(r-i) y^i and its swap x^i y^(r-i).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    m = sym_dimension(r)
    if phi_sym.nrows != m or phi_sym.ncols != m:
        raise ValueError(
            f"quotient matrix is {phi_sym.nrows}x{phi_sym.ncols} but degree "
            f"{r} needs {m}x{m}"
        )
    return [list(seq) for seq in zip(*_boundary_steps(r, n_max, phi_sym))]

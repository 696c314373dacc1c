"""Eigenvalue-multiplicity predictions and their exact verification.

The predicted multiplicities of the transfer matrix (and its symmetric
quotient) at the eigenvalues 0 and +-1 are periodic-plus-linear functions of
the degree r, written here as PeriodicFn values.  The bracket convention:
a function [a_1, ..., a_p] restricted to one parity class of r has period
2p, with a_1 at r == 0 (mod 2p) on the even class and a_1 at r == 1 (mod 2p)
on the odd class.

Verification is entirely rational.  Geometric multiplicities are kernel
dimensions, algebraic ones come from repeated exact division of the
characteristic polynomial, and the two diagonalizability witnesses are the
integer symmetry identity a!(r-a)! M[a][b] == b!(r-b)! M[b][a] and
squarefreeness of the minimal polynomials.  The second is certified from the
characteristic polynomial cp without computing a minimal polynomial (see
SwapBlock.minpoly_squarefree).  A root of cp of multiplicity k + 1 is a root
of g = gcd(cp, cp') of multiplicity k, and on every degree swept g has no
roots but the eigenvalues 0 and +-1 that verify checks anyway; then the
matrix is diagonalizable iff each repeated one has nullity(M - lam I) equal
to k + 1, a nullity the multiplicity check has already computed.  Should g
have any other factor, the squarefreeness of the Krylov minimal polynomial
decides instead.

The spectral work runs on two blocks of about half the size of the transfer
matrix.  The swap J: f(x, y) -> f(y, x) commutes with it, because
J sigma J = tau, so the symmetric and the antisymmetric forms are both
invariant and the transfer matrix acts on each.  The symmetric block is its
matrix on the quotient by the antisymmetric forms (sym_quotient: the
quotient operator whose multiplicities are predicted as well), the
antisymmetric block its matrix on the quotient by the symmetric forms
(anti_quotient).  So the characteristic polynomial of the transfer matrix is
the product of the blocks' ones, its minimal polynomial is the lcm of
theirs (squarefree iff both are), and each of its multiplicities is the sum
of the blocks' multiplicities.  The split is certified, not assumed:
spectral_context checks phi[r-a][r-b] == phi[a][b] entrywise, which is
J phi J == phi, and raises ArithmeticError naming the degree when it fails.
verify_single builds that context once per degree, and every check reads
phi, the blocks, their polynomials and the twist kernel from it.  As
J rho J = rho^-1 for rho = RHO_TWIST, J maps the twist kernel onto itself,
so it is eliminated as its symmetric and antisymmetric halves, indexed by
swap class as the blocks are; the symmetric fold is injective on the first
and kills the second.  On a form of swap sign s and even degree, the
quarter turn f(x, y) -> f(y, -x) acts on entry a as s (-1)^a, which is
s (-1)^i on both entries r - i and i of class i, so every dimension that
involves its eigenspaces Y+- is a rank of one parity of a half's entries.

A composition subtlety drives the eigenspace computations.  With row-vector
substitution the operators compose covariantly, so the operator that the
transfer matrix factors through is tau^-1 @ sigma (RHO_TWIST), not
sigma @ tau^-1: the transfer matrix equals the tau-substitution applied
after (RHO_TWIST substitution + identity).  RHO_TWIST is conjugate to RHO,
so every dimension formula is unchanged, but the annihilation identities
hold for RHO_TWIST's eigenspaces and are stated that way here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from .forms import (
    RHO_TWIST,
    _swap_fold,
    anti_quotient,
    operator_matrix,
    phi_matrix,
    sym_quotient,
)
from .linalg import (
    IntPolynomial,
    RationalMatrix,
    _integer_kernel,
    _normalize_entry,
    charpoly,
    eigen_multiplicity,
    is_squarefree,
    minpoly,
    polynomial_gcd,
    rank,
    root_power,
)

Rational = Union[int, Fraction]

ODD = "odd"
EVEN = "even"


@dataclass(frozen=True)
class PeriodicFn:
    """linear_slope * r plus a parity-restricted periodic table of values.

    values = (a_1, ..., a_p) repeats with period 2p over the parity class;
    see the module docstring for where a_1 sits.
    """

    values: tuple
    parity: str
    linear_slope: Fraction = Fraction(0)

    def __post_init__(self):
        if not self.values:
            raise ValueError("periodic part needs at least one value")
        if self.parity not in (ODD, EVEN):
            raise ValueError(f"parity must be '{ODD}' or '{EVEN}'")


def periodic_eval(fn: PeriodicFn, r: int) -> Rational:
    """Evaluate at a degree of the matching parity; exact rational result."""
    if r % 2 != (1 if fn.parity == ODD else 0):
        raise ValueError(f"degree {r} does not lie in the {fn.parity} class")
    p = len(fn.values)
    idx = ((r - 1) // 2) % p if fn.parity == ODD else (r // 2) % p
    val = fn.linear_slope * r + fn.values[idx]
    return _normalize_entry(val)


def _pf(slope, values, parity) -> PeriodicFn:
    return PeriodicFn(
        tuple(Fraction(v) for v in values), parity, Fraction(slope)
    )


F = Fraction

# Multiplicity lower bounds (observed to be equalities on the swept range).
MULT_PHI_ZERO = _pf(F(1, 3), [F(-1, 3), 1, F(1, 3)], ODD)
MULT_PHI_SYM_ZERO = _pf(F(1, 6), [F(-1, 6), F(1, 2), F(1, 6)], ODD)
MULT_PHI_PLUS = _pf(F(1, 6), [-1, F(2, 3), F(1, 3), 0, F(-1, 3), F(4, 3)], EVEN)
MULT_PHI_MINUS = _pf(F(1, 6), [0, F(-1, 3), F(4, 3), -1, F(2, 3), F(1, 3)], EVEN)
MULT_PHI_SYM_PLUS = _pf(
    F(1, 12), [-1, F(-1, 6), F(-1, 3), F(-1, 2), F(-2, 3), F(1, 6)], EVEN
)
MULT_PHI_SYM_MINUS = _pf(
    F(1, 12), [0, F(-1, 6), F(2, 3), F(-1, 2), F(1, 3), F(1, 6)], EVEN
)
MULT_PHI_PM_SUM = _pf(F(1, 3), [-1, F(1, 3), F(5, 3)], EVEN)
MULT_PHI_SYM_PM_SUM = _pf(F(1, 6), [-1, F(-1, 3), F(1, 3)], EVEN)

# Eigenspace dimensions for even degree.
DIM_X = _pf(F(2, 3), [0, F(2, 3), F(4, 3)], EVEN)
DIM_Y_PLUS = _pf(F(1, 2), [1, 0], EVEN)
DIM_Y_MINUS = _pf(F(1, 2), [0, 1], EVEN)
DIM_X_SYM = _pf(F(1, 3), [0, F(1, 3), F(2, 3)], EVEN)
DIM_Y_PLUS_SYM = _pf(F(1, 4), [1, F(1, 2)], EVEN)
DIM_Y_MINUS_SYM = _pf(F(1, 4), [0, F(1, 2)], EVEN)
# Intersection lower bounds by inclusion-exclusion; the transfer matrix acts
# by -1 on X n Y+ and by +1 on X n Y-, so these pair with the bounds above.
DIM_X_CAP_Y_PLUS = MULT_PHI_MINUS
DIM_X_CAP_Y_MINUS = MULT_PHI_PLUS
DIM_X_CAP_Y_PLUS_SYM = MULT_PHI_SYM_MINUS
DIM_X_CAP_Y_MINUS_SYM = MULT_PHI_SYM_PLUS

# Counts for odd degree (the minus-one eigenspace of the twist substitution).
COUNT_W = MULT_PHI_ZERO
COUNT_W_SYM = MULT_PHI_SYM_ZERO

# Recurrence-length bounds.
LENGTH_BOUND_ODD = _pf(F(1, 3), [F(2, 3), 0, F(1, 3)], ODD)
LENGTH_BOUND_EVEN_HOMOGENEOUS = _pf(F(1, 3), [4, F(10, 3), F(8, 3)], EVEN)
LENGTH_BOUND_EVEN_AFFINE_ALT = _pf(F(1, 3), [2, F(4, 3), F(2, 3)], EVEN)


def _dim_value(fn: PeriodicFn, r: int) -> int:
    """Evaluate a dimension or length formula; must be an integer >= 0."""
    v = periodic_eval(fn, r)
    if not isinstance(v, int) or v < 0:
        raise ValueError(f"dimension or length formula produced {v} at r={r}")
    return v


def predicted_bounds(r: int) -> dict:
    """Predicted multiplicities at the relevant eigenvalues for degree r.

    Odd r: eigenvalue 0 on both operators.  Even r: eigenvalues +-1 on both,
    plus the two summed bounds.  All values are nonnegative integers.
    """
    if r < 1:
        raise ValueError("degree must be at least 1")
    if r % 2:
        return {
            "m_phi_0": _dim_value(MULT_PHI_ZERO, r),
            "m_phi_sym_0": _dim_value(MULT_PHI_SYM_ZERO, r),
        }
    return {
        "m_phi_plus1": _dim_value(MULT_PHI_PLUS, r),
        "m_phi_minus1": _dim_value(MULT_PHI_MINUS, r),
        "m_phi_sym_plus1": _dim_value(MULT_PHI_SYM_PLUS, r),
        "m_phi_sym_minus1": _dim_value(MULT_PHI_SYM_MINUS, r),
        "m_phi_pm_sum": _dim_value(MULT_PHI_PM_SUM, r),
        "m_phi_sym_pm_sum": _dim_value(MULT_PHI_SYM_PM_SUM, r),
    }


@dataclass(frozen=True)
class SwapBlock:
    """The transfer matrix on one swap quotient, with its spectral data.

    The charpoly, the squarefreeness of the minimal polynomial and each
    eigenvalue's multiplicities are computed on first use and kept, so a
    context built for a check that needs none of them (odd_case_dims, say)
    does not pay for them, and verify_single and the squarefree witness
    share each block nullity.
    """

    matrix: RationalMatrix

    @cached_property
    def charpoly(self) -> IntPolynomial:
        return charpoly(self.matrix)

    @cached_property
    def _multiplicities(self) -> dict:
        return {}

    @cached_property
    def minpoly_squarefree(self) -> bool:
        """Whether the minimal polynomial is squarefree, without computing it.

        A root of cp of multiplicity k + 1 is a root of g = gcd(cp, cp') of
        multiplicity k.  When g has no roots but 0 and +-1, the only
        eigenvalues that verify checks, the block is diagonalizable iff each
        of them that g has is semisimple: nullity(block - lam I) is k + 1.
        Otherwise the Krylov minimal polynomial decides.
        """
        cp = self.charpoly
        g = polynomial_gcd(cp, cp.derivative())
        repeated = {lam: root_power(g, lam) for lam in (0, 1, -1)}
        if sum(repeated.values()) < g.degree():
            return is_squarefree(minpoly(self.matrix))
        return all(
            self.multiplicity(lam)[0] == k + 1 for lam, k in repeated.items() if k
        )

    def multiplicity(self, lam: Rational) -> tuple[int, int]:
        """(geometric, algebraic) multiplicity of lam on this block."""
        known = self._multiplicities
        if lam not in known:
            known[lam] = eigen_multiplicity(self.matrix, lam, self.charpoly)
        return known[lam]


@dataclass(frozen=True)
class SpectralContext:
    """What the checks for one degree share; built once by spectral_context.

    sym and anti are the transfer matrix's blocks on the two swap quotients
    (anti is None for r = 0, which has no antisymmetric form).  twist_sym and
    twist_anti are integer bases of the swap halves of the kernel of
    twist + 1 for odd r and of twist^2 + twist + 1 for even r (the space W,
    respectively X).  Both are indexed by swap class, as the blocks are
    (see forms._swap_fold): a vector w of the half of sign s = +-1 stands
    for the form v with v[r-i] = w[i] and v[i] = s w[i], for i <= r/2
    (i < r/2 for s = -1, whose middle entry is 0).
    """

    r: int
    phi: RationalMatrix
    sym: SwapBlock
    anti: SwapBlock | None
    twist_sym: tuple
    twist_anti: tuple

    @property
    def blocks(self) -> tuple:
        return (self.sym,) if self.anti is None else (self.sym, self.anti)


def _half_kernel(part: RationalMatrix, sign: int) -> tuple:
    """The half of sign s of ker part (see SpectralContext): the integer
    kernel of part's rows folded onto the swap classes of sign s."""
    folded = [_swap_fold(row, sign) for row in part.rows]
    return tuple(_integer_kernel(RationalMatrix(folded))) if folded[0] else ()


def spectral_context(r: int) -> SpectralContext:
    """The per-degree context, after certifying that phi commutes with the swap.

    Raises ArithmeticError naming r and a witness entry when
    phi[r-a][r-b] != phi[a][b] somewhere, because the block split would
    then be unsound.
    """
    if r < 0:
        raise ValueError("degree must be nonnegative")
    phi = phi_matrix(r)
    rows = phi.rows
    n = r + 1
    witness = next(
        ((a, b) for a in range(n) for b in range(n) if rows[r - a][r - b] != rows[a][b]),
        None,
    )
    if witness is not None:
        a, b = witness
        raise ArithmeticError(
            f"r={r}: phi does not commute with the swap f(x, y) -> f(y, x): "
            f"phi[{r - a}][{r - b}] = {rows[r - a][r - b]} "
            f"but phi[{a}][{b}] = {rows[a][b]}"
        )
    twist = operator_matrix(RHO_TWIST, r)
    ident = RationalMatrix.identity(n)
    if r % 2:
        twist_part = twist + ident
    else:
        # substitution composes covariantly, so this is twist @ twist
        twist_part = operator_matrix(RHO_TWIST @ RHO_TWIST, r) + twist + ident
    return SpectralContext(
        r=r,
        phi=phi,
        sym=SwapBlock(sym_quotient(r, phi)),
        anti=SwapBlock(anti_quotient(r, phi)) if r else None,
        twist_sym=_half_kernel(twist_part, 1),
        twist_anti=_half_kernel(twist_part, -1),
    )


def _vanishing_dim(basis: tuple, parity: int) -> int:
    """Dimension of the part of span(basis) whose entries of this parity vanish."""
    rows = [w[parity::2] for w in basis]
    return len(basis) - (rank(RationalMatrix(rows)) if rows and rows[0] else 0)


def eigenspace_dims(ctx: SpectralContext) -> dict:
    """Formula and computed dimensions of X, Y+-, their quotient images, and
    the pairwise intersections, for even degree.

    X is the kernel of twist^2 + twist + 1 for the twist substitution, Y+-
    are the +-1 eigenspaces of the quarter-turn substitution, and the _sym
    entries are dimensions of the images under the symmetric fold.  Each
    entry carries the formula (or inclusion-exclusion bound) next to the
    exactly computed value.  The degree is ctx.r; with h = r/2:

    - Y+- are spanned by e_b +- (-1)^b e_(r-b) for b < h, and e_h lies in
      Y+ for even h, in Y- for odd h.  Their images are spanned by the even
      and the odd classes 0..h of the quotient, respectively.
    - The fold maps X_sym onto fold X one to one, and X_sym n Y+-
      onto fold X n fold Y+-.  The swap commutes with the quarter turn, so
      X n Y+- is (X_sym n Y+-) + (X_anti n Y+-).  On the half of sign s,
      Y+ is where the classes i with s (-1)^i = -1 vanish, and Y- where
      the others do; as r is even, (-1)^i is also (-1)^(r-i).
    """
    r = ctx.r
    if r < 2 or r % 2:
        raise ValueError("even degree at least 2 required")
    half = r // 2
    sym, anti = ctx.twist_sym, ctx.twist_anti
    dim_x_yp_sym = _vanishing_dim(sym, 1)
    dim_x_ym_sym = _vanishing_dim(sym, 0)
    dim_x_yp = dim_x_yp_sym + _vanishing_dim(anti, 0)
    dim_x_ym = dim_x_ym_sym + _vanishing_dim(anti, 1)

    def formula(fn, computed):
        return {"formula": _dim_value(fn, r), "computed": computed}

    def bound(fn, computed):
        return {"bound": periodic_eval(fn, r), "computed": computed}

    return {
        "dim_X": formula(DIM_X, len(sym) + len(anti)),
        "dim_Y_plus": formula(DIM_Y_PLUS, half + 1 - half % 2),
        "dim_Y_minus": formula(DIM_Y_MINUS, half + half % 2),
        "dim_X_sym": formula(DIM_X_SYM, len(sym)),
        "dim_Y_plus_sym": formula(DIM_Y_PLUS_SYM, half // 2 + 1),
        "dim_Y_minus_sym": formula(DIM_Y_MINUS_SYM, (half + 1) // 2),
        "dim_X_cap_Y_plus": bound(DIM_X_CAP_Y_PLUS, dim_x_yp),
        "dim_X_cap_Y_minus": bound(DIM_X_CAP_Y_MINUS, dim_x_ym),
        "dim_X_cap_Y_plus_sym": bound(DIM_X_CAP_Y_PLUS_SYM, dim_x_yp_sym),
        "dim_X_cap_Y_minus_sym": bound(DIM_X_CAP_Y_MINUS_SYM, dim_x_ym_sym),
    }


def odd_case_dims(ctx: SpectralContext) -> dict:
    """Residue count versus kernel dimension for odd degree.

    Counts x powers a in 0..r with 2a == r + 3 (mod 6), plain and modulo the
    pairing a ~ r - a, and reads off the minus-one eigenspace W of the twist
    substitution and its image in the quotient, which is as large as the
    symmetric half W_sym.  The counts should equal dim W and dim W_sym;
    verify_single reports a mismatch as a failed check.  The degree is
    ctx.r.
    """
    r = ctx.r
    if r % 2 == 0:
        raise ValueError("odd degree required")
    hits = [a for a in range(r + 1) if (2 * a - (r + 3)) % 6 == 0]
    paired = {frozenset((a, r - a)) for a in hits}
    return {
        "count": len(hits),
        "count_sym": len(paired),
        "dim_W": len(ctx.twist_sym) + len(ctx.twist_anti),
        "dim_W_sym": len(ctx.twist_sym),
        "formula": _dim_value(COUNT_W, r),
        "formula_sym": _dim_value(COUNT_W_SYM, r),
    }


def check_annihilation_identities(ctx: SpectralContext) -> dict:
    """Structural identities behind the multiplicity bounds.

    Odd r: the transfer matrix kills every kernel vector of (twist + 1).
    Even r: (transfer + quarter-turn) kills every kernel vector of
    twist^2 + twist + 1, where the quarter turn acts on entry a of a form
    of swap sign s as s (-1)^a.  Each form is rebuilt from its half, class
    i giving the entries r - i and i; the check is vacuously true when the
    eigenspace is zero.  The degree is ctx.r.
    """
    r = ctx.r
    if r < 1:
        raise ValueError("degree must be at least 1")
    forms = []
    for sign, basis in ((1, ctx.twist_sym), (-1, ctx.twist_anti)):
        for w in basis:
            v = [0] * (r + 1)
            for i, x in enumerate(w):
                v[r - i], v[i] = x, sign * x
            forms.append((sign, v))
    if r % 2:
        ok = all(not any(ctx.phi.mat_vec(v)) for _, v in forms)
        return {"phi_kills_W": ok, "space_dim": len(forms)}
    ok = all(
        not any(
            p + (-sign if a % 2 else sign) * x
            for a, (p, x) in enumerate(zip(ctx.phi.mat_vec(v), v))
        )
        for sign, v in forms
    )
    return {"phi_plus_iota_kills_X": ok, "space_dim": len(forms)}


def check_diagonalizability(ctx: SpectralContext) -> tuple:
    """(symmetry_identity, minpoly_squarefree) witnesses for degree ctx.r.

    The first checks a!(r-a)! M[a][b] == b!(r-b)! M[b][a] for every entry of
    the transfer matrix (the integer form of conjugating by the diagonal of
    square roots of k!(r-k)!).  The second checks squarefreeness of the
    minimal polynomials of both swap blocks (their lcm is the minimal
    polynomial of the transfer matrix, and the symmetric block is its
    quotient) by SwapBlock.minpoly_squarefree: the block nullities at the
    repeated eigenvalues 0 and +-1, or the radical if another one repeats.
    """
    r = ctx.r
    phi = ctx.phi
    fact = [math.factorial(k) for k in range(r + 1)]
    weights = [fact[a] * fact[r - a] for a in range(r + 1)]
    symmetric = all(
        weights[a] * phi.rows[a][b] == weights[b] * phi.rows[b][a]
        for a in range(r + 1)
        for b in range(a + 1, r + 1)
    )
    squarefree = all(block.minpoly_squarefree for block in ctx.blocks)
    return symmetric, squarefree


@dataclass(frozen=True)
class MultiplicityCheck:
    predicted: int
    geometric: int
    algebraic: int

    @property
    def bound_holds(self) -> bool:
        return self.geometric >= self.predicted and self.algebraic >= self.predicted

    @property
    def equal(self) -> bool:
        return self.geometric == self.predicted and self.algebraic == self.predicted

    def to_json_dict(self) -> dict:
        return {
            "predicted": self.predicted,
            "geometric": self.geometric,
            "algebraic": self.algebraic,
            "bound_holds": self.bound_holds,
            "equal": self.equal,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Everything checked for one degree r."""

    r: int
    parity: str
    multiplicities: dict
    sum_checks: dict
    symmetry_identity: bool
    minpoly_squarefree: bool
    dims: dict
    annihilation: dict

    @property
    def bounds_hold(self) -> bool:
        mults = all(m.bound_holds for m in self.multiplicities.values())
        sums = all(c["computed"] >= c["predicted"] for c in self.sum_checks.values())
        dims_ok = True
        for entry in self.dims.values():
            for key in ("formula", "residue_count"):
                target = entry.get(key)
                if target is not None and entry["computed"] != target:
                    dims_ok = False
            bound = entry.get("bound")
            if bound is not None and entry["computed"] < bound:
                dims_ok = False
        return mults and sums and dims_ok

    @property
    def all_equal(self) -> bool:
        mults = all(m.equal for m in self.multiplicities.values())
        sums = all(c["computed"] == c["predicted"] for c in self.sum_checks.values())
        return mults and sums

    @property
    def diagonalizable_witnessed(self) -> bool:
        return self.symmetry_identity and self.minpoly_squarefree

    @property
    def passed(self) -> bool:
        return (
            self.bounds_hold
            and self.all_equal
            and self.diagonalizable_witnessed
            and all(v for k, v in self.annihilation.items() if isinstance(v, bool))
        )

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "parity": self.parity,
            "multiplicities": {
                k: v.to_json_dict() for k, v in self.multiplicities.items()
            },
            "sum_checks": self.sum_checks,
            "symmetry_identity": self.symmetry_identity,
            "minpoly_squarefree": self.minpoly_squarefree,
            "dims": self.dims,
            "annihilation": self.annihilation,
            "passed": self.passed,
        }


def verify_single(r: int) -> VerificationReport:
    """Run every check for one degree, on one spectral context."""
    if r < 1:
        raise ValueError("degree must be at least 1")
    ctx = spectral_context(r)
    preds = predicted_bounds(r)

    # phi's multiplicities are the sums over its two swap blocks; phi_sym is
    # the symmetric block alone.
    names = {0: "0", 1: "plus1", -1: "minus1"}
    lams = (0,) if r % 2 else (1, -1)
    sym = {lam: ctx.sym.multiplicity(lam) for lam in lams}
    anti = {lam: ctx.anti.multiplicity(lam) for lam in lams}
    mults = {}
    for lam in lams:
        key = f"m_phi_{names[lam]}"
        (sym_geo, sym_alg), (anti_geo, anti_alg) = sym[lam], anti[lam]
        mults[key] = MultiplicityCheck(preds[key], sym_geo + anti_geo, sym_alg + anti_alg)
    for lam in lams:
        key = f"m_phi_sym_{names[lam]}"
        mults[key] = MultiplicityCheck(preds[key], *sym[lam])

    sums = {}
    if r % 2:
        od = odd_case_dims(ctx)
        dims = {
            "dim_W": {
                "formula": od["formula"],
                "computed": od["dim_W"],
                "residue_count": od["count"],
            },
            "dim_W_sym": {
                "formula": od["formula_sym"],
                "computed": od["dim_W_sym"],
                "residue_count": od["count_sym"],
            },
        }
    else:
        sums["m_phi_pm_sum"] = {
            "predicted": preds["m_phi_pm_sum"],
            "computed": mults["m_phi_plus1"].geometric
            + mults["m_phi_minus1"].geometric,
        }
        sums["m_phi_sym_pm_sum"] = {
            "predicted": preds["m_phi_sym_pm_sum"],
            "computed": mults["m_phi_sym_plus1"].geometric
            + mults["m_phi_sym_minus1"].geometric,
        }
        dims = eigenspace_dims(ctx)

    symmetric, squarefree = check_diagonalizability(ctx)
    annihilation = check_annihilation_identities(ctx)

    return VerificationReport(
        r=r,
        parity=ODD if r % 2 else EVEN,
        multiplicities=mults,
        sum_checks=sums,
        symmetry_identity=symmetric,
        minpoly_squarefree=squarefree,
        dims=dims,
        annihilation=annihilation,
    )


def verify_range(r_min: int, r_max: int) -> list:
    """Reports for every degree in [r_min, r_max], in order."""
    if not 1 <= r_min <= r_max:
        raise ValueError(f"need 1 <= r_min <= r_max, got {r_min}..{r_max}")
    return [verify_single(r) for r in range(r_min, r_max + 1)]

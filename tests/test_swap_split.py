"""The swap-block split of the transfer matrix against the full-matrix route.

verify_single computes every spectral quantity on the two swap blocks of
phi, reading them from one spectral context per degree.  The oracle here is
the route it replaced: every multiplicity on the full (r+1)-wide matrix,
each check rebuilding what it needs, and the eigenspace kernels used as the
Fraction vectors kernel_basis returns, the twist kernel eliminated full
width.  The squarefree witness of each block, certified from its block
nullities (or, for a repeated eigenvalue other than 0 and +-1, from its
Krylov minimal polynomial), is checked against the radical evaluated at the
block and the squarefreeness of the minimal polynomial.
"""

import json
import math
import random
from collections import Counter

import pytest

import sternsums.forms as forms
import sternsums.linalg as linalg
import sternsums.spectra as spectra
from sternsums.cli import EXIT_VERIFICATION_FAILED, VERIFY_MAX_DEGREE, main
from sternsums.forms import (
    IOTA,
    RHO_TWIST,
    anti_quotient,
    operator_matrix,
    phi_matrix,
    sym_quotient,
)
from sternsums.linalg import (
    RationalMatrix,
    charpoly,
    divide_out,
    eigen_multiplicity,
    is_squarefree,
    kernel_basis,
    minpoly,
    polynomial_gcd,
    rank,
)
from sternsums.spectra import (
    COUNT_W,
    COUNT_W_SYM,
    DIM_X,
    DIM_X_CAP_Y_MINUS,
    DIM_X_CAP_Y_MINUS_SYM,
    DIM_X_CAP_Y_PLUS,
    DIM_X_CAP_Y_PLUS_SYM,
    DIM_X_SYM,
    DIM_Y_MINUS,
    DIM_Y_MINUS_SYM,
    DIM_Y_PLUS,
    DIM_Y_PLUS_SYM,
    EVEN,
    ODD,
    MultiplicityCheck,
    VerificationReport,
    periodic_eval,
    predicted_bounds,
    SwapBlock,
    spectral_context,
    verify_single,
)
from test_forms import fold_matrix, swap_projection
from test_linalg import _block_diag, _conjugate, _jordan, horner_at_matrix


# -- the full-matrix oracle ---------------------------------------------------


def project_span_dim(projection: RationalMatrix, vectors: list) -> int:
    """Dimension of the image of span(vectors) under the quotient projection."""
    if not vectors:
        return 0
    return rank(RationalMatrix([projection.mat_vec(v) for v in vectors]))


def _full_eigenspace_dims(r: int) -> dict:
    n = r + 1
    ident = RationalMatrix.identity(n)
    twist = operator_matrix(RHO_TWIST, r)
    x_mat = twist @ twist + twist + ident
    iota_m = operator_matrix(IOTA, r)
    projection = swap_projection(r, 1)
    x_basis = kernel_basis(x_mat)
    yp_basis = kernel_basis(iota_m - ident)
    ym_basis = kernel_basis(iota_m + ident)

    def joint_dim(mat_a, mat_b):
        return len(kernel_basis(RationalMatrix([*mat_a.rows, *mat_b.rows])))

    def span_sum_dim(vecs_a, vecs_b):
        vecs = [projection.mat_vec(v) for v in list(vecs_a) + list(vecs_b)]
        return rank(RationalMatrix(vecs)) if vecs else 0

    dim_x_sym = project_span_dim(projection, x_basis)
    dim_yp_sym = project_span_dim(projection, yp_basis)
    dim_ym_sym = project_span_dim(projection, ym_basis)

    def formula(fn, computed):
        return {"formula": periodic_eval(fn, r), "computed": computed}

    def bound(fn, computed):
        return {"bound": periodic_eval(fn, r), "computed": computed}

    return {
        "dim_X": formula(DIM_X, len(x_basis)),
        "dim_Y_plus": formula(DIM_Y_PLUS, len(yp_basis)),
        "dim_Y_minus": formula(DIM_Y_MINUS, len(ym_basis)),
        "dim_X_sym": formula(DIM_X_SYM, dim_x_sym),
        "dim_Y_plus_sym": formula(DIM_Y_PLUS_SYM, dim_yp_sym),
        "dim_Y_minus_sym": formula(DIM_Y_MINUS_SYM, dim_ym_sym),
        "dim_X_cap_Y_plus": bound(DIM_X_CAP_Y_PLUS, joint_dim(x_mat, iota_m - ident)),
        "dim_X_cap_Y_minus": bound(DIM_X_CAP_Y_MINUS, joint_dim(x_mat, iota_m + ident)),
        "dim_X_cap_Y_plus_sym": bound(
            DIM_X_CAP_Y_PLUS_SYM,
            dim_x_sym + dim_yp_sym - span_sum_dim(x_basis, yp_basis),
        ),
        "dim_X_cap_Y_minus_sym": bound(
            DIM_X_CAP_Y_MINUS_SYM,
            dim_x_sym + dim_ym_sym - span_sum_dim(x_basis, ym_basis),
        ),
    }


def full_matrix_report(r: int) -> VerificationReport:
    """verify_single on the full transfer matrix, without the swap split."""
    n = r + 1
    phi = phi_matrix(r)
    projection, phi_sym = swap_projection(r, 1), sym_quotient(r)
    preds = predicted_bounds(r)
    twist = operator_matrix(RHO_TWIST, r)
    ident = RationalMatrix.identity(n)
    if r % 2:
        pairs = [("m_phi_0", phi, 0), ("m_phi_sym_0", phi_sym, 0)]
    else:
        pairs = [
            ("m_phi_plus1", phi, 1),
            ("m_phi_minus1", phi, -1),
            ("m_phi_sym_plus1", phi_sym, 1),
            ("m_phi_sym_minus1", phi_sym, -1),
        ]
    mults = {
        key: MultiplicityCheck(preds[key], *eigen_multiplicity(mat, lam))
        for key, mat, lam in pairs
    }
    sums = {}
    if r % 2:
        w_basis = kernel_basis(twist + ident)
        hits = [a for a in range(n) if (2 * a - (r + 3)) % 6 == 0]
        dims = {
            "dim_W": {
                "formula": periodic_eval(COUNT_W, r),
                "computed": len(w_basis),
                "residue_count": len(hits),
            },
            "dim_W_sym": {
                "formula": periodic_eval(COUNT_W_SYM, r),
                "computed": project_span_dim(projection, w_basis),
                "residue_count": len({frozenset((a, r - a)) for a in hits}),
            },
        }
        annihilation = {
            "phi_kills_W": all(not any(phi.mat_vec(v)) for v in w_basis),
            "space_dim": len(w_basis),
        }
    else:
        for key, plus, minus in (
            ("m_phi_pm_sum", "m_phi_plus1", "m_phi_minus1"),
            ("m_phi_sym_pm_sum", "m_phi_sym_plus1", "m_phi_sym_minus1"),
        ):
            sums[key] = {
                "predicted": preds[key],
                "computed": mults[plus].geometric + mults[minus].geometric,
            }
        dims = _full_eigenspace_dims(r)
        x_basis = kernel_basis(twist @ twist + twist + ident)
        combo = phi + operator_matrix(IOTA, r)
        annihilation = {
            "phi_plus_iota_kills_X": all(not any(combo.mat_vec(v)) for v in x_basis),
            "space_dim": len(x_basis),
        }
    fact = [math.factorial(k) for k in range(n)]
    symmetric = all(
        fact[a] * fact[r - a] * phi.rows[a][b] == fact[b] * fact[r - b] * phi.rows[b][a]
        for a in range(n)
        for b in range(a + 1, n)
    )
    squarefree = is_squarefree(minpoly(phi)) and is_squarefree(minpoly(phi_sym))
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


def _lcm(p, q):
    return divide_out(p * q, polynomial_gcd(p, q), 1)


# -- the block route against the oracle ----------------------------------------


def test_block_route_reports_equal_the_full_matrix_route():
    for r in range(1, 21):
        assert verify_single(r).to_json_dict() == full_matrix_report(r).to_json_dict(), r


def test_eigenspace_dims_equal_the_full_matrix_route_past_20():
    for r in range(22, 41, 2):
        assert spectra.eigenspace_dims(spectral_context(r)) == _full_eigenspace_dims(r), r


def test_blocks_split_the_spectrum_of_phi():
    for r in range(1, 21):
        phi = phi_matrix(r)
        sym = sym_quotient(r)
        q, anti = swap_projection(r, -1), anti_quotient(r)
        assert q @ phi == anti @ q, r
        assert sym.nrows + anti.nrows == r + 1, r
        assert charpoly(phi) == charpoly(sym) * charpoly(anti), r
        assert minpoly(phi) == _lcm(minpoly(sym), minpoly(anti)), r


def test_anti_quotient_goldens():
    # by hand at r = 3: the rows of Q @ phi are phi[3] - phi[0] and phi[2] - phi[1]
    q, anti = RationalMatrix(fold_matrix(3, -1)), anti_quotient(3)
    assert q.to_lists() == [[-1, 0, 0, 1], [0, -1, 1, 0]]
    assert q @ phi_matrix(3) == anti @ q
    assert anti.to_lists() == [[1, 0], [0, 0]]
    assert anti_quotient(1).to_lists() == [[1]]
    with pytest.raises(ValueError):
        anti_quotient(0)


def test_context_holds_one_block_per_swap_class():
    ctx = spectral_context(6)
    assert [b.matrix.nrows for b in ctx.blocks] == [4, 3]
    assert ctx.sym.charpoly == charpoly(ctx.sym.matrix)
    assert ctx.anti.minpoly_squarefree == is_squarefree(minpoly(ctx.anti.matrix))
    halves = ctx.twist_sym + ctx.twist_anti
    assert halves and all(isinstance(x, int) for w in halves for x in w)
    assert spectral_context(0).blocks == (spectral_context(0).sym,)
    with pytest.raises(ValueError):
        spectra.odd_case_dims(ctx)


# -- the squarefree witness -----------------------------------------------------


def _radical_annihilates(block: SwapBlock) -> bool:
    """The radical route: cp / gcd(cp, cp') annihilates the block."""
    cp = block.charpoly
    radical = divide_out(cp, polynomial_gcd(cp, cp.derivative()), 1)
    return horner_at_matrix(radical, block.matrix).is_zero()


def _count_minpoly(monkeypatch) -> Counter:
    """Counts the witness's fallbacks: its calls of the Krylov minpoly."""
    calls = Counter()
    original = spectra.minpoly

    def counted(m):
        calls["minpoly"] += 1
        return original(m)

    monkeypatch.setattr(spectra, "minpoly", counted)
    return calls


def _assert_minpoly_squarefree_agrees_with_the_oracles(monkeypatch, degrees):
    # every block takes the nullity route, which agrees with both oracles
    blocks = [block for r in degrees for block in spectral_context(r).blocks]
    calls = _count_minpoly(monkeypatch)
    witnesses = [block.minpoly_squarefree for block in blocks]
    assert calls["minpoly"] == 0
    for block, witness in zip(blocks, witnesses):
        assert witness is _radical_annihilates(block) is True
        assert witness is is_squarefree(minpoly(block.matrix))


def test_minpoly_squarefree_against_the_minpoly_oracle(monkeypatch):
    # the oracles cost most at the top, so the default sweep samples it
    degrees = [*range(1, 21), 30, 45, 60]
    _assert_minpoly_squarefree_agrees_with_the_oracles(monkeypatch, degrees)


@pytest.mark.extended
def test_minpoly_squarefree_against_the_minpoly_oracle_up_to_r60(monkeypatch):
    _assert_minpoly_squarefree_agrees_with_the_oracles(monkeypatch, range(1, 61))


def _seeded_witness_cases():
    """(matrix, expected witness): Jordan and nilpotent matrices are not
    diagonalizable; derogatory diagonalizable ones repeat an eigenvalue."""
    rng = random.Random(1971)
    for trial in range(90):
        kind = trial % 3
        if kind == 0:
            lam = rng.randint(-3, 3)
            blocks = [_jordan(lam, rng.randint(2, 3))]
            blocks += [_jordan(rng.randint(-3, 3), 1) for _ in range(rng.randint(0, 2))]
            yield _conjugate(rng, _block_diag(blocks)), False
        elif kind == 1:
            n = rng.randint(2, 5)
            upper = [[rng.randint(-3, 3) * (j > i) for j in range(n)] for i in range(n)]
            upper[0][n - 1] = rng.choice([-2, -1, 1, 2])  # nonzero, so not 0
            yield _conjugate(rng, RationalMatrix(upper)), False
        else:
            eigenvalues = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            diag = eigenvalues + [rng.choice(eigenvalues)]  # one value repeats
            blocks = [_jordan(lam, 1) for lam in diag]
            yield _conjugate(rng, _block_diag(blocks)), True


@pytest.mark.extended
def test_minpoly_squarefree_never_falls_back_up_to_the_verify_cap(monkeypatch):
    # every degree `verify` admits past the default sweep: no block repeats
    # an eigenvalue other than 0 and +-1, so none falls back to its minpoly
    calls = _count_minpoly(monkeypatch)
    for r in range(61, VERIFY_MAX_DEGREE + 1):
        for block in spectral_context(r).blocks:
            assert block.minpoly_squarefree, r
            assert calls["minpoly"] == 0, r


def test_minpoly_squarefree_on_seeded_matrices():
    for m, expected in _seeded_witness_cases():
        assert SwapBlock(m).minpoly_squarefree is expected, m
        assert _radical_annihilates(SwapBlock(m)) is expected, m
        assert is_squarefree(minpoly(m)) is expected, m


def test_minpoly_squarefree_falls_back_to_the_minpoly(monkeypatch):
    # 2 repeats, and the block nullities cover only 0 and +-1
    calls = _count_minpoly(monkeypatch)
    assert SwapBlock(_jordan(2, 2)).minpoly_squarefree is False
    diag = _block_diag([_jordan(2, 1), _jordan(2, 1), _jordan(3, 1)])
    assert SwapBlock(diag).minpoly_squarefree is True
    assert calls["minpoly"] == 2


def test_minpoly_squarefree_reads_the_block_nullities(monkeypatch):
    # a Jordan block at lam next to a simple eigenvalue has nullity 1, not 2
    calls = _count_minpoly(monkeypatch)
    for lam in (0, 1, -1):
        jordan = _block_diag([_jordan(lam, 2), _jordan(-lam or 5, 1)])
        assert SwapBlock(jordan).minpoly_squarefree is False, lam
        diag = _block_diag([_jordan(lam, 1), _jordan(lam, 1), _jordan(7, 1)])
        assert SwapBlock(diag).minpoly_squarefree is True, lam
    assert calls["minpoly"] == 0


def test_verify_fails_when_a_block_has_a_jordan_block(monkeypatch, capsys):
    # r = 4 has the anti block diag(1, -1); a 2x2 Jordan block at 1 in its
    # place has no squarefree minimal polynomial
    jordan = RationalMatrix([[1, 1], [0, 1]])
    monkeypatch.setattr(spectra, "anti_quotient", lambda r, phi=None: jordan)
    code = main(["verify", "4", "4", "--json"])
    report = json.loads(capsys.readouterr().out)["results"]["reports"][0]
    assert code == EXIT_VERIFICATION_FAILED
    assert report["minpoly_squarefree"] is False
    assert report["passed"] is False


# -- the certificate of the split -------------------------------------------------


def _skewed_phi(r):
    rows = forms.phi_matrix(r).to_lists()
    rows[0][1] += 1
    return RationalMatrix(rows)


def test_context_rejects_a_phi_that_does_not_commute_with_the_swap(monkeypatch):
    monkeypatch.setattr(spectra, "phi_matrix", _skewed_phi)
    with pytest.raises(ArithmeticError, match=r"r=5: phi does not commute"):
        spectral_context(5)


def test_verify_exits_1_naming_the_degree_when_the_swap_certificate_fails(
    monkeypatch, capsys
):
    monkeypatch.setattr(spectra, "phi_matrix", _skewed_phi)
    code = main(["verify", "4", "4", "--json"])
    captured = capsys.readouterr()
    assert code == EXIT_VERIFICATION_FAILED
    assert captured.out == ""
    assert "r=4" in captured.err and "swap" in captured.err


# -- redundancy ----------------------------------------------------------------------


@pytest.mark.parametrize("r", [11, 12])
def test_verify_single_builds_each_object_once(monkeypatch, r):
    calls = Counter()
    charpoly_widths = []
    modules = (forms, linalg, spectra)
    for name in ("phi_matrix", "sym_quotient", "charpoly", "minpoly", "is_squarefree"):
        original = getattr(forms if name in ("phi_matrix", "sym_quotient") else linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            if _name == "charpoly":
                charpoly_widths.append(args[0].ncols)
            return _original(*args, **kwargs)

        for module in modules:
            if module.__dict__.get(name) is original:
                monkeypatch.setattr(module, name, counted)
    verify_single(r)
    assert calls["phi_matrix"] <= 2
    assert calls["sym_quotient"] <= 1
    assert calls["charpoly"] == 2
    assert calls["minpoly"] == 0
    assert calls["is_squarefree"] == 0
    assert max(charpoly_widths) <= (r + 2) // 2


@pytest.mark.parametrize("r", [11, 12, 20])
def test_verify_single_builds_no_quarter_turn_matrix(monkeypatch, r):
    # the quarter turn is a sign per entry of each swap half, and the twist
    # kernel is computed as its two halves and nothing else, never r + 1
    # columns wide.  The dimensions are read off them: for even r four
    # block nullities and four ranks each at most half as wide as a half,
    # for odd r two nullities and no rank.  No two matrices are multiplied:
    # twist^2 is the substitution of RHO_TWIST^2.
    gammas = []
    kernels = Counter()
    rank_widths = {linalg: [], spectra: []}
    products = Counter()
    original_operator = forms.operator_matrix
    original_kernel = linalg._integer_kernel
    original_rank = linalg.rank
    original_matmul = RationalMatrix.__matmul__

    def counted_operator(gamma, degree):
        gammas.append(gamma)
        return original_operator(gamma, degree)

    def counted_kernel(m):
        kernels[m.ncols] += 1
        return original_kernel(m)

    def counted_matmul(a, b):
        products[a.ncols] += 1
        return original_matmul(a, b)

    monkeypatch.setattr(RationalMatrix, "__matmul__", counted_matmul)
    for module in (forms, linalg, spectra):
        if module.__dict__.get("operator_matrix") is original_operator:
            monkeypatch.setattr(module, "operator_matrix", counted_operator)
        if module.__dict__.get("_integer_kernel") is original_kernel:
            monkeypatch.setattr(module, "_integer_kernel", counted_kernel)
    for module, widths in rank_widths.items():

        def counted_rank(m, _widths=widths):
            _widths.append(m.ncols)
            return original_rank(m)

        monkeypatch.setattr(module, "rank", counted_rank)
    assert verify_single(r).passed
    assert IOTA not in gammas and gammas
    assert kernels == Counter([r // 2 + 1, (r + 1) // 2])
    # one nullity per swap block and eigenvalue checked: 0, or +1 and -1
    nullity_widths = [r // 2 + 1, (r + 1) // 2] * (1 if r % 2 else 2)
    assert sorted(rank_widths[linalg]) == sorted(nullity_widths)
    assert len(rank_widths[spectra]) == (0 if r % 2 else 4)
    assert max(rank_widths[spectra], default=0) <= (r // 2 + 2) // 2
    assert not products


@pytest.mark.parametrize("r", [12, 20])
def test_verify_single_witness_shares_the_block_nullities(monkeypatch, r):
    # the squarefree witness computes no minimal polynomial, and the
    # nullities at +-1 it reads (r = 20 repeats both) are the ones the
    # multiplicity check computes, once per block
    calls = _count_minpoly(monkeypatch)
    original = spectra.eigen_multiplicity

    def counted(*args, **kwargs):
        calls["eigen_multiplicity"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(spectra, "eigen_multiplicity", counted)
    report = verify_single(r)
    assert report.passed and report.minpoly_squarefree
    assert calls == Counter({"eigen_multiplicity": 4})

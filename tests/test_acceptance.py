"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The extended degree-100 sweep is behind the
`extended` marker and excluded by default.
"""

import random
import time

import pytest

from sternsums.forms import HomogPoly, phi_matrix, sym_quotient
from sternsums.linalg import IntPolynomial, charpoly
from sternsums.recurrences import (
    AFFINE_ALT,
    HOMOGENEOUS,
    annihilator_recurrence,
    corollary_bound,
    min_affine_alt_recurrence,
    mine_all_monomials,
    verify_recurrence,
)
from sternsums.spectra import (
    check_annihilation_identities,
    eigenspace_dims,
    odd_case_dims,
    spectral_context,
    verify_range,
)
from sternsums.stern import (
    power_sum_direct,
    power_sum_sequence,
    stern_row,
)


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def test_criterion_1_golden_reproduction():
    t0 = time.time()
    ok = stern_row(4) == (1, 1, 2, 1, 3, 2, 3, 1, 3, 2, 3, 1, 2, 1, 1)
    ok &= phi_matrix(3).to_lists() == [
        [2, 1, 1, 1],
        [3, 2, 2, 3],
        [3, 2, 2, 3],
        [1, 1, 1, 2],
    ]
    phi_sym3 = sym_quotient(3)
    ok &= phi_sym3.to_lists() == [[3, 2], [6, 4]]
    ok &= charpoly(phi_sym3) == IntPolynomial([0, -7, 1])
    ok &= power_sum_sequence(HomogPoly.monomial(3, 3), 4) == [1, 3, 21, 147]
    ok &= power_sum_sequence(HomogPoly.monomial(2, 3), 4) == [0, 2, 14, 98]
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _report("1 golden reproduction", bool(ok), f"{elapsed:.3f}s")


def test_criterion_2_dual_path_oracle():
    t0 = time.time()
    checked = 0
    for r in range(0, 9):
        for a in range(r + 1):
            f = HomogPoly.monomial(a, r)
            fast = power_sum_sequence(f, 16)
            for n in range(1, 17):
                assert power_sum_direct(n, f) == fast[n - 1], (r, a, n)
                checked += 1
    # spot checks at larger n for the cubic monomials, up to the row cap
    for a in range(4):
        f = HomogPoly.monomial(a, 3)
        fast = power_sum_sequence(f, 20)
        for n in (18, 19, 20):
            assert power_sum_direct(n, f) == fast[n - 1], (a, n)
            checked += 1
    _report(
        "2 dual-path oracle",
        True,
        f"{checked} exact agreements in {time.time() - t0:.1f}s",
    )


def test_criterion_3_multiplicity_sweep_r60():
    t0 = time.time()
    reports = verify_range(1, 60)
    equal = all(rep.all_equal for rep in reports)
    bounds = all(rep.bounds_hold for rep in reports)
    # a report exists only where the certificate pinned each count as both
    # multiplicities and the minimal polynomials as squarefree, and its JSON
    # says so
    docs = [rep.to_json_dict() for rep in reports]
    geo_alg = all(
        chk["geometric"] == chk["algebraic"]
        for doc in docs
        for chk in doc["multiplicities"].values()
    )
    symmetry = all(rep.symmetry_identity for rep in reports)
    squarefree = all(doc["minpoly_squarefree"] is True for doc in docs)
    ok = equal and bounds and geo_alg and symmetry and squarefree
    _report(
        "3 multiplicity sweep r<=60",
        ok,
        f"equalities={equal} geo=alg={geo_alg} symmetry={symmetry} "
        f"squarefree={squarefree} in {time.time() - t0:.0f}s",
    )


def test_criterion_4_structural_identities_r40():
    t0 = time.time()
    ok = True
    for r in range(1, 41, 2):
        ctx = spectral_context(r)
        ann = check_annihilation_identities(ctx)
        dims = odd_case_dims(ctx)
        ok &= ann["phi_kills_W"]
        ok &= ann["space_dim"] == dims["dim_W"]["computed"]
        for entry in dims.values():
            ok &= entry["residue_count"] == entry["computed"] == entry["formula"]
    for r in range(2, 41, 2):
        ctx = spectral_context(r)
        ann = check_annihilation_identities(ctx)
        ok &= ann["phi_plus_iota_kills_X"]
        dims = eigenspace_dims(ctx)
        for key in (
            "dim_X",
            "dim_Y_plus",
            "dim_Y_minus",
            "dim_X_sym",
            "dim_Y_plus_sym",
            "dim_Y_minus_sym",
        ):
            ok &= dims[key]["computed"] == dims[key]["formula"]
        ok &= ann["space_dim"] == dims["dim_X"]["computed"]
    _report("4 structural identities r<=40", bool(ok), f"{time.time() - t0:.0f}s")


def test_criterion_5_corollary_bounds_r30():
    t0 = time.time()
    rng = random.Random(20190417)
    ok = True
    mined = 0
    validated = 0
    for r in range(1, 31):
        results = mine_all_monomials(r)
        for res in results:
            ok &= res.within_bound
            ok &= res.annihilator_validates
            mined += 1
        if r % 2 == 0:
            bound_aff = corollary_bound(r, AFFINE_ALT)
            for res in results:
                seq = power_sum_sequence(
                    HomogPoly.monomial(res.x_power, r),
                    2 * corollary_bound(r, HOMOGENEOUS) + 8,
                )
                aff = min_affine_alt_recurrence(seq, 2)
                ok &= aff.length <= bound_aff
        # annihilator recurrence validates on random integer forms
        rec = annihilator_recurrence(r)
        horizon = 2 * corollary_bound(r, HOMOGENEOUS) + 8
        for _ in range(20):
            f = HomogPoly([rng.randint(-20, 20) for _ in range(r + 1)])
            seq = power_sum_sequence(f, horizon)
            ok &= verify_recurrence(seq, rec)
            validated += 1
    _report(
        "5 corollary bounds r<=30",
        bool(ok),
        f"{mined} mined classes, {validated} random validations "
        f"in {time.time() - t0:.0f}s",
    )


def test_criterion_6_property_suites_standalone():
    # the suites live in test_properties.py and run standalone; invoking the
    # wrapped hypothesis tests here executes each suite once more
    import test_properties as props

    suites = [
        props.test_rows_are_palindromic_with_exact_length,
        props.test_power_sums_are_swap_symmetric,
        props.test_power_sums_are_linear,
        props.test_substitution_composes_covariantly,
        props.test_minpoly_divides_charpoly_and_annihilates,
        props.test_squarefree_minpoly_forces_equal_multiplicities,
        props.test_rank_plus_nullity_is_column_count,
        props.test_mined_recurrence_is_minimal_and_holds_on_held_out_terms,
        props.test_prefix_mining_never_beats_the_full_horizon,
    ]
    for suite in suites:
        suite()
    _report("6 property suites", True, f"{len(suites)} suites")


@pytest.mark.extended
def test_extended_sweep_r100():
    t0 = time.time()
    reports = verify_range(61, 100)
    ok = all(rep.passed for rep in reports)
    _report("extended sweep 61<=r<=100", ok, f"{time.time() - t0:.0f}s")

from fractions import Fraction

import pytest

from leafspan import (
    InvalidParamsError,
    alpha,
    beta,
    beta_prime,
    bound_kw,
    bound_theorem1,
    bound_theorem2,
    gamma,
    gen_cycle_spine,
    girth,
)


def F(a, b=1):
    return Fraction(a, b)


def test_theorem1_values():
    assert bound_theorem1(2).value == 2
    assert bound_theorem1(10).value == 4
    assert bound_theorem1(22).value == 7
    assert bound_theorem1(5).value == F(11, 4)
    assert isinstance(bound_theorem1(5).value, Fraction)


def test_theorem1_report_fields():
    rep = bound_theorem1(10)
    assert rep.kind == "Theorem1"
    assert rep.params["s"] == 10


def test_theorem1_rejects_negative():
    with pytest.raises(InvalidParamsError):
        bound_theorem1(-1)


def test_kw_values():
    assert bound_kw(10).value == F(9, 2)
    assert bound_kw(4).value == 3
    assert bound_kw(8).value == 4
    with pytest.raises(InvalidParamsError):
        bound_kw(3)


def test_beta_values():
    assert beta(3, 1) == F(1, 6)
    assert beta(5, 4) == F(1, 8)
    assert beta(6, 2) == F(4, 20)
    with pytest.raises(InvalidParamsError):
        beta(2, 1)
    with pytest.raises(InvalidParamsError):
        beta(3, 0)


def test_gamma_values():
    assert gamma(6, 3, 1) == F(2, 9)
    assert gamma(4, 2, 2) == F(1, 6)
    assert gamma(4, 3, 2) == F(2, 9)
    with pytest.raises(InvalidParamsError):
        gamma(6, 2, 1)  # m below ceil(h/2)
    with pytest.raises(InvalidParamsError):
        gamma(6, 6, 1)  # m must stay below h


def test_gamma_minimized_at_half():
    for h in range(3, 15):
        for k in range(1, 6):
            lo = (h + 1) // 2
            vals = [gamma(h, m, k) for m in range(lo, h)]
            assert min(vals) == vals[0] == beta_prime(h, k)


def test_beta_prime_values():
    assert beta_prime(6, 2) == F(2, 11)
    assert beta_prime(4, 1) == F(1, 5)
    # odd h uses the same closed form through m = ceil(h/2)
    assert beta_prime(5, 1) == gamma(5, 3, 1)
    with pytest.raises(InvalidParamsError):
        beta_prime(2, 1)


def test_beta_monotone_in_h():
    for k in range(1, 11):
        prev = None
        for h in range(3, 41):
            cur = beta(h, k)
            if prev is not None:
                assert cur > prev
            prev = cur


def test_beta_prime_even_monotone_in_n():
    for k in range(1, 11):
        prev = None
        for n in range(2, 21):
            cur = beta_prime(2 * n, k)
            if prev is not None:
                assert cur > prev
            prev = cur


def test_beta_prime_odd_exceeds_next_even():
    for n in range(2, 21):
        for k in range(1, 21):
            assert beta_prime(2 * n - 1, k) > beta_prime(2 * n, k)


def test_half_block_comparisons():
    for n in range(1, 21):
        for k in range(1, 46):
            assert (beta_prime(2 * n + 2, k) < beta(2 * n + 2, k)) == (k < 2 * n)
            if 2 * n + 1 >= 3:
                assert (beta_prime(2 * n + 2, k) < beta(2 * n + 1, k)) == (
                    k < 2 * n - 1
                )


def test_alpha_is_the_minimum():
    for g in range(3, 21):
        for k in range(1, 21):
            n2 = 2 * ((g + 1) // 2)
            assert alpha(g, k) == min(beta(g, k), beta_prime(n2, k))


def test_alpha_branch_values():
    assert alpha(5, 4) == F(1, 8)
    assert alpha(3, 1) == F(1, 6)
    assert alpha(6, 2) == F(2, 11)
    assert alpha(5, 1) == F(2, 9)
    with pytest.raises(InvalidParamsError):
        alpha(3, 0)
    with pytest.raises(InvalidParamsError):
        alpha(2, 1)
    # alpha(3, 1) is cached by now, and True == 1 == 1.0 hash alike, so
    # these must be rejected before any cached value is read
    for g, k in ((3, True), (True, 3), (3.0, 1)):
        with pytest.raises(InvalidParamsError):
            alpha(g, k)


def test_alpha_dense_equals_beta():
    for g in range(3, 12):
        for k in range(max(g - 2, 1), g + 4):
            assert alpha(g, k) == beta(g, k)


def test_alpha_never_falls_as_girth_grows():
    # why theorem 2 is rated at the measured girth: no smaller girth gives
    # a larger valid bound
    for g in range(3, 61):
        for k in range(1, 31):
            assert alpha(g + 1, k) >= alpha(g, k)


def test_extremal_chains_rate_alike_at_their_measured_girth():
    # a sparse spine's cycle is even, one longer than an odd g, yet the
    # rate is the same, so the extremal chains stay tight at the measured girth
    for g in range(3, 14):
        for k in range(1, 10):
            assert alpha(girth(gen_cycle_spine(g, k)), k) == alpha(g, k)


def test_theorem2_values():
    rep = bound_theorem2(9, 3, 1)
    assert rep.value == 3
    assert rep.kind == "Theorem2"
    assert rep.params["alpha"] == F(1, 6)

    rep = bound_theorem2(15, 6, 2)
    assert rep.value == 4

    # degenerate size: the bound collapses to at most 2 and stays honest
    rep = bound_theorem2(6, 6, 6)
    assert rep.value <= 2


def test_theorem2_rejects_bad_params():
    with pytest.raises(InvalidParamsError):
        bound_theorem2(9, 3, 0)
    with pytest.raises(InvalidParamsError):
        bound_theorem2(9, 2, 1)
    with pytest.raises(InvalidParamsError):
        bound_theorem2(1, 3, 1)
    with pytest.raises(InvalidParamsError):
        bound_theorem2(9, 3, True)


def test_reports_are_exact_rationals():
    for rep in (bound_theorem1(7), bound_kw(11), bound_theorem2(13, 5, 2)):
        assert isinstance(rep.value, Fraction)
        d = rep.as_dict()
        assert d["numerator"] == rep.value.numerator
        assert d["denominator"] == rep.value.denominator

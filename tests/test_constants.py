from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawpack.constants import CONST_NAMES, check_constants
from clawpack.exactnum import RatInterval, root_floor, sqrt_bounds, surd_sign


def test_reference_point_half():
    rep = check_constants(Fraction(1, 2))
    assert rep.params.eps_tilde == Fraction(1, 4)
    assert rep.params.eps_prime == Fraction(1, 10000)
    assert rep.params.d_delta == 1_600_001
    assert rep.all_ok
    assert list(rep.results) == list(CONST_NAMES)


def test_delta_point_nine():
    assert check_constants(Fraction(9, 10)).all_ok


def test_overridden_eps_prime_fails_const1():
    rep = check_constants(Fraction(999, 1000), eps_prime=Fraction(1, 5))
    assert rep.results["const1"] is False
    assert not rep.all_ok


def test_grid_all_pass():
    # delta on the grid {1/20, 2/20, ...} below 1
    grid = [Fraction(i, 20) for i in range(1, 20)]
    assert all(check_constants(delta).all_ok for delta in grid)


def test_json_shape():
    doc = check_constants(Fraction(1, 2)).to_json_obj()
    assert doc["d_delta"] == 1_600_001
    assert set(doc["results"]) == set(CONST_NAMES)
    assert doc["all_ok"] is True


def test_sqrt_bounds_exact_square():
    lo, hi = sqrt_bounds(Fraction(9, 4), 30)
    assert lo == hi == Fraction(3, 2)


def test_sqrt_bounds_enclosure():
    x = Fraction(2)
    lo, hi = sqrt_bounds(x, 40)
    assert lo * lo <= x <= hi * hi
    assert hi - lo <= Fraction(1, 2 ** 39)


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=0, max_denominator=10 ** 12), st.integers(2, 9), st.integers(0, 128))
def test_root_floor_is_the_floor(x, q, bits):
    r = root_floor(x, q, bits)
    num, den = x.numerator, x.denominator
    assert r ** q * den <= num << bits * q < (r + 1) ** q * den


def test_root_floor_exact_roots_and_zero():
    assert root_floor(Fraction(27, 8), 3, 10) == 3 << 9
    assert root_floor(Fraction(1, 4), 2, 80) == 1 << 79
    assert root_floor(0, 5, 60) == 0
    with pytest.raises(ValueError):
        root_floor(Fraction(-1, 2), 3, 4)


def test_surd_sign_signs():
    # 1 + 2*sqrt(2) vs 4: 3.828... < 4
    assert surd_sign(1, 2, 2, 1, 4) == -1
    # 1 - sqrt(1/4) = 1/2, times 2
    assert surd_sign(2, -2, 1, 4, 1) == 0
    assert surd_sign(0, 1, 2, 1, 1) == 1
    assert surd_sign(0, -1, 2, 1, -2) == 1
    assert surd_sign(0, -1, 2, 1, -1) == -1


def test_interval_arithmetic():
    a = RatInterval(Fraction(1), Fraction(2))
    b = RatInterval(Fraction(3), Fraction(4))
    assert (a + b).lo == 4 and (a + b).hi == 6
    assert (b - a).lo == 1 and (b - a).hi == 3
    assert (a * b).lo == 3 and (a * b).hi == 8
    assert (b / a).lo == Fraction(3, 2) and (b / a).hi == 4
    assert a.lt(b) is True
    assert b.lt(a) is False
    assert a.lt(RatInterval(Fraction(3, 2), Fraction(5))) is None
    with pytest.raises(ZeroDivisionError):
        a / RatInterval(Fraction(-1), Fraction(1))

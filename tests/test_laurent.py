import pytest

from chercomb import LaurentPoly, PositivityViolation


def poly(d):
    return LaurentPoly(d)


def test_canonical_form_drops_zeros():
    assert poly({3: 0, 1: 2}).coeffs == {1: 2}
    assert poly({}) == LaurentPoly.zero()
    assert not LaurentPoly.zero()


def test_ring_ops():
    f = poly({0: 1, 1: 2})
    g = poly({-1: 3})
    assert f + g == poly({-1: 3, 0: 1, 1: 2})
    assert f - f == LaurentPoly.zero()
    assert f * g == poly({-1: 3, 0: 6})
    assert (-g).coeffs == {-1: -3}
    assert LaurentPoly.monomial(5) * LaurentPoly.monomial(-5) == LaurentPoly.one()


def test_bar_involution():
    assert LaurentPoly.one().bar() == LaurentPoly.one()
    assert poly({2: 1, -1: 3}).bar() == poly({-2: 1, 1: 3})
    fixed = poly({1: 1, -1: 1})
    assert fixed.bar() == fixed


def test_bar_split_fixed_point():
    d, l = poly({1: 1, -1: 1}).bar_split()
    assert d == LaurentPoly.zero()
    assert l == poly({1: 1, -1: 1})


def test_bar_split_positive_only():
    d, l = poly({2: 1, 0: 1}).bar_split()
    assert d == poly({2: 1})
    assert l == LaurentPoly.one()


def test_bar_split_mixed():
    f = poly({3: 2, 1: 1, -1: 1})
    d, l = f.bar_split()
    assert d == poly({3: 2})
    assert l == poly({1: 1, -1: 1})
    assert d + l == f
    assert l.is_bar_invariant()
    assert d.in_positive_degrees() and d.has_nonnegative_coeffs()


def test_bar_split_failure_modes():
    with pytest.raises(PositivityViolation):
        poly({-1: 2}).bar_split()  # mirror exceeds the positive part
    with pytest.raises(PositivityViolation):
        poly({0: 1, 2: -1}).bar_split()


def test_serialization_round_trip():
    f = poly({5: 1, 7: 2, 9: 2, 11: 1})
    assert f.to_sorted_dict() == {"5": 1, "7": 2, "9": 2, "11": 1}
    assert LaurentPoly({int(e): c for e, c in f.to_sorted_dict().items()}) == f
    assert f.to_latex() == "t^{5}+2t^{7}+2t^{9}+t^{11}"
    assert str(poly({-2: 1, 1: -3})) == "t^-2-3*t"

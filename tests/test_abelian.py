import math
import random
import sys
import types

import hypothesis.strategies as st
import pytest
from hypothesis import given

from groupoid_homology import abelian
from groupoid_homology.abelian import (
    TRIVIAL,
    Z,
    FgAbGroup,
    HomologyProfile,
    _divisibility_chain,
    direct_sum,
    tensor,
    tor,
)
from groupoid_homology.exact_linalg import IntMatrix, invariant_factors

orders = st.lists(st.integers(2, 30), max_size=5)
groups = st.builds(
    lambda r, os: FgAbGroup.from_orders(r, os),
    st.integers(0, 4),
    orders,
)


def test_rendering_needs_no_digit_limit_to_lift(monkeypatch):
    # an interpreter without set_int_max_str_digits (before 3.10.7) has no
    # limit, so _all_digits lifts nothing and rendering goes on as usual
    limit = sys.get_int_max_str_digits()
    monkeypatch.setattr(abelian, "sys", types.SimpleNamespace())
    with abelian._all_digits():
        assert FgAbGroup(2, (2, 4)).describe() == "Z^2 (+) Z_2 (+) Z_4"
    assert sys.get_int_max_str_digits() == limit


def test_canonical_form_is_enforced():
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))  # not ascending by divisibility
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))  # trivial factors are dropped, never stored
    with pytest.raises(ValueError):
        FgAbGroup(-1, ())


def test_from_orders_normalizes():
    assert FgAbGroup.from_orders(0, [4, 2]).torsion == (2, 4)
    assert FgAbGroup.from_orders(0, [2, 3]).torsion == (6,)
    assert FgAbGroup.from_orders(1, [1, 1]) == Z
    assert FgAbGroup.from_orders(0, [6, 4]).torsion == (2, 12)


def test_from_orders_rejects_nonpositive():
    with pytest.raises(ValueError):
        FgAbGroup.from_orders(0, [0])


def test_from_orders_refuses_non_integral_orders():
    for orders in ([2.9], [True], [2, "3"]):
        with pytest.raises(TypeError):
            FgAbGroup.from_orders(0, orders)


def test_constructor_refuses_non_integral_values():
    for free_rank, torsion in ((2.5, ()), (True, ()), (0, (2.0,)), (0, (False,))):
        with pytest.raises(TypeError):
            FgAbGroup(free_rank, torsion)


def test_describe_strings():
    assert TRIVIAL.describe() == "0"
    assert Z.describe() == "Z"
    assert FgAbGroup.free(3).describe() == "Z^3"
    assert FgAbGroup(0, (2,)).describe() == "Z_2"
    assert FgAbGroup(2, (2, 6)).describe() == "Z^2 (+) Z_2 (+) Z_6"


@given(groups, groups)
def test_direct_sum_adds_ranks_and_merges_torsion(a, b):
    s = direct_sum(a, b)
    assert s.free_rank == a.free_rank + b.free_rank
    # total torsion order is preserved by renormalization
    assert math.prod(s.torsion) == math.prod(a.torsion) * math.prod(b.torsion)
    assert s == direct_sum(b, a)


def test_direct_sum_renormalizes_to_invariant_factors():
    assert direct_sum(FgAbGroup(0, (2,)), FgAbGroup(0, (3,))).torsion == (6,)
    assert direct_sum(FgAbGroup(0, (2,)), FgAbGroup(0, (2,))).torsion == (2, 2)


def test_one_pass_chain_is_the_smith_form_of_the_diagonal():
    # bags with 1s, repeated small primes and prime powers of 2^61 - 1,
    # against the invariant factors > 1 of diag(bag) from the Smith engine
    rng = random.Random(0)
    primes = (2, 3, 5, 7, 2**61 - 1)
    for _ in range(300):
        n = rng.randint(0, 7)
        bag = [math.prod(p ** rng.choice((0, 0, 1, 2, 5)) for p in primes)
               for _ in range(n)]
        diag = IntMatrix(n, n, [bag[i] if i == j else 0
                                for i in range(n) for j in range(n)])
        expected = tuple(d for d in invariant_factors(diag) if d > 1)
        assert _divisibility_chain(bag) == expected, bag


@given(st.lists(groups, max_size=6))
def test_n_ary_sum_equals_the_pairwise_fold(gs):
    acc = TRIVIAL
    for g in gs:
        acc = direct_sum(acc, g)
    assert direct_sum(*gs) == acc


@given(groups)
def test_sum_of_one_group_is_that_group(g):
    assert direct_sum() == TRIVIAL
    assert direct_sum(g) == g


def test_tensor_rules():
    assert tensor(Z, FgAbGroup(0, (4,))) == FgAbGroup(0, (4,))
    assert tensor(FgAbGroup(0, (4,)), FgAbGroup(0, (6,))) == FgAbGroup(0, (2,))
    assert tensor(FgAbGroup.free(2), FgAbGroup.free(3)) == FgAbGroup.free(6)
    assert tensor(TRIVIAL, Z) == TRIVIAL


def test_tor_rules():
    assert tor(Z, FgAbGroup(0, (5,))) == TRIVIAL
    assert tor(FgAbGroup(0, (4,)), FgAbGroup(0, (6,))) == FgAbGroup(0, (2,))
    assert tor(FgAbGroup.free(3), FgAbGroup.free(2)) == TRIVIAL


@given(groups, groups)
def test_tensor_and_tor_are_symmetric(a, b):
    assert tensor(a, b) == tensor(b, a)
    assert tor(a, b) == tor(b, a)


@given(groups, groups, groups)
def test_tensor_distributes_over_direct_sum(a, b, c):
    left = tensor(a, direct_sum(b, c))
    right = direct_sum(tensor(a, b), tensor(a, c))
    assert left == right


def test_profile_shape_is_checked():
    with pytest.raises(ValueError):
        HomologyProfile((Z,), k=1)


def test_profile_sums_and_euler():
    prof = HomologyProfile((FgAbGroup(0, (2,)), Z, FgAbGroup.free(1)), k=2)
    assert prof.euler_characteristic() == 0 + (-1) + 1
    assert prof.even_sum() == direct_sum(FgAbGroup(0, (2,)), Z)
    assert prof.odd_sum() == Z
    assert prof.describe() == "H_0 = Z_2, H_1 = Z, H_2 = Z"

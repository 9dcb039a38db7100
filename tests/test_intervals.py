"""The consistent-pairs framework."""

import itertools

import pytest

from genaft import FinitePoset, build_interval_framework, powerset_lattice
from genaft.errors import PreconditionError, RecomposeUndefinedError
from corpus import vee_lattice


def test_two_chain_has_three_approximants():
    two = FinitePoset(["0", "1"], [("0", "1")])
    fw = build_interval_framework(two)
    xs = fw.enumerate_approximants()
    assert {(x.alb, x.aub) for x in xs} == {("0", "0"), ("0", "1"), ("1", "1")}


def test_diamond_has_nine_consistent_pairs():
    diamond = powerset_lattice(["p", "q"])
    fw = build_interval_framework(diamond)
    expected = sum(
        1
        for x in diamond.elements
        for y in diamond.elements
        if diamond.leq(x, y)
    )
    assert expected == 9
    assert len(fw.enumerate_approximants()) == 9


def test_vee_poset_is_rejected_with_reason(fig):
    with pytest.raises(PreconditionError, match="greatest element"):
        build_interval_framework(fig)


def test_missing_least_is_named():
    two_tops = FinitePoset(["x", "y"], [])
    with pytest.raises(PreconditionError, match="least"):
        build_interval_framework(two_tops)


def test_missing_glb_is_named():
    """bot < a, b < c, d: c and d share the lower bounds a and b, which
    have no greatest among them."""
    no_glb = FinitePoset(
        ["bot", "a", "b", "c", "d"],
        [("bot", "a"), ("bot", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
    )
    with pytest.raises(
        PreconditionError,
        match=r"the exact space lacks a greatest lower bound for \{c,d\}",
    ):
        build_interval_framework(no_glb)


def test_inconsistent_pair_rejected(fig_lattice):
    fw = build_interval_framework(fig_lattice)
    with pytest.raises(RecomposeUndefinedError):
        fw.recompose("top", "bot")


def test_empty_member_set_is_not_an_interval():
    fw = build_interval_framework(powerset_lattice(["p", "q"]))
    with pytest.raises(PreconditionError, match="non-empty"):
        fw.approximant_from_members([])
    assert fw.approximant_from_members(["{p}"]) == fw.exact_approximant("{p}")


def test_precision_equals_member_containment():
    diamond = powerset_lattice(["p", "q"])
    fw = build_interval_framework(diamond)
    xs = fw.enumerate_approximants()
    for x, y in itertools.product(xs, xs):
        assert fw.leq_p(x, y) == (fw.members(y) <= fw.members(x))


@pytest.mark.parametrize("lattice", [vee_lattice, lambda: powerset_lattice(["p", "q", "r"])],
                         ids=["vee-lattice", "powerset3"])
def test_the_interval_orders_are_the_lattices_on_every_side(lattice):
    """alb_leq, aub_leq and cross_leq, read straight from the lattice,
    agree with the lattice's order and with bound_leq on every pair, and
    so does leq_p."""
    fw = build_interval_framework(lattice())
    orders = (
        (fw.alb_leq, "L", "L"),
        (fw.aub_leq, "U", "U"),
        (fw.cross_leq, "L", "U"),
    )
    for b1, b2 in itertools.product(fw.exact.elements, repeat=2):
        for mine, side1, side2 in orders:
            assert mine(b1, b2) == fw.exact.leq(b1, b2) == fw.bound_leq(side1, b1, side2, b2)
    xs = fw.enumerate_approximants()
    outcomes = set()
    for x, y in itertools.product(xs, repeat=2):
        expected = fw.bound_leq("L", x.alb, "L", y.alb) and fw.bound_leq("U", y.aub, "U", x.aub)
        assert fw.leq_p(x, y) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_exact_approximants_are_the_diagonal(fig_lattice):
    fw = build_interval_framework(fig_lattice)
    for x in fw.enumerate_approximants():
        assert fw.is_exact(x) == (x.alb == x.aub)
        if fw.is_exact(x):
            assert fw.exact_value(x) == x.alb


def test_least_approximant_and_membership(fig_lattice):
    fw = build_interval_framework(fig_lattice)
    least = fw.least_approximant()
    assert (least.alb, least.aub) == ("bot", "top")
    assert fw.members(least) == frozenset(fig_lattice.elements)
    assert "a" in fw.members(least)


def test_truth_order_is_componentwise(fig_lattice):
    fw = build_interval_framework(fig_lattice)
    x = fw.recompose("bot", "a")
    y = fw.recompose("a", "top")
    assert not fw.leq_p(x, y)  # truth-below, yet not less precise


def test_formatting(fig_lattice):
    fw = build_interval_framework(fig_lattice)
    assert str(fw.recompose("bot", "a")) == "[bot, a]"


def test_lub_p_is_intersection_of_intervals(fig_lattice):
    fw = build_interval_framework(fig_lattice)
    x = fw.recompose("bot", "a")
    y = fw.recompose("bot", "b")
    lub = fw.lub_p([x, y])
    assert (lub.alb, lub.aub) == ("bot", "bot")
    disjoint = fw.lub_p([fw.recompose("a", "a"), fw.recompose("b", "b")])
    assert disjoint is None

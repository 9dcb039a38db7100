"""Flowers, their decomposition spaces, and the four structural properties."""

import functools
import itertools
import random

import pytest

from genaft import FinitePoset, build_flower_framework, check_framework, powerset_lattice, report_ok
from genaft.errors import ElementNotFoundError, PreconditionError, RecomposeUndefinedError
from genaft.flowers import FlowerFramework, enumerate_flowers
from corpus import (
    NoSideCondition,
    SwappedRecompose,
    claw_poset,
    flower_propositions,
    random_bounded_complete_cpo,
    twelve_pool_poset,
    vee_poset,
)


def test_vee_flower_inventory(fig):
    fw = build_flower_framework(fig)
    flowers = {fw.members(x) for x in enumerate_flowers(fw)}
    assert flowers == {
        frozenset({"bot"}),
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"bot", "a"}),
        frozenset({"bot", "b"}),
        frozenset({"bot", "a", "b"}),
    }


def test_vee_decomposition_spaces(fig):
    fw = build_flower_framework(fig)
    assert list(fw.albs()) == ["bot", "a", "b"]
    assert set(fw.enumerate_aubs()) == {("bot",), ("a",), ("b",), ("a", "b")}


def test_flower_validation(fig):
    fw = build_flower_framework(fig)
    with pytest.raises(PreconditionError):
        fw.approximant_from_members(frozenset())
    with pytest.raises(PreconditionError):
        fw.approximant_from_members(frozenset({"a", "b"}))  # glb bot is missing
    f = fw.approximant_from_members(frozenset({"bot", "a", "b"}))
    assert f.alb == "bot" and f.aub == ("a", "b")


def test_convexity_enforced():
    chain = FinitePoset(["0", "1", "2"], [("0", "1"), ("1", "2")])
    with pytest.raises(PreconditionError, match="convex"):
        build_flower_framework(chain).approximant_from_members(frozenset({"0", "2"}))


def _brute_flowers(p):
    """(glb, sorted max-set) of every non-empty convex subset containing
    its glb, by definition, in the order of the subset's mask."""
    out = []
    for bits in range(1, 1 << len(p)):
        s = [x for i, x in enumerate(p.elements) if bits >> i & 1]
        lower = [g for g in p.elements if all(p.leq(g, x) for x in s)]
        glb = [g for g in lower if all(p.leq(h, g) for h in lower)]
        if not glb or glb[0] not in s:
            continue
        if any(p.leq(x, y) and p.leq(y, z) and y not in s for x in s for z in s for y in p.elements):
            continue
        top = [x for x in s if not any(x != y and p.leq(x, y) for y in s)]
        out.append((glb[0], tuple(sorted(top))))
    return out


@pytest.mark.parametrize("seed", range(30))
def test_flower_enumeration_matches_the_definition(seed):
    poset = random_bounded_complete_cpo(random.Random(seed), max_elements=7)
    fw = build_flower_framework(poset)
    assert [(x.alb, x.aub) for x in enumerate_flowers(fw)] == _brute_flowers(poset)


@pytest.mark.parametrize("seed", [None, *range(20)])
def test_enumerations_by_doubling_match_the_mask_scans(seed):
    """U and the flowers, order included, against one scan of every mask:
    the antichains are the masks that are their own max-set, and the
    flowers the closures of the masks m with up(glb(m)) & down(m) == m.
    Seed None is the claw; the others are cpos of up to 10 elements."""
    poset = claw_poset() if seed is None else random_bounded_complete_cpo(random.Random(seed), 10)
    scanned = build_flower_framework(poset)
    masks = range(1, 1 << len(poset))
    aubs = [tuple(sorted(poset.set_of(m))) for m in masks if poset._max_mask(m) == m]
    flowers = [scanned.closure(m) for m in masks
               if poset._up_of(poset._glb_mask(m)) & poset._down_closure(m) == m]
    fw = build_flower_framework(poset)
    assert fw.enumerate_aubs() == aubs
    assert [(x.alb, x.aub) for x in enumerate_flowers(fw)] == [(x.alb, x.aub) for x in flowers]


def test_flowers_are_enumerated_only_with_their_antichains():
    chain = FinitePoset([str(i) for i in range(13)], [(str(i), str(i + 1)) for i in range(12)])
    for fw in (build_flower_framework(chain), FlowerFramework(vee_poset(), enumerable=False)):
        with pytest.raises(PreconditionError, match="limited to 12 elements"):
            enumerate_flowers(fw)


def test_recompose_can_shrink_aub(fig):
    fw = build_flower_framework(fig)
    x = fw.recompose("a", ("a", "b"))
    assert (x.alb, x.aub) == ("a", ("a",))
    assert fw.members(x) == {"a"}


def test_recompose_requires_compatibility(fig):
    fw = build_flower_framework(fig)
    with pytest.raises(RecomposeUndefinedError):
        fw.recompose("a", ("b",))


def test_composition_chain(fig):
    fw = build_flower_framework(fig)
    assert fw.bound_leq("L", "bot", "L", "a")
    assert fw.bound_leq("L", "a", "U", ("a",))
    assert fw.bound_leq("U", ("a",), "U", ("a", "b"))
    assert not fw.bound_leq("U", ("a", "b"), "U", ("a",))
    assert not fw.bound_leq("U", ("bot",), "L", "bot")  # side condition


def test_flower_closure_is_least(fig):
    fw = build_flower_framework(fig)
    closure = fw.members(fw.closure(fig.mask_of(["a", "b"])))
    assert closure == {"bot", "a", "b"}
    containing = [
        fw.members(x) for x in enumerate_flowers(fw) if {"a", "b"} <= fw.members(x)
    ]
    assert min(containing, key=len) == closure

    again = fw.members(fw.closure(fig.mask_of(closure)))
    assert again == closure
    assert fw.members(fw.closure(fig.mask_of(["a"]))) == {"a"}


def test_precision_is_reverse_containment(fig):
    fw = build_flower_framework(fig)
    xs = fw.enumerate_approximants()
    for x in xs:
        for y in xs:
            assert fw.leq_p(x, y) == (fw.members(y) <= fw.members(x))


def test_chain_lubs_are_intersections(fig):
    fw = build_flower_framework(fig)
    xs = fw.enumerate_approximants()
    for x in xs:
        for y in xs:
            if not fw.leq_p(x, y):
                continue
            lub = fw.lub_p([x, y])
            assert lub is not None
            assert fw.members(lub) == fw.members(x) & fw.members(y)
            fw.approximant_from_members(fw.members(lub))  # the intersection is a flower


def test_aub_lattice_bounds(fig):
    fw = build_flower_framework(fig)
    assert fw.U_least() == ("bot",)
    assert fw.U_greatest() == ("a", "b")
    assert fw.meet_U(("a", "b"), ("a",)) == ("a",)
    assert fw.meet_U(("a",), ("b",)) == ("bot",)
    assert fw.join_U(("a",), ("b",)) == ("a", "b")
    assert fw.join_U(("bot",), ("a",)) == ("a",)


def _max_set(p, mask):
    """The identifier-sorted maximal elements of `mask`, by definition."""
    s = [x for i, x in enumerate(p.elements) if mask >> i & 1]
    return tuple(sorted(x for x in s if not any(x != y and p.leq(x, y) for y in s)))


@pytest.mark.parametrize("seed", range(15))
def test_U_meets_and_joins_are_max_sets_of_closure_algebra(seed):
    cpo = random_bounded_complete_cpo(random.Random(seed))
    fw = build_flower_framework(cpo)
    aubs = fw.enumerate_aubs()
    down = {}
    for u in aubs:
        down[u] = 0
        for m in u:
            down[u] |= cpo.down_mask(m)
    max_set = functools.cache(lambda mask: _max_set(cpo, mask))
    for u1, u2 in itertools.product(aubs, repeat=2):
        assert fw.meet_U(u1, u2) == max_set(down[u1] & down[u2])
        assert fw.join_U(u1, u2) == max_set(down[u1] | down[u2])
    assert fw.U_greatest() == _max_set(cpo, (1 << len(cpo)) - 1)
    assert fw.U_least() == (cpo.least(),)


@pytest.mark.parametrize("seed", range(15))
def test_equal_antichains_share_one_mask_and_one_canonical_object(seed):
    cpo = random_bounded_complete_cpo(random.Random(seed))
    fw = build_flower_framework(cpo)
    # Masks and max-sets asked of hand-built antichains before U is enumerated.
    fresh = _brute_aubs(cpo)
    above = [fw.least_aub_above(l) for l in cpo.elements]
    masks = [fw.aub_mask(u) for u in fresh + above]
    own = [fw.aub_of_mask(cpo.mask_of(u)) for u in fresh]
    aubs = {u: u for u in fw.enumerate_aubs()}
    assert set(aubs) == set(fresh)
    for u, mask in zip(fresh + above, masks):
        canonical = aubs[u]
        assert canonical is not u
        assert fw.aub_mask(u) == mask == fw.aub_mask(canonical)
        assert fw.aub_of_mask(mask) is canonical
    assert all(v is aubs[v] for v in own)
    for u in fresh:
        assert fw.aub_of_mask(fw.aub_mask(tuple(list(u)))) is aubs[u]


def _brute_aubs(p):
    """Every non-empty antichain of `p`, identifier-sorted, by definition."""
    subsets = ([x for i, x in enumerate(p.elements) if m >> i & 1] for m in range(1, 1 << len(p)))
    return [tuple(sorted(s)) for s in subsets
            if not any(x != y and p.leq(x, y) for x in s for y in s)]


def test_unknown_antichain_raises_on_every_call_and_stores_nothing(fig):
    fw = build_flower_framework(fig)
    fw.enumerate_aubs()
    before = dict(fw._down_cache)
    for _ in range(2):
        with pytest.raises(ElementNotFoundError):
            fw.aub_mask(("nope",))
    assert fw._down_cache == before


@pytest.mark.parametrize("poset", [
    vee_poset, claw_poset, twelve_pool_poset, lambda: powerset_lattice(["p", "q", "r"]),
    *(lambda seed=seed: random_bounded_complete_cpo(random.Random(seed)) for seed in range(8)),
], ids=["vee", "claw", "twelve-pool", "powerset3", *(f"cpo{seed}" for seed in range(8))])
def test_the_flower_orders_are_the_definitions_on_every_side(poset):
    """alb_leq, aub_leq and cross_leq, read from the exact order and the
    down-set table, agree with the definitions from the exact order alone
    (an ALB is below an AUB when it lies below one of its elements, and
    an AUB below another when each of its elements does) and with
    bound_leq; no AUB is below an ALB."""
    exact = poset()
    fw = build_flower_framework(exact)
    albs, aubs = fw.albs(), fw.enumerate_aubs()

    def below(l, u):
        return any(exact.leq(l, m) for m in u)

    orders = (
        (fw.alb_leq, "L", "L", albs, albs, exact.leq),
        (fw.aub_leq, "U", "U", aubs, aubs, lambda u1, u2: all(below(m, u2) for m in u1)),
        (fw.cross_leq, "L", "U", albs, aubs, below),
    )
    for mine, side1, side2, pool1, pool2, definition in orders:
        outcomes = set()
        for b1, b2 in itertools.product(pool1, pool2):
            expected = definition(b1, b2)
            assert mine(b1, b2) is fw.bound_leq(side1, b1, side2, b2) is expected
            outcomes.add(expected)
        assert outcomes == ({True, False} if len(exact) > 1 else {True})
    assert not any(fw.bound_leq("U", u, "L", l) for u, l in itertools.product(aubs, albs))


def test_recomposition_gains_precision(fig):
    fw = build_flower_framework(fig)
    for l in fw.albs():
        for u in fw.enumerate_aubs():
            if not fw.cross_leq(l, u):
                continue
            x = fw.recompose(l, u)
            assert fw.alb_leq(l, x.alb)
            assert fw.aub_leq(x.aub, u)
    # equality holds on a flower's own decomposition
    for x in fw.enumerate_approximants():
        assert fw.recompose(x.alb, x.aub) == x


def test_vee_propositions_pass(fig):
    assert report_ok(flower_propositions(build_flower_framework(fig), random.Random(0)))


def test_full_framework_checks_pass_on_vee(fig):
    report = check_framework(build_flower_framework(fig))
    assert report_ok(report)
    assert all(r.status == "pass" for r in report)


@pytest.mark.parametrize("seed", range(50))
def test_random_bounded_complete_cpos_satisfy_propositions(seed):
    rng = random.Random(seed)
    poset = random_bounded_complete_cpo(rng, max_elements=7)
    report = flower_propositions(build_flower_framework(poset), rng)
    assert report_ok(report), [r for r in report if not r.ok]


def test_dual_of_weak_lub_property_fails(fig_lattice):
    # over the vee-with-top lattice, a and b sit below the antichain
    # {a,b} but their join is the top, which does not
    fw = build_flower_framework(fig_lattice)
    assert fw.bound_leq("L", "a", "U", ("a", "b"))
    assert fw.bound_leq("L", "b", "U", ("a", "b"))
    join = fig_lattice.lub(["a", "b"])
    assert join == "top"
    assert not fw.bound_leq("L", join, "U", ("a", "b"))


def test_mutated_recompose_is_caught(fig):
    mutant = SwappedRecompose(fig, enumerable=True)
    report = check_framework(mutant)
    failing = [r for r in report if not r.ok]
    assert failing
    assert any(r.axiom == "composition.5_decompose_recompose_identity" for r in failing)
    assert all(r.counterexample for r in failing)


def test_dropped_side_condition_is_caught(fig):
    mutant = NoSideCondition(fig, enumerable=True)
    report = check_framework(mutant)
    failing = [r for r in report if not r.ok]
    assert failing
    assert any(r.axiom == "preamble.order_antisymmetric" for r in failing)
    assert all(r.counterexample for r in failing)


def test_flower_framework_requires_bounded_completeness():
    two_tops = FinitePoset(["x", "y"], [])
    with pytest.raises(PreconditionError, match="greatest lower bound"):
        build_flower_framework(two_tops)


def test_formatting(fig):
    fw = build_flower_framework(fig)
    least = fw.least_approximant()
    assert str(least) == "⟨bot | {a,b}⟩"

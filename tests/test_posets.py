"""Order-theoretic primitives against brute-force oracles."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from genaft import ExactOperator, FinitePoset, powerset_lattice, product_poset, set_id, tuple_id
from genaft.errors import (
    ElementNotFoundError,
    InputError,
    NotAPartialOrderError,
    SizeCapError,
)
from corpus import monotonicity_violation, random_poset, review_values


# -- construction -------------------------------------------------------------


def test_closure_from_hasse(fig):
    assert fig.leq("bot", "a") and fig.leq("bot", "b")
    assert fig.leq("a", "a")
    assert not fig.leq("a", "b") and not fig.leq("b", "a")


def test_three_step_transitivity():
    p = FinitePoset(["w", "x", "y", "z"], [("w", "x"), ("x", "y"), ("y", "z")])
    assert p.leq("w", "z")


def test_cycle_rejected():
    with pytest.raises(NotAPartialOrderError, match="cycle through 'x' and 'y'"):
        FinitePoset(["x", "y"], [("x", "y"), ("y", "x")])


def test_duplicate_elements_rejected():
    with pytest.raises(InputError):
        FinitePoset(["x", "x"], [])


def test_unknown_element_errors(fig):
    with pytest.raises(ElementNotFoundError):
        fig.leq("bot", "nope")
    with pytest.raises(ElementNotFoundError):
        FinitePoset(["x"], [("x", "ghost")])


def test_unknown_element_in_a_pair_is_named():
    with pytest.raises(ElementNotFoundError, match="unknown element 'y'"):
        FinitePoset(["x"], [("y", "x")])
    with pytest.raises(ElementNotFoundError, match="unknown element 'y'"):
        FinitePoset(["x"], [("x", "y")])


def test_size_cap():
    with pytest.raises(SizeCapError, match="poset has 4097 elements, cap is 4096"):
        FinitePoset([f"e{i}" for i in range(4097)], [])


# -- the closure against reachability over pairs -------------------------------


def _reachable(elements, pairs) -> dict[str, set[str]]:
    """Each element's set of elements reachable by zero or more pairs."""
    succ = {x: set() for x in elements}
    for x, y in pairs:
        succ[x].add(y)
    reach = {}
    for x in elements:
        seen, stack = {x}, [x]
        while stack:
            for y in succ[stack.pop()] - seen:
                seen.add(y)
                stack.append(y)
        reach[x] = seen
    return reach


def _cycle_message(elements, reach) -> str | None:
    """The first element, in element order, on a cycle, with the first
    distinct element, in element order, on a cycle with it."""
    for x in elements:
        mates = [y for y in elements if y != x and y in reach[x] and x in reach[y]]
        if mates:
            return f"cycle through {x!r} and {mates[0]!r}"
    return None


def _assert_closes(elements, pairs):
    """FinitePoset(elements, pairs) is the reachability order, or raises
    the cycle error that reachability predicts."""
    reach = _reachable(elements, pairs)
    message = _cycle_message(elements, reach)
    if message is not None:
        with pytest.raises(NotAPartialOrderError) as exc:
            FinitePoset(elements, pairs)
        assert str(exc.value) == message
        return
    p = FinitePoset(elements, pairs)
    for x in elements:
        for y in elements:
            assert p.leq(x, y) == (y in reach[x]), (x, y)
    for y in elements:
        assert p.down_mask(y) == p.mask_of(x for x in elements if y in reach[x]), y
        assert p.up_mask(y) == p.mask_of(reach[y]), y


def _random_relation(rng: random.Random) -> tuple[list[str], list[tuple[str, str]]]:
    """A generating relation on 1-9 elements listed in shuffled order:
    forward pairs of a hidden order, self-pairs, duplicates, and now
    and then a backward pair that closes a cycle."""
    n = rng.randint(1, 9)
    ranked = [f"e{i}" for i in range(n)]
    pairs = [(ranked[i], ranked[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    pairs += [(x, x) for x in ranked if rng.random() < 0.2]
    pairs += rng.sample(pairs, min(len(pairs), rng.randint(0, 2)))
    if n > 1 and rng.random() < 0.3:
        i, j = sorted(rng.sample(range(n), 2))
        pairs.append((ranked[j], ranked[i]))
    rng.shuffle(pairs)
    elements = ranked[:]
    rng.shuffle(elements)
    return elements, pairs


@pytest.mark.parametrize("seed", range(40))
def test_closure_matches_reachability_on_shuffled_relations(seed):
    rng = random.Random(seed)
    for _ in range(10):
        _assert_closes(*_random_relation(rng))


def test_shuffled_relations_cover_cycles_and_orders():
    rng = random.Random(0)
    messages = [_cycle_message(e, _reachable(e, p)) for e, p in (_random_relation(rng) for _ in range(400))]
    assert 20 <= sum(m is not None for m in messages) <= 380


def test_cycle_names_the_first_element_on_a_cycle_and_its_lowest_mate():
    elements = ["a", "z", "y", "x", "w"]
    pairs = [("a", "z"), ("w", "y"), ("y", "x"), ("x", "w"), ("z", "z")]
    with pytest.raises(NotAPartialOrderError, match="^cycle through 'y' and 'x'$"):
        FinitePoset(elements, pairs)


def test_reversed_chain_closes():
    names = [f"c{i}" for i in range(300)]
    pairs = list(zip(names, names[1:]))
    p = FinitePoset(names[::-1], pairs)
    for i, x in enumerate(names):
        assert p.up_mask(x) == p.mask_of(names[i:])
        assert p.down_mask(x) == p.mask_of(names[: i + 1])
    assert p.leq("c0", "c299") and not p.leq("c299", "c0")
    with pytest.raises(NotAPartialOrderError, match="^cycle through 'c299' and 'c298'$"):
        FinitePoset(names[::-1], [*pairs, ("c299", "c0")])


def test_shuffled_claw_and_grid_close():
    rng = random.Random(1)
    claw = ["bot", *(f"a{i}" for i in range(6))]
    claw_pairs = [("bot", a) for a in claw[1:]]
    cells = [f"{x}{y}{z}" for x in range(3) for y in range(3) for z in range(3)]
    grid_pairs = [(c, d) for c in cells for d in cells
                  if sum(int(a) for a in d) == sum(int(a) for a in c) + 1
                  and all(a <= b for a, b in zip(c, d))]
    for elements, pairs in ((claw, claw_pairs), (cells, grid_pairs)):
        elements = elements[::-1]
        _assert_closes(elements, pairs)
        rng.shuffle(elements)
        _assert_closes(elements, pairs)


# -- bounds --------------------------------------------------------------------


def test_lub_on_vee(fig, fig_lattice):
    assert fig.lub(["bot", "a"]) == "a"
    assert fig.lub(["a", "b"]) is None
    assert fig_lattice.lub(["a", "b"]) == "top"


def test_glb_examples(fig):
    assert fig.glb(["a", "b"]) == "bot"
    assert review_values().glb(["accept", "borderline"]) == "tendency_accept"
    assert fig.glb(["a"]) == "a"


def test_empty_bounds(fig, fig_lattice):
    assert fig.lub([]) == "bot"
    assert fig.glb([]) is None  # no greatest element
    assert fig_lattice.glb([]) == "top"


def _brute_lub(p, s):
    ubs = [x for x in p.elements if all(p.leq(y, x) for y in s)]
    least = [x for x in ubs if all(p.leq(x, u) for u in ubs)]
    return least[0] if least else None


def _brute_glb(p, s):
    lbs = [x for x in p.elements if all(p.leq(x, y) for y in s)]
    greatest = [x for x in lbs if all(p.leq(l, x) for l in lbs)]
    return greatest[0] if greatest else None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 255))
def test_lub_glb_match_brute_force(seed, subset_bits):
    import random

    p = random_poset(random.Random(seed), max_elements=6)
    s = [x for i, x in enumerate(p.elements) if subset_bits >> i & 1]
    assert p.lub(s) == _brute_lub(p, s)
    assert p.glb(s) == _brute_glb(p, s)


# -- subset shape ----------------------------------------------------------------


def test_min_max_sets(fig):
    assert fig._max_mask(fig.mask_of(["bot", "a", "b"])) == fig.mask_of(["a", "b"])
    assert fig._max_mask(0) == 0


def _is_chain(p, s):
    return all(p.leq(x, y) or p.leq(y, x) for x, y in itertools.combinations(s, 2))


def _is_convex(p, smask):
    """Whatever lies between two members is a member: the set is its
    up-closure intersected with its down-closure."""
    return p._up_closure(smask) & p._down_closure(smask) == smask


def test_chain_antichain_convex(fig):
    ab = fig.mask_of(["a", "b"])
    assert fig._max_mask(ab) == ab  # an antichain is its own max-set
    assert not _is_chain(fig, ["bot", "a", "b"])
    assert _is_chain(fig, ["bot", "a"])
    assert _is_convex(fig, fig.mask_of(["bot", "a"]))


def _brute_convex(p, s):
    ss = set(s)
    return all(
        y in ss
        for x in s
        for z in s
        for y in p.elements
        if p.leq(x, y) and p.leq(y, z)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 255))
def test_convexity_matches_enumeration(seed, bits):
    import random

    p = random_poset(random.Random(seed), max_elements=6)
    s = [x for i, x in enumerate(p.elements) if bits >> i & 1]
    assert _is_convex(p, p.mask_of(s)) == _brute_convex(p, s)


def _lower_closure(p, s):
    mask = 0
    for x in s:
        mask |= p.down_mask(x)
    return p.set_of(mask)


def test_closures(fig):
    assert _lower_closure(fig, ["a"]) == {"bot", "a"}
    assert fig.set_of(fig.up_mask("bot")) == {"bot", "a", "b"}
    assert _lower_closure(fig, []) == frozenset()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 255))
def test_lower_closure_monotone_idempotent(seed, bits):
    import random

    p = random_poset(random.Random(seed), max_elements=6)
    s = frozenset(x for i, x in enumerate(p.elements) if bits >> i & 1)
    lc = _lower_closure(p, s)
    assert s <= lc
    assert _lower_closure(p, lc) == lc


# -- classification -----------------------------------------------------------


def _brute_classify(p):
    elems = p.elements
    has_least = any(all(p.leq(x, y) for y in elems) for x in elems)
    bounded = has_least and all(
        p.glb(s) is not None
        for r in range(1, len(elems) + 1)
        for s in itertools.combinations(elems, r)
    )
    complete = bounded and any(all(p.leq(y, x) for y in elems) for x in elems)
    return has_least, bounded, complete


def test_classify_examples(fig, fig_lattice):
    cls = fig.classify()
    assert (cls.has_least, cls.is_cpo, cls.is_bounded_complete, cls.is_complete_lattice) == (
        True,
        True,
        True,
        False,
    )
    values = review_values()
    vc = values.classify()
    assert vc.is_bounded_complete and not vc.is_complete_lattice
    assert fig_lattice.classify().is_complete_lattice
    two = FinitePoset(["0", "1"], [("0", "1")])
    assert two.classify().is_complete_lattice


def test_classification_implication_chain(fig):
    cls = fig.classify()
    assert cls.is_complete_lattice <= cls.is_bounded_complete <= cls.is_cpo <= cls.has_least


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 127))
def test_bounded_sets_have_lubs_in_bounded_complete_cpos(seed, bits):
    import random

    from corpus import random_bounded_complete_cpo

    p = random_bounded_complete_cpo(random.Random(seed), max_elements=7)
    s = [x for i, x in enumerate(p.elements) if bits >> i & 1]
    has_upper_bound = any(all(p.leq(y, x) for y in s) for x in p.elements)
    if has_upper_bound:
        assert p.lub(s) is not None


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_classify_matches_subset_enumeration(seed):
    import random

    p = random_poset(random.Random(seed), max_elements=6)
    has_least, bounded, complete = _brute_classify(p)
    cls = p.classify()
    assert cls.has_least == has_least == cls.is_cpo
    assert cls.is_bounded_complete == bounded
    assert cls.is_complete_lattice == complete
    for r in range(len(p) + 1):
        for s in itertools.combinations(p.elements, r):
            assert p.glb(s) == _brute_glb(p, s)
            assert p.lub(s) == _brute_lub(p, s)
    pairs = [s for s in itertools.combinations(p.elements, 2) if _brute_glb(p, s) is None]
    assert p.pair_without_glb() == (pairs[0] if pairs else None)


def _assert_classification_is_generic(p):
    """The flags `p` carries equal those computed from its order alone."""
    recorded = p.classify()
    rebuilt = FinitePoset(p.elements, [(x, y) for x in p.elements for y in p.elements if p.leq(x, y)])
    assert recorded == rebuilt.classify()
    if len(p) <= 12:
        has_least, bounded, complete = _brute_classify(rebuilt)
        assert (recorded.has_least, recorded.is_bounded_complete, recorded.is_complete_lattice) == (
            has_least,
            bounded,
            complete,
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.sampled_from(["subset", "superset"]))
def test_powerset_classification_is_recorded_correctly(n, order):
    _assert_classification_is_generic(powerset_lattice([f"a{i}" for i in range(n)], order))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_product_classification_is_recorded_correctly(seed, k):
    import random

    rng = random.Random(seed)
    factors = [random_poset(rng, max_elements=5) for _ in range(k)]
    _assert_classification_is_generic(product_poset(factors))


def test_product_with_an_empty_factor(fig):
    prod = product_poset([fig, FinitePoset([])])
    assert len(prod) == 0
    assert not any(dataclasses.astuple(prod.classify()))
    _assert_classification_is_generic(prod)


# -- powersets and products -----------------------------------------------------


def test_powerset_chain_and_diamond():
    chain = powerset_lattice(["p"])
    assert len(chain) == 2 and chain.leq("{}", "{p}")
    diamond = powerset_lattice(["p", "q"])
    assert len(diamond) == 4
    assert diamond.least() == "{}" and diamond.greatest() == "{p,q}"
    assert diamond.lub(["{p}", "{q}"]) == "{p,q}"


def test_belief_state_lattice():
    interps = [set_id(s) for s in ([], ["p"], ["q"], ["p", "q"])]
    belief = powerset_lattice(interps, "superset")
    assert len(belief) == 16
    assert belief.least() == set_id(interps)  # all interpretations possible
    assert belief.greatest() == "{}"
    assert belief.classify().is_complete_lattice


@pytest.mark.parametrize("order", ["subset", "superset"])
@pytest.mark.parametrize("n", range(6))
def test_powerset_primitives_match_the_explicit_order(n, order):
    """Every primitive of the implicit powerset equals that of the same
    order stored explicitly, built from the atoms' subsets, on every
    element and on random subsets."""
    rng = random.Random(n)
    atoms = [f"a{i}" for i in range(n)]
    p = powerset_lattice(atoms, order)
    subsets = [frozenset(a for k, a in enumerate(atoms) if i >> k & 1) for i in range(1 << n)]
    below = [(s, t) if order == "subset" else (t, s) for s in subsets for t in subsets if s <= t]
    q = FinitePoset([set_id(s) for s in subsets], [(set_id(s), set_id(t)) for s, t in below])
    assert q.elements == p.elements
    for x in p.elements:
        assert p.up_mask(x) == q.up_mask(x) and p.down_mask(x) == q.down_mask(x)
        assert [p.leq(x, y) for y in p.elements] == [q.leq(x, y) for y in q.elements]
    masks = [0, p._full] + [rng.getrandbits(len(p)) for _ in range(60)]
    for m in masks:
        s = p.set_of(m)
        assert p.lub(s) == q.lub(s) and p.glb(s) == q.glb(s)
        assert p._lub_mask(m) == q._lub_mask(m) and p._glb_mask(m) == q._glb_mask(m)
        assert p._max_mask(m) == q._max_mask(m)
        assert p._up_closure(m) == q._up_closure(m)
        assert p._down_closure(m) == q._down_closure(m)
    assert p.pair_without_glb() is None and p.classify() == q.classify()
    for _ in range(20):
        table = [rng.randrange(len(p)) for _ in p.elements]
        keep, add = rng.getrandbits(n), rng.getrandbits(n)
        monotone = [i & keep | add for i in range(len(p))]
        for t in (table, monotone):
            assert monotonicity_violation(ExactOperator(p, t)) == (
                monotonicity_violation(ExactOperator(q, t))
            )
    two = FinitePoset(["0", "1"], [("0", "1")])
    pp, qq = product_poset([p, two]), product_poset([q, two])
    assert pp.elements == qq.elements
    assert [pp.up_mask(x) for x in pp.elements] == [qq.up_mask(x) for x in qq.elements]


def test_powerset_caps():
    with pytest.raises(SizeCapError, match="powerset would have 131072 elements, cap is 65536"):
        powerset_lattice([f"a{i}" for i in range(17)])
    with pytest.raises(InputError):
        powerset_lattice(["a"], order="sideways")


def _random_factor(rng: random.Random) -> FinitePoset:
    kind = rng.random()
    if kind < 0.2:
        return FinitePoset(["only"])
    if kind < 0.45:
        atoms = ["p", "q"][: rng.randint(0, 2)]
        return powerset_lattice(atoms, rng.choice(["subset", "superset"]))
    return random_poset(rng, max_elements=4)


@pytest.mark.parametrize("seed", range(40))
def test_product_order_is_the_pointwise_order(seed):
    """Identifiers, up-sets and down-sets of a product of 1-3 random
    factors (1-element, powerset and general posets) against the
    pointwise order built pair by pair from the factors' leq."""
    rng = random.Random(seed)
    factors = [_random_factor(rng) for _ in range(rng.randint(1, 3))]
    prod = product_poset(factors)
    combos = list(itertools.product(*(f.elements for f in factors)))
    assert prod.elements == tuple(tuple_id(c) for c in combos)
    for i, x in enumerate(combos):
        up = down = 0
        for j, y in enumerate(combos):
            if all(f.leq(a, b) for f, a, b in zip(factors, x, y)):
                up |= 1 << j
            if all(f.leq(b, a) for f, a, b in zip(factors, x, y)):
                down |= 1 << j
        assert prod._up_of(i) == up and prod._down_of(i) == down, (seed, x)


def test_product_diamond_shape():
    two = FinitePoset(["0", "1"], [("0", "1")])
    prod = product_poset([two, two])
    assert len(prod) == 4
    assert prod.classify().is_complete_lattice
    assert prod.lub(["(0|1)", "(1|0)"]) == "(1|1)"


def test_product_preserves_bounded_completeness():
    values = review_values()
    prod = product_poset([values, values])
    assert len(prod) == 36
    cls = prod.classify()
    assert cls.is_bounded_complete and not cls.is_complete_lattice


def test_product_of_single_factor_is_isomorphic(fig):
    prod = product_poset([fig])
    assert len(prod) == len(fig)
    for x in fig.elements:
        for y in fig.elements:
            assert prod.leq(f"({x})", f"({y})") == fig.leq(x, y)


def test_product_cap():
    values = review_values()
    with pytest.raises(SizeCapError):
        product_poset([values] * 5)

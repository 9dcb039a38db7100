"""Least fixpoints and monotone inductions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from genaft import (
    FinitePoset,
    InductionTrace,
    MonotoneOperator,
    is_postfixpoint,
    is_prefixpoint,
    lfp,
    powerset_lattice,
    run_monotone_induction,
)
from genaft.errors import InvalidRefinementError, MonotonicityError, PreconditionError
from genaft.fixpoints import random_strategy, verify_monotone
from corpus import random_poset


def _identity(fig):
    return MonotoneOperator(fig, lambda x: x)


def test_lfp_identity_and_constant(fig):
    assert lfp(_identity(fig)) == "bot"
    assert lfp(MonotoneOperator(fig, lambda x: "a")) == "a"


def test_lfp_immediate_consequence_two_steps():
    lattice = powerset_lattice(["p", "q"])

    def step(ident):
        have = set() if ident == "{}" else set(ident[1:-1].split(","))
        out = {"p"}
        if "p" in have:
            out.add("q")
        return "{" + ",".join(sorted(out)) + "}"

    op = MonotoneOperator(lattice, step)
    fixpoints = [x for x in lattice.elements if step(x) == x]
    least = [x for x in fixpoints if all(lattice.leq(x, y) for y in fixpoints)]
    assert least == ["{p,q}"]
    assert lfp(op) == "{p,q}"


def test_lfp_requires_least_element():
    no_bottom = FinitePoset(["x", "y"], [])
    with pytest.raises(PreconditionError):
        lfp(MonotoneOperator(no_bottom, lambda v: v))


def test_lfp_detects_decreasing_step(fig):
    swap = {"bot": "a", "a": "b", "b": "a"}
    with pytest.raises(MonotonicityError):
        lfp(MonotoneOperator(fig, lambda x: swap[x]))


def test_pre_and_post_fixpoints(fig):
    const_a = MonotoneOperator(fig, lambda x: "a")
    assert is_postfixpoint(const_a, "bot")
    assert is_prefixpoint(const_a, "a")
    assert not is_prefixpoint(const_a, "b")  # a is not below b
    assert is_prefixpoint(const_a, lfp(const_a))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_lfp_below_every_prefixpoint(seed, op_seed):
    rng = random.Random(seed)
    p = random_poset(rng, max_elements=6)
    if p.least() is None:
        return
    op_rng = random.Random(op_seed)
    table = _random_monotone_table(p, op_rng)
    op = MonotoneOperator(p, table.__getitem__)
    least = lfp(op)
    for x in p.elements:
        if p.leq(table[x], x):
            assert p.leq(least, x)


def _random_monotone_table(p, rng):
    """A random monotone self-map, built upward along a linear extension."""
    order = sorted(p.elements, key=lambda x: len(p.lower_closure([x])))
    table = {}
    for x in order:
        lower_images = [table[y] for y in p.elements if y != x and y in table and p.leq(y, x)]
        candidates = [
            c
            for c in p.elements
            if all(p.leq(img, c) for img in lower_images)
        ]
        table[x] = rng.choice(candidates) if candidates else x
    # candidates can be empty only if images are unbounded; retry never
    # needed because the full poset always has the image itself
    if verify_monotone(MonotoneOperator(p, table.__getitem__), p.elements) is not None:
        # extremely sparse posets may defeat the construction; fall back
        table = {x: x for x in p.elements}
    return table


def test_iteration_bounded_by_longest_chain():
    chain = FinitePoset(
        [f"c{i}" for i in range(6)], [(f"c{i}", f"c{i+1}") for i in range(5)]
    )
    steps = {f"c{i}": f"c{min(i + 1, 5)}" for i in range(6)}
    trace = run_monotone_induction(MonotoneOperator(chain, steps.__getitem__))
    assert len(trace) <= chain.longest_chain_length()
    assert trace.limit == "c5"


def test_default_induction_trace(fig):
    trace = run_monotone_induction(MonotoneOperator(fig, lambda x: "a"))
    assert trace.steps == ("bot", "a")
    assert trace.limit == lfp(MonotoneOperator(fig, lambda x: "a"))


def test_random_strategies_share_the_limit():
    lattice = powerset_lattice(["p", "q", "r"])
    full = lattice.greatest()
    op = MonotoneOperator(lattice, lambda x: full)
    limits = set()
    for seed in range(8):
        strat = random_strategy(lattice.elements, lattice, random.Random(seed))
        limits.add(run_monotone_induction(op, strat).limit)
    assert limits == {full}
    assert lfp(op) == full


def test_stalled_strategy_is_rejected(fig):
    op = MonotoneOperator(fig, lambda x: "a")
    with pytest.raises(InvalidRefinementError):
        run_monotone_induction(op, lambda x, fx: x)
    assert not is_prefixpoint(op, "bot")
    assert is_prefixpoint(op, "a")


def test_strategy_leaving_sandwich_is_rejected(fig):
    op = MonotoneOperator(fig, lambda x: "a")
    with pytest.raises(InvalidRefinementError):
        run_monotone_induction(op, lambda x, fx: "b")


def test_trace_invariants_of_runner(fig_lattice):
    op = MonotoneOperator(fig_lattice, lambda x: "top" if x != "bot" else "a")
    trace = run_monotone_induction(op)
    assert isinstance(trace, InductionTrace)
    assert trace.steps[0] == "bot"
    for cur, nxt in zip(trace.steps, trace.steps[1:]):
        assert fig_lattice.leq(cur, nxt)
        assert fig_lattice.leq(nxt, op.apply(cur))


def test_verify_monotone_finds_witness(fig):
    drop = {"bot": "a", "a": "bot", "b": "b"}
    bad = MonotoneOperator(fig, drop.__getitem__)
    witness = verify_monotone(bad, fig.elements)
    assert witness is not None
    x, y = witness
    assert fig.leq(x, y) and not fig.leq(drop[x], drop[y])

"""Least fixpoints of monotone operators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from genaft import ExactOperator, FinitePoset, MonotoneOperator, lfp, powerset_lattice
from genaft.errors import MonotonicityError, PreconditionError
from corpus import random_poset


def _identity(fig):
    return MonotoneOperator(fig, lambda x: x)


def _is_prefixpoint(op, x):
    return op.domain.leq(op.apply(x), x)


def _is_postfixpoint(op, x):
    return op.domain.leq(x, op.apply(x))


def test_lfp_identity_and_constant(fig):
    assert lfp(_identity(fig), step_cap=len(fig)) == "bot"
    assert lfp(MonotoneOperator(fig, lambda x: "a"), step_cap=len(fig)) == "a"


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
    assert lfp(op, step_cap=len(lattice)) == "{p,q}"


def test_lfp_requires_least_element():
    no_bottom = FinitePoset(["x", "y"], [])
    with pytest.raises(PreconditionError):
        lfp(MonotoneOperator(no_bottom, lambda v: v), step_cap=len(no_bottom))


def test_lfp_detects_decreasing_step(fig):
    swap = {"bot": "a", "a": "b", "b": "a"}
    with pytest.raises(MonotonicityError):
        lfp(MonotoneOperator(fig, lambda x: swap[x]), step_cap=len(fig))


def test_pre_and_post_fixpoints(fig):
    const_a = MonotoneOperator(fig, lambda x: "a")
    assert _is_postfixpoint(const_a, "bot")
    assert _is_prefixpoint(const_a, "a")
    assert not _is_prefixpoint(const_a, "b")  # a is not below b
    assert _is_prefixpoint(const_a, lfp(const_a, step_cap=len(fig)))


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
    least = lfp(op, step_cap=len(p))
    for x in p.elements:
        if p.leq(table[x], x):
            assert p.leq(least, x)


def _random_monotone_table(p, rng):
    """A random monotone self-map, built upward along a linear extension."""
    order = sorted(p.elements, key=lambda x: p.down_mask(x).bit_count())
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
    as_indices = [p.index(table[x]) for x in p.elements]
    if ExactOperator(p, as_indices).monotonicity_violation() is not None:
        # extremely sparse posets may defeat the construction; fall back
        table = {x: x for x in p.elements}
    return table


def test_iteration_bounded_by_longest_chain():
    """A chain of 6 elements: 5 strict steps, and the sixth application
    sees the fixpoint."""
    chain = FinitePoset(
        [f"c{i}" for i in range(6)], [(f"c{i}", f"c{i+1}") for i in range(5)]
    )
    steps = {f"c{i}": f"c{min(i + 1, 5)}" for i in range(6)}
    op = MonotoneOperator(chain, steps.__getitem__)
    assert lfp(op, step_cap=6) == "c5"
    with pytest.raises(MonotonicityError, match="within 5 steps"):
        lfp(op, step_cap=5)


def test_monotonicity_violation_finds_witness(fig):
    drop = {"bot": "a", "a": "bot", "b": "b"}
    bad = ExactOperator(fig, [fig.index(drop[x]) for x in fig.elements])
    witness = bad.monotonicity_violation()
    assert witness is not None
    x, y = witness
    assert fig.leq(x, y) and not fig.leq(drop[x], drop[y])

"""Shared instance builders and helpers for the test suite.

Houses the bounded rule grammar the exhaustive logic-programming sweeps
run over, a tiny rule syntax, seeded random generators for programs and
bounded-complete cpos, the two worked instances (the introspective-agent
theory and the paper-review wADF) used throughout, and two readings of
an exact operator at identifiers: an element's image and a monotonicity
violation.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable

from genaft import (
    FinitePoset,
    check_abstract_ilp,
    check_chain_ilp,
    check_glb_property,
    check_weak_ilp,
)
from genaft.encoders import AelTheory, NormalLogicProgram, Rule, Wadf
from genaft.errors import RecomposeUndefinedError
from genaft.engine import ExactOperator
from genaft.flowers import FlowerFramework
from genaft.framework import DEFAULT_CAPS
from genaft.posets import _bits


# -- exact operators at identifiers ------------------------------------------


def image(op: ExactOperator, x: str) -> str:
    """The identifier of `op`'s image of the element `x`."""
    return op.domain.elements[op.table[op.domain.index(x)]]


def monotonicity_violation(op: ExactOperator) -> tuple[str, str] | None:
    """A pair x <= y of elements with op(x) not below op(y), or None."""
    up, table = op.domain._up_of, op.table
    for i, fi in enumerate(table):
        above = up(fi)
        for j in _bits(up(i)):
            if not above >> table[j] & 1:
                return (op.domain.elements[i], op.domain.elements[j])
    return None


# -- worked instances --------------------------------------------------------

VEE = {"elements": ["bot", "a", "b"], "hasse": [["bot", "a"], ["bot", "b"]]}
CLAW = {
    "elements": ["bot", "a", "b", "c"],
    "hasse": [["bot", "a"], ["bot", "b"], ["bot", "c"]],
}
# The AUBs above x are the twelve non-empty antichains of {x,a,b,c,d}:
# a full MAX_SUBSET_POOL pool for the ALB x.
TWELVE_POOL = {
    "elements": ["bot", "x", "a", "b", "c", "d"],
    "hasse": [["bot", "x"], ["x", "a"], ["x", "b"], ["x", "c"], ["c", "d"]],
}
VEE_TOP = {
    "elements": ["bot", "a", "b", "top"],
    "hasse": [["bot", "a"], ["bot", "b"], ["a", "top"], ["b", "top"]],
}


def vee_poset() -> FinitePoset:
    """Least element below two incomparable points: bounded-complete,
    not a complete lattice."""
    return FinitePoset.from_json(VEE)


def claw_poset() -> FinitePoset:
    """Least element below three incomparable points."""
    return FinitePoset.from_json(CLAW)


def twelve_pool_poset() -> FinitePoset:
    """bot below x, and x below a, b and c < d: the ALB x is compatible
    with exactly twelve AUBs, bot with thirteen."""
    return FinitePoset.from_json(TWELVE_POOL)


def vee_lattice() -> FinitePoset:
    return FinitePoset.from_json(VEE_TOP)


def agent_theory() -> AelTheory:
    """q holds iff p is not known; r holds iff q is not known."""
    return AelTheory.from_json(
        {
            "atoms": ["p", "q", "r"],
            "sentences": [
                ["iff", ["atom", "q"], ["not", ["K", ["atom", "p"]]]],
                ["iff", ["atom", "r"], ["not", ["K", ["atom", "q"]]]],
            ],
        }
    )


REVIEW_VALUES = {
    "elements": [
        "accept",
        "borderline",
        "reject",
        "tendency_accept",
        "tendency_reject",
        "indifferent",
    ],
    "hasse": [
        ["indifferent", "tendency_accept"],
        ["indifferent", "tendency_reject"],
        ["tendency_accept", "accept"],
        ["tendency_accept", "borderline"],
        ["tendency_reject", "borderline"],
        ["tendency_reject", "reject"],
    ],
}


def review_values() -> FinitePoset:
    return FinitePoset.from_json(REVIEW_VALUES)


def review_wadf() -> Wadf:
    """A paper's status jointly supported by significance and methodology."""
    return Wadf.from_json(
        {
            "arguments": ["significance", "methodology", "status"],
            "values": REVIEW_VALUES,
            "acceptance": {
                "significance": ["const", "accept"],
                "methodology": ["const", "borderline"],
                "status": ["glb", ["parent", "significance"], ["parent", "methodology"]],
            },
        }
    )


# -- the bounded rule grammar ------------------------------------------------


def parse_program(source: Iterable[str] | str) -> NormalLogicProgram:
    """Tiny rule syntax: "p :- q, not r"."""
    if isinstance(source, str):
        source = [ln for ln in source.splitlines() if ln.strip()]
    rules = []
    seen: set[str] = set()
    for line in source:
        line = line.strip().rstrip(".")
        if ":-" in line:
            head, body = line.split(":-")
        else:
            head, body = line, ""
        pos, neg = set(), set()
        for lit in filter(None, (b.strip() for b in body.split(","))):
            if lit.startswith("not "):
                neg.add(lit[4:].strip())
            else:
                pos.add(lit)
        head = head.strip()
        rules.append(Rule(head, frozenset(pos), frozenset(neg)))
        seen |= {head, *pos, *neg}
    return NormalLogicProgram(tuple(sorted(seen)), tuple(rules))



def _bodies(atoms: tuple[str, ...], max_literals: int):
    """All bodies with at most `max_literals` signed, distinct atoms."""
    yield (frozenset(), frozenset())
    for size in range(1, max_literals + 1):
        for picked in itertools.combinations(atoms, size):
            for signs in itertools.product((False, True), repeat=size):
                pos = frozenset(a for a, s in zip(picked, signs) if not s)
                neg = frozenset(a for a, s in zip(picked, signs) if s)
                yield (pos, neg)


def single_rule_programs(atoms: tuple[str, ...], max_literals: int = 2):
    """Every program giving each atom at most one rule with a short body."""
    options = [None] + list(_bodies(atoms, max_literals))
    for combo in itertools.product(options, repeat=len(atoms)):
        rules = tuple(
            Rule(head, pos, neg)
            for head, body in zip(atoms, combo)
            if body is not None
            for pos, neg in [body]
        )
        yield NormalLogicProgram(atoms, rules)


def two_rule_programs(atoms: tuple[str, ...]):
    """Every program giving each atom up to two unit-body rules; this is
    where the classic even/odd loops and their overlaps live."""
    bodies = list(_bodies(atoms, 1))
    per_atom = (
        [()]
        + [(b,) for b in bodies]
        + [pair for pair in itertools.combinations(bodies, 2)]
    )
    for combo in itertools.product(per_atom, repeat=len(atoms)):
        rules = tuple(
            Rule(head, pos, neg)
            for head, chosen in zip(atoms, combo)
            for pos, neg in chosen
        )
        yield NormalLogicProgram(atoms, rules)


def grammar_programs():
    """The exhaustive corpus: single-rule programs over up to three
    atoms plus double-rule programs over two."""
    yield from single_rule_programs(("p",))
    yield from single_rule_programs(("p", "q"))
    yield from single_rule_programs(("p", "q", "r"))
    yield from two_rule_programs(("p", "q"))


def random_program(atoms: tuple[str, ...], rng: random.Random) -> NormalLogicProgram:
    rules = []
    for head in atoms:
        for _ in range(rng.randint(0, 2)):
            size = rng.randint(0, min(3, len(atoms)))
            picked = rng.sample(atoms, size)
            pos = frozenset(a for a in picked if rng.random() < 0.5)
            neg = frozenset(picked) - pos
            rules.append(Rule(head, pos, frozenset(neg)))
    unique = tuple(dict.fromkeys(rules))
    return NormalLogicProgram(tuple(sorted(atoms)), unique)


# -- mutants for the verification suite ----------------------------------------


class SwappedRecompose(FlowerFramework):
    """Mutant: two recompositions exchanged; decompose-recompose breaks."""

    def __init__(self, exact, swap_a="a", swap_b="bot", **kw):
        super().__init__(exact, **kw)
        self._swap_a, self._swap_b = swap_a, swap_b

    def recompose(self, l, u):
        x = super().recompose(l, u)
        if (x.alb, x.aub) == (self._swap_a, (self._swap_a,)):
            return super().recompose(self._swap_b, (self._swap_b,))
        if (x.alb, x.aub) == (self._swap_b, (self._swap_b,)):
            return super().recompose(self._swap_a, (self._swap_a,))
        return x


class NoSideCondition(FlowerFramework):
    """Mutant: the composition order compares lower closures only,
    allowing an antichain below a single element."""

    def bound_leq(self, side1, b1, side2, b2):
        mask1 = self.exact.down_mask(b1) if side1 == "L" else self.aub_mask(b1)
        mask2 = self.exact.down_mask(b2) if side2 == "L" else self.aub_mask(b2)
        return mask1 & ~mask2 == 0


class NonTransitiveOrder(FlowerFramework):
    """Mutant: the AUB {bot} is below {a} and {a} below {a,b}, but {bot}
    is not below {a,b}; the combined order loses transitivity."""

    def bound_leq(self, side1, b1, side2, b2):
        if (side1, b1, side2, b2) == ("U", ("bot",), "U", ("a", "b")):
            return False
        return super().bound_leq(side1, b1, side2, b2)


class RejectingRecompose(FlowerFramework):
    """Mutant: on the claw, the ALB a is compatible with the AUB {a,b}
    in the combined order, but recompose rejects the pair."""

    def recompose(self, l, u):
        if (l, tuple(u)) == ("a", ("a", "b")):
            raise RecomposeUndefinedError("a is rejected with the AUB {a,b}")
        return super().recompose(l, u)


class WrongPairMeet(FlowerFramework):
    """Mutant: the meet of the AUBs {a} and {a,b} is {bot}, a lower
    bound of both but not the greatest one."""

    def glb_U(self, us):
        us = list(us)
        if sorted(us) == [("a",), ("a", "b")]:
            return ("bot",)
        return super().glb_U(us)


class WrongTripleMeet(FlowerFramework):
    """Mutant: on the claw, the glb of the AUBs {a,b}, {a,c} and {a,b,c}
    is {b} rather than {a}; every pair and every other set keeps its
    glb."""

    def glb_U(self, us):
        us = list(us)
        if sorted(us) == [("a", "b"), ("a", "b", "c"), ("a", "c")]:
            return ("b",)
        return super().glb_U(us)


class WrongElevenMeet(FlowerFramework):
    """Mutant: on `twelve_pool_poset`, the glb of the eleven AUBs above x
    other than {x} is {bot} rather than {x}; every other set keeps its
    glb.  Only the exhaustive subsets of x's twelve-member pool reach it."""

    ELEVEN = sorted([("a",), ("b",), ("c",), ("d",), ("a", "b"), ("a", "c"), ("a", "d"),
                     ("b", "c"), ("b", "d"), ("a", "b", "c"), ("a", "b", "d")])

    def glb_U(self, us):
        us = list(us)
        if sorted(us) == self.ELEVEN:
            return ("bot",)
        return super().glb_U(us)


class WrongLubL(FlowerFramework):
    """Mutant: the lub of any set of ALBs is the last exact element, b on
    the vee poset, which is not an upper bound of the ALB a."""

    def lub_L(self, ls):
        return self.exact.elements[-1]


def flower_propositions(fw: FlowerFramework, rng: random.Random) -> list:
    """The chain, weak and abstract interlattice lub properties and the
    interlattice glb property on `fw`, in that order, drawing from `rng`."""
    return [
        check_chain_ilp(fw, DEFAULT_CAPS, rng),
        check_weak_ilp(fw, DEFAULT_CAPS, rng),
        check_abstract_ilp(fw, DEFAULT_CAPS, rng),
        check_glb_property(fw, DEFAULT_CAPS, rng),
    ]


# -- random order structures ---------------------------------------------------


def random_poset(rng: random.Random, max_elements: int = 7) -> FinitePoset:
    n = rng.randint(1, max_elements)
    names = [f"e{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                pairs.append((names[i], names[j]))
    return FinitePoset(names, pairs)


def random_bounded_complete_cpo(rng: random.Random, max_elements: int = 7) -> FinitePoset:
    """Rejection-sampled general shapes with a rooted-tree fallback;
    trees are always bounded-complete (glbs are deepest common
    ancestors), so the function cannot fail."""
    for _ in range(60):
        n = rng.randint(1, max_elements)
        names = [f"e{i}" for i in range(n)]
        pairs = [("e0", x) for x in names[1:]]
        for i in range(1, n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    pairs.append((names[i], names[j]))
        poset = FinitePoset(names, pairs)
        if poset.classify().is_bounded_complete:
            return poset
    n = rng.randint(1, max_elements)
    names = [f"e{i}" for i in range(n)]
    pairs = [(names[rng.randint(0, i - 1)], names[i]) for i in range(1, n)]
    return FinitePoset(names, pairs)


def with_top(poset: FinitePoset) -> FinitePoset:
    """`poset` with a new element "top" above every other: a complete
    lattice when `poset` is bounded-complete."""
    pairs = [(x, y) for x in poset.elements for y in poset.elements if poset.leq(x, y)]
    return FinitePoset([*poset.elements, "top"], pairs + [(x, "top") for x in poset.elements])

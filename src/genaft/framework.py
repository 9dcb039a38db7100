"""Approximation frameworks: composition posets plus their axioms.

A framework bundles an exact poset with two decomposition spaces L (the
approximation lower bounds) and U (the approximation upper bounds), one
order over their union, and the recomposition that turns a compatible
(ALB, AUB) pair back into an approximant.  An approximant is a value, a
NamedTuple of its framework and canonical (alb, aub) bounds, never
materialised as a member list unless asked, because upper decomposition
spaces grow combinatorially.

L is the exact poset in every space.  A space supplies U by the map
between an AUB and its lower closure (`aub_mask`, inverted by
`aub_of_mask`); members, closures, exact approximants and U's extremes
are derived from it once here.  Each space supplies U's meet and join,
and the order as three relations: `alb_leq` on L, `aub_leq` on U and
`cross_leq` from L to U.  The base class derives `bound_leq` from them
and recomposes only the pairs that `cross_leq` holds of.

The checkers in this module verify, by enumeration where feasible and
by seeded sampling otherwise, the five composition-poset requirements,
the four interlattice properties, the well-formedness preamble, and the
compatibility of the approximates-relation.  Failures carry an explicit
counterexample; nothing raises.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import PreconditionError, RecomposeUndefinedError
from .posets import FinitePoset, _bits, _low


class Approximant(NamedTuple):
    """A canonical (ALB, AUB) pair owned by a framework.

    Equality and hash are the tuple's; the framework compares by
    identity, so approximants from different frameworks never compare
    equal.
    """

    space: "ApproximationFramework"
    alb: object
    aub: object

    def __str__(self) -> str:
        return self.space.format_approximant(self)

    def __repr__(self) -> str:
        return f"Approximant(alb={self.alb!r}, aub={self.aub!r})"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verified axiom.

    status is "pass" for exhaustive verification, "sampled" when the
    quantifiers were only probed with seeded samples (and no violation
    was found), and "fail" with a counterexample otherwise.
    """

    axiom: str
    status: str
    counterexample: dict | None = None
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def report_ok(results: Iterable[CheckResult]) -> bool:
    return all(r.ok for r in results)


def report_to_json(results: Iterable[CheckResult]) -> list[dict]:
    out = []
    for r in results:
        entry: dict = {"axiom": r.axiom, "status": r.status}
        if r.counterexample is not None:
            entry["counterexample"] = r.counterexample
        if r.note:
            entry["note"] = r.note
        out.append(entry)
    return out


# Enumeration budgets of the exhaustive checkers.
MAX_APPROXIMANTS = 20000  # enumerate approximant spaces up to this size
MAX_SUBSET_POOL = 12      # enumerate subsets of pools up to this size
MAX_CHAINS = 100_000      # enumerate chains up to this many
MAX_PAIRS = 250_000       # full product scans up to this many tuples

# to_json lists an approximant's members when it has at most this many.
MEMBERS_SHOWN = 64

_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def _selectors(mask: int) -> bytes:
    """The binary digits of `mask`, lowest first, as itertools.compress's selector bytes."""
    return bin(mask)[:1:-1].encode().translate(_SELECTORS)


@dataclass(frozen=True)
class Caps:
    """The sampling budget of the checkers: probes per sampled quantifier."""

    samples: int = 150


DEFAULT_CAPS = Caps()


class ApproximationFramework(ABC):
    """Shared machinery for concrete approximation frameworks."""

    kind: str = "abstract"

    def __init__(self, exact: FinitePoset):
        self.exact = exact
        self._bot = exact.least()
        # The iteration bound of every induction on this framework: 2·|exact|.
        # Each step strictly raises precision: a higher ALB, or an AUB with a
        # smaller lower closure.  The ALBs form a chain in the exact poset and
        # rise at most |exact| − 1 times; the closures are non-empty subsets
        # of it and shrink at most |exact| − 1 times.  So a chain has at most
        # 2·|exact| − 2 steps, and one more iteration sees the fixpoint.  The
        # inner inductions move in L or in U alone: |exact| − 1 steps at most.
        self.step_cap = 2 * len(exact)
        # False until enumerate_approximants fills it.  Every attribute is
        # set in __init__: one added later (or a read of __dict__) leaves the
        # instance off CPython's fast attribute path, which slowed checks by 10 %.
        self._all_approximants: tuple[Approximant, ...] | None | bool = False
        self._recomposed: dict[tuple, Approximant] = {}
        self._closures: dict[int, Approximant] = {}
        self._members: dict[Approximant, int] = {}
        self._rows: tuple[tuple[int, ...], tuple[int, ...]] | None = None  # see _order_rows
        self._top_aub = self.aub_of_mask(exact._full)

    # -- the combined order over L and U ----------------------------------

    def bound_leq(self, side1: str, b1, side2: str, b2) -> bool:
        """The order on L u U, read from the space's alb_leq, cross_leq
        and aub_leq; sides are "L" or "U"."""
        if side1 == "L":
            return self.alb_leq(b1, b2) if side2 == "L" else self.cross_leq(b1, b2)
        # An AUB is never below an ALB: the side condition.
        return side2 == "U" and self.aub_leq(b1, b2)

    # -- decomposition space structure -------------------------------------

    def albs(self) -> Sequence:
        return self.exact.elements

    def lub_L(self, ls: Iterable) -> object | None:
        """lub in the bounded-complete cpo L, the exact space; None when unbounded."""
        return self.exact.lub(ls)

    @abstractmethod
    def meet_U(self, u1, u2):
        """The meet of two AUBs in the complete lattice U: the AUB whose
        lower closure is the meet of theirs.  Every lower closure holds
        the least element, so the meet is never empty."""

    @abstractmethod
    def join_U(self, u1, u2):
        """The join of two AUBs in the complete lattice U: the AUB whose
        lower closure is the join of theirs."""

    def L_least(self):
        return self._bot

    def U_least(self):
        return self.least_aub_above(self._bot)

    def U_greatest(self):
        return self._top_aub

    @abstractmethod
    def aub_mask(self, u) -> int:
        """The mask of the exact elements that the AUB u bounds: its
        lower closure."""

    @abstractmethod
    def aub_of_mask(self, mask: int):
        """The least AUB whose lower closure holds the non-empty `mask`;
        the inverse of aub_mask on lower closures."""

    @abstractmethod
    def least_aub_above(self, l):
        """The glb of {u in U : l compatible with u}; exists by the
        interlattice glb property and starts the upper inductions."""

    @abstractmethod
    def enumerate_aubs(self) -> list | None:
        """All of U, or None when U is too large to materialise."""

    @abstractmethod
    def sample_aub(self, rng: random.Random): ...

    # -- approximants ------------------------------------------------------

    def recompose(self, l, u) -> Approximant:
        """Combine a compatible ALB/AUB pair into a canonical approximant,
        once per framework: frameworks are immutable, so every approximator
        on one shares the result.  Raises RecomposeUndefinedError, and
        stores nothing, when the pair is incompatible."""
        x = self._recomposed.get((l, u))
        if x is None:
            if not self.cross_leq(l, u):
                raise RecomposeUndefinedError(f"{l!r} is incompatible with the AUB {u!r}")
            x = self._recomposed[l, u] = self._recompose(l, u)
        return x

    @abstractmethod
    def _recompose(self, l, u) -> Approximant:
        """recompose's computation, asked once per compatible pair."""

    def members_mask(self, x: Approximant) -> int:
        """The mask of x's members, up(alb) & aub_mask(aub), computed once
        per approximant and framework in the same way as `recompose`."""
        mask = self._members.get(x)
        if mask is None:
            mask = self._members[x] = self.exact.up_mask(x.alb) & self.aub_mask(x.aub)
        return mask

    def exact_approximant(self, y: str) -> Approximant:
        self.exact.index(y)
        return Approximant(self, y, self.least_aub_above(y))

    @abstractmethod
    def format_approximant(self, x: Approximant) -> str: ...

    def closure(self, mask: int) -> Approximant:
        """The most precise approximant whose members include the
        non-empty `mask`: everything between its glb and its least AUB,
        which exist by bounded-completeness.  Computed once per mask."""
        x = self._closures.get(mask)
        if x is None:
            glb = self.exact.elements[self.exact._glb_mask(mask)]
            x = self._closures[mask] = Approximant(self, glb, self.aub_of_mask(mask))
        return x

    def ultimate_map(self, table: list[int]) -> Callable[[Approximant], Approximant]:
        """The most precise approximator of the exact map `table`, which
        sends element index i to element index table[i]: the closure of
        the image of an approximant's members, so no information beyond
        the image set is lost.

        An application spells the member mask as one 0/1 selector byte per
        index and gathers the members' images with `itertools.compress`,
        so no Python step runs per member and nothing is kept per table;
        it then ORs in 1 << j for each distinct image j."""
        members_mask, closure = self.members_mask, self.closure

        def apply(x: Approximant) -> Approximant:
            image = 0
            for j in set(itertools.compress(table, _selectors(members_mask(x)))):
                image |= 1 << j
            return closure(image)

        return apply

    # -- shared derived operations ----------------------------------------

    def leq_p(self, x: Approximant, y: Approximant) -> bool:
        """Precision order via nested bounds.

        For the concrete spaces in this library this coincides with
        containment of the approximated sets; the approximates-relation
        checker verifies the agreement.
        """
        return self.alb_leq(x.alb, y.alb) and self.aub_leq(y.aub, x.aub)

    def members(self, x: Approximant) -> frozenset[str]:
        return self.exact.set_of(self.members_mask(x))

    def least_approximant(self) -> Approximant:
        return self.recompose(self.L_least(), self.U_greatest())

    def lub_p(self, xs: Sequence[Approximant]) -> Approximant | None:
        """lub in the approximation space: the closure of the members
        the approximants share, which in both spaces is exactly that
        set; None when they share none."""
        if not xs:
            return self.least_approximant()
        mask = self.exact._full
        for x in xs:
            mask &= self.members_mask(x)
        return self.closure(mask) if mask else None

    def is_exact(self, x: Approximant) -> bool:
        """Maximal, or below exactly one maximal approximant.

        Every approximated element yields an exact approximant above x,
        so x is maximal exactly when it approximates a single element.
        x's own members are tried first, and the scan stops at the second
        exact approximant above x.
        """
        mask = self.members_mask(x)
        if mask.bit_count() == 1:
            return True
        above = 0
        for i in itertools.chain(_bits(mask), _bits(self.exact._full & ~mask)):
            if self.leq_p(x, self.exact_approximant(self.exact.elements[i])):
                above += 1
                if above == 2:
                    return False
        return above == 1

    def exact_value(self, x: Approximant) -> str | None:
        """The unique approximated element of an exact approximant."""
        mask = self.members_mask(x)
        if mask.bit_count() != 1:
            return None
        return self.exact.elements[mask.bit_length() - 1]

    def enumerate_approximants(self) -> tuple[Approximant, ...] | None:
        """All approximants, built once per framework and without
        recompose so that checks exercise recompose independently; None
        over MAX_APPROXIMANTS or when the space is too large to
        materialise."""
        if self._all_approximants is False:
            every = self._approximants()
            xs = None if every is None else tuple(itertools.islice(every, MAX_APPROXIMANTS + 1))
            self._all_approximants = xs if xs is not None and len(xs) <= MAX_APPROXIMANTS else None
        return self._all_approximants

    @abstractmethod
    def _approximants(self) -> Iterable[Approximant] | None:
        """Every approximant in a fixed order, or None when the space is
        too large to materialise."""

    def sample_approximant(self, rng: random.Random) -> Approximant:
        """A sampled AUB recomposed with a compatible ALB, drawn from the
        members of the AUB's recomposition with the least ALB."""
        bot = self.L_least()
        for _ in range(64):
            u = self.sample_aub(rng)
            if self.cross_leq(bot, u):
                # randrange(n) is the draw rng.choice makes from n members.
                below = self.members_mask(self.recompose(bot, u))
                picked = itertools.compress(self.exact.elements, _selectors(below))
                l = next(itertools.islice(picked, rng.randrange(below.bit_count()), None))
                if self.cross_leq(l, u):
                    return self.recompose(l, u)
        return self.least_approximant()

    def approximant_from_members(self, members: Iterable[str]) -> Approximant:
        """The approximant with exactly these members, when one exists."""
        mask = self.exact.mask_of(members)
        if not mask:
            raise PreconditionError(f"an approximant is non-empty; no {self.kind} has no members")
        x = self.closure(mask)
        if self.members_mask(x) != mask:
            raise PreconditionError(
                f"no {self.kind} has the members {_show(self.exact.set_of(mask))}: "
                f"the set is not convex or misses its closure's bounds"
            )
        return x

    def to_json(self, x: Approximant) -> dict:
        mask = self.members_mask(x)
        data: dict = {
            "alb": x.alb,
            "aub": list(x.aub) if isinstance(x.aub, tuple) else x.aub,
        }
        if mask.bit_count() <= MEMBERS_SHOWN:
            data["members"] = sorted(self.members(x))
        return data


# ---------------------------------------------------------------------------
# quantifier helpers


def _aub_pool(fw, caps: Caps, rng) -> tuple[list, bool]:
    """All of U and True, or `caps.samples` probes and False."""
    full = fw.enumerate_aubs()
    return _probe(full, len(full or ()), fw.sample_aub, caps, rng, complete=full is not None)


def _approximant_pool(fw, caps: Caps, rng) -> tuple[list, bool]:
    """All approximants and True, or `caps.samples` probes and False."""
    full = fw.enumerate_approximants()
    return _probe(full, len(full or ()), fw.sample_approximant, caps, rng,
                  complete=full is not None)


def _probe(every: Iterable, count: int, draw: Callable, caps: Caps, rng: random.Random, *,
           complete: bool = True, limit: int = MAX_PAIRS) -> tuple[Iterable, bool]:
    """The instances one quantifier examines, and whether they are all.

    `every` holds the quantifier's `count` instances in its own
    exhaustive order (an instance that scans the exact space counts once
    per element), `complete` says whether the pools it ranges over are
    complete, and `draw` makes one seeded probe.  The result is every
    instance when the pools are complete and `count` is at most `limit`;
    otherwise it is exactly `caps.samples` draws.

    Frameworks and approximants are immutable, so each framework query
    is a pure function of its arguments, and a checker may ask it once
    per argument within one check.  The instances are still examined in
    this order, so the first counterexample does not depend on it.
    """
    if complete and count <= limit:
        return every, True
    return [draw(rng) for _ in range(caps.samples)], False


def _draw(*pools: Sequence) -> Callable[[random.Random], tuple]:
    """A probe drawing one member of each pool."""
    return lambda rng: tuple(rng.choice(pool) for pool in pools)


def _subsets(pool: list, caps: Caps, rng) -> tuple[Iterable, bool]:
    """The non-empty subsets of a pool of at most MAX_SUBSET_POOL members, else probes."""

    def every():
        # Doubling lists the subsets in the order of their bitmasks over the pool.
        subsets = [()]
        for x in pool:
            subsets += [s + (x,) for s in subsets]
        yield from subsets[1:]

    def draw(rng):
        return tuple(rng.sample(pool, rng.randint(1, min(len(pool), 8))))

    return _probe(every(), 1 << len(pool), draw, caps, rng, limit=1 << MAX_SUBSET_POOL)


def _chains(fw, caps: Caps, rng) -> tuple[Iterable, bool]:
    """Chains of L, grown upward so each set appears once: all of them
    when L is within MAX_SUBSET_POOL and holds at most MAX_CHAINS
    non-empty chains, else probes.  L is the exact poset, so a probe
    climbs through up-sets."""
    pool, exact = list(fw.albs()), fw.exact
    chains: list[tuple] = [()]
    stack = [(x,) for x in pool] if len(pool) <= MAX_SUBSET_POOL else []
    while stack and len(chains) <= MAX_CHAINS + 1:
        chain = stack.pop()
        chains.append(chain)
        stack.extend(chain + (y,) for y in pool if y != chain[-1] and fw.alb_leq(chain[-1], y))

    def draw(rng):
        chain = [rng.choice(pool)]
        for _ in range(6):
            i = exact.index(chain[-1])
            ups = list(_bits(exact.up_mask(chain[-1]) & ~(1 << i)))
            if not ups:
                break
            chain.append(exact.elements[rng.choice(ups)])
        return tuple(chain)

    return _probe(chains, len(chains) - 1, draw, caps, rng,
                  complete=len(pool) <= MAX_SUBSET_POOL, limit=MAX_CHAINS)


def _bounds(fw, aubs: Iterable) -> list[tuple[str, object]]:
    """L's elements and then `aubs`, as (side, bound) pairs."""
    return [("L", l) for l in fw.albs()] + [("U", u) for u in aubs]


def _order_rows(fw) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The combined order on _bounds(fw, fw.enumerate_aubs()) as bitsets:
    bit j of rows[i], and bit i of cols[j], say bounds[i] <= bounds[j].
    Callers ask only when U is enumerated.

    The framework's bound_leq is called once per pair, on the first call
    per framework; the rows are kept on the framework and shared by the
    preamble and the composition checks, which is sound because
    frameworks are immutable, as for recompose and closure."""
    if fw._rows is None:
        bounds = _bounds(fw, fw.enumerate_aubs())
        rows, cols = [0] * len(bounds), [0] * len(bounds)
        for i, (s1, b1) in enumerate(bounds):
            for j, (s2, b2) in enumerate(bounds):
                if fw.bound_leq(s1, b1, s2, b2):
                    rows[i] |= 1 << j
                    cols[j] |= 1 << i
        fw._rows = tuple(rows), tuple(cols)
    return fw._rows


def _undefined(l, u) -> dict:
    """The counterexample entry naming a pair recompose rejects."""
    return {"undefined": f"({_show(l)}, {_show(u)})"}


def _result(axiom: str, exhaustive: bool, counterexample: dict | None, note: str = "") -> CheckResult:
    if counterexample is not None:
        return CheckResult(axiom, "fail", counterexample, note)
    return CheckResult(axiom, "pass" if exhaustive else "sampled", None, note)


def _show(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, Approximant):
        return str(value)
    if isinstance(value, (tuple, frozenset)):
        return "{" + ",".join(sorted(map(str, value))) + "}"
    return str(value)


# ---------------------------------------------------------------------------
# the checkers


def check_composition_poset(fw: ApproximationFramework, caps: Caps,
                            rng: random.Random) -> list[CheckResult]:
    """The five composition-poset requirements, one result per bullet.

    When bullet 3 or 4 is exhaustive, the exhaustive bullets read the
    combined order from bitset rows; otherwise each instance or probe
    asks the framework.  Either way a failure reports the first
    violation in the bullet's own order, and an undefined recomposition
    is reported, never raised.
    """
    albs = list(fw.albs())
    aubs, u_complete = _aub_pool(fw, caps, rng)
    results = []

    def w(**kw):
        return {k: _show(v) for k, v in kw.items()}

    # Every probe is drawn before any bullet is checked; the checks draw nothing.
    lu_pairs, pairs_exhaustive = _probe(itertools.product(albs, aubs), len(albs) * len(aubs),
                                        _draw(albs, aubs), caps, rng, complete=u_complete)
    alb_triples, alb_exhaustive = _probe(itertools.product(albs, albs, aubs),
                                         len(albs) ** 2 * len(aubs), _draw(albs, albs, aubs),
                                         caps, rng, complete=u_complete)
    aub_triples, aub_exhaustive = _probe(
        ((l, u1, u2) for u1, u2, l in itertools.product(aubs, aubs, albs)),
        len(aubs) ** 2 * len(albs), _draw(albs, aubs, aubs), caps, rng, complete=u_complete)
    # Unless the preamble built them, the rows cost one comparison per pair
    # of bounds, as much as a quadratic bullet: they pay off only for the
    # cubic ones.
    rowed = alb_exhaustive or aub_exhaustive
    if rowed:
        rows, cols = _order_rows(fw)
        nl, lows = len(albs), (1 << len(albs)) - 1  # U bounds follow the nl L bounds

    def attempt(l, u):
        """fw.recompose(l, u), or None where it is undefined.  An undefined
        recomposition is the counterexample of the bullet that reaches it,
        except in bullet 2: bullet 1 ranges over the same pairs."""
        try:
            return fw.recompose(l, u)
        except RecomposeUndefinedError:
            return None

    # Bullets 1 and 2 range over the compatible pairs.
    if pairs_exhaustive and rowed:
        compatible = [(l, aubs[k]) for i, l in enumerate(albs) for k in _bits(rows[i] >> nl)]
    else:
        compatible = [(l, u) for l, u in lu_pairs if fw.cross_leq(l, u)]
    cx1 = cx2 = None
    for l, u in compatible:
        x = attempt(l, u)
        if x is None:
            cx1 = cx1 or w(alb=l, aub=u)
        elif cx2 is None and not (fw.alb_leq(l, x.alb) and fw.aub_leq(x.aub, u)):
            cx2 = w(alb=l, aub=u, got_alb=x.alb, got_aub=x.aub)
        if cx1 and cx2:
            break
    results.append(_result("composition.1_defined_when_compatible", pairs_exhaustive, cx1))
    results.append(_result("composition.2_recompose_tightens_bounds", pairs_exhaustive, cx2))

    # Bullet 3: l1 <= l2, both compatible with u.
    if alb_exhaustive:
        triples = ((albs[i], albs[j], aubs[k]) for i in range(nl) for j in _bits(rows[i] & lows)
                   for k in _bits((rows[i] & rows[j]) >> nl))
    else:
        triples = ((l1, l2, u) for l1, l2, u in alb_triples
                   if fw.alb_leq(l1, l2) and fw.cross_leq(l1, u) and fw.cross_leq(l2, u))
    cx = None
    for l1, l2, u in triples:
        x1, x2 = attempt(l1, u), attempt(l2, u)
        if x1 is None or x2 is None or not fw.leq_p(x1, x2):
            cx = w(alb1=l1, alb2=l2, aub=u)
            if x1 is None or x2 is None:
                cx |= _undefined(l1 if x1 is None else l2, u)
            break
    results.append(_result("composition.3_monotone_in_alb", alb_exhaustive, cx))

    # Bullet 4: u1 <= u2 and l compatible with u1.
    if aub_exhaustive:
        triples = ((albs[i], aubs[p], aubs[q]) for p in range(len(aubs))
                   for q in _bits(rows[nl + p] >> nl) for i in _bits(cols[nl + p] & lows))
    else:
        triples = ((l, u1, u2) for l, u1, u2 in aub_triples
                   if fw.aub_leq(u1, u2) and fw.cross_leq(l, u1))
    cx = None
    for l, u1, u2 in triples:
        x1, x2 = attempt(l, u1), attempt(l, u2)
        if x1 is None or x2 is None or not fw.leq_p(x2, x1):
            cx = w(alb=l, aub1=u1, aub2=u2)
            if x1 is None or x2 is None:
                cx |= _undefined(l, u1 if x1 is None else u2)
            break
    results.append(_result("composition.4_antitone_in_aub", aub_exhaustive, cx))

    xs, x_exhaustive = _approximant_pool(fw, caps, rng)
    cx = None
    for x in xs:
        again = attempt(x.alb, x.aub)
        if again != x:
            cx = w(approximant=x) | (_undefined(x.alb, x.aub) if again is None else {})
            break
    results.append(_result("composition.5_decompose_recompose_identity", x_exhaustive, cx))
    return results


def check_chain_ilp(fw: ApproximationFramework, caps: Caps, rng: random.Random) -> CheckResult:
    """Chains of L bounded by some u have their lub below that u."""
    aubs, u_complete = _aub_pool(fw, caps, rng)
    chains, c_complete = _chains(fw, caps, rng)
    instances, exhaustive = _probe(itertools.product(chains, aubs), len(chains) * len(aubs),
                                   _draw(chains, aubs), caps, rng,
                                   complete=u_complete and c_complete)
    cross_leq, lub_L = functools.cache(fw.cross_leq), functools.cache(fw.lub_L)
    for chain, u in instances:
        if not all(cross_leq(l, u) for l in chain):
            continue
        lub = lub_L(chain) if chain else fw.L_least()
        if lub is None or not cross_leq(lub, u):
            return CheckResult(
                "chain_interlattice_lub",
                "fail",
                {"chain": [_show(c) for c in chain], "aub": _show(u), "lub": _show(lub)},
            )
    return _result("chain_interlattice_lub", exhaustive, None)


def check_weak_ilp(fw: ApproximationFramework, caps: Caps, rng: random.Random) -> CheckResult:
    """New ALB knowledge compatible with the AUB joins with the old ALB."""
    xs, x_complete = _approximant_pool(fw, caps, rng)
    albs = list(fw.albs())
    instances, exhaustive = _probe(itertools.product(xs, albs), len(xs) * len(albs),
                                   _draw(xs, albs), caps, rng, complete=x_complete)
    for x, l in instances:
        if not fw.cross_leq(l, x.aub):
            continue
        lub = fw.lub_L([x.alb, l])
        if lub is None or not fw.cross_leq(lub, x.aub):
            return CheckResult(
                "weak_interlattice_lub",
                "fail",
                {"approximant": _show(x), "alb": _show(l), "lub": _show(lub)},
            )
    return _result("weak_interlattice_lub", exhaustive, None)


def check_abstract_ilp(fw: ApproximationFramework, caps: Caps, rng: random.Random) -> CheckResult:
    """Approximants sharing an AUB have lubs that keep that AUB.

    Quantified over non-empty sets: the literal empty case degenerates
    to the least approximant and carries no content.  Each shared-AUB
    group is recovered from L alone, since an approximant is its ALB
    once the AUB is fixed.  A probe draws an AUB and a few ALBs besides
    the least one, which recomposes with every AUB.
    """
    albs = list(fw.albs())
    aubs, u_complete = _aub_pool(fw, caps, rng)

    def group(u, ls):
        xs = []
        for l in ls:
            if fw.cross_leq(l, u):
                try:
                    x = fw.recompose(l, u)
                except RecomposeUndefinedError:
                    continue  # composition.1 reports the pair
                if x.aub == u:
                    xs.append(x)
        return xs

    def every():
        for u in aubs:
            subsets, sub_exhaustive = _subsets(group(u, albs), caps, rng)
            for subset in subsets:
                yield u, subset, sub_exhaustive

    def draw(rng):
        u = rng.choice(aubs)
        ls = rng.sample(albs, rng.randint(1, min(len(albs), 7)))
        return u, group(u, [fw.L_least(), *ls]), False

    instances, exhaustive = _probe(every(), len(aubs) * len(albs), draw, caps, rng,
                                   complete=u_complete)
    for u, subset, sub_exhaustive in instances:
        if not subset:
            continue
        exhaustive = exhaustive and sub_exhaustive
        lub = fw.lub_p(subset)
        expected_alb = fw.lub_L([x.alb for x in subset])
        if (
            lub is None
            or lub.aub != u
            or expected_alb is None
            or lub.alb != expected_alb
        ):
            return CheckResult(
                "abstract_interlattice_lub",
                "fail",
                {
                    "aub": _show(u),
                    "albs": [_show(x.alb) for x in subset],
                    "lub": _show(lub),
                },
            )
    return _result("abstract_interlattice_lub", exhaustive, None)


def check_glb_property(fw: ApproximationFramework, caps: Caps, rng: random.Random) -> CheckResult:
    """An ALB below every member of an AUB set is below the set's glb.

    For each ALB the compatible AUBs of the pool form one set; every
    qualifying set is a subset of it.  A subset's glb is the left fold of
    meet_U over its members in pool order, U's greatest for none.  A set
    of at most MAX_SUBSET_POOL members is covered by its meet-closure:
    at most |set|·|closure| meets, and compatibility once per glb, tested
    in the order of the least subset bitmask that reaches each.  A larger
    set is checked alone: it dominates each of its subsets, because glbs
    in the verified complete lattice U are antitone in the set.  Its glb
    is the AUB whose lower closure is the meet of the members' closures,
    so no intermediate glb (on flowers, an antichain) is computed.
    """
    albs = list(fw.albs())
    aubs, u_complete = _aub_pool(fw, caps, rng)

    def compatible(l):
        return l, [u for u in aubs if fw.cross_leq(l, u)]

    instances, exhaustive = _probe(map(compatible, albs), len(albs) * len(aubs),
                                   lambda rng: compatible(rng.choice(albs)), caps, rng,
                                   complete=u_complete)
    note = ""
    for l, pool in instances:
        if len(pool) > MAX_SUBSET_POOL:
            note = "large pools covered by the dominating full set"
            closure = functools.reduce(operator.and_, map(fw.aub_mask, pool))
            glbs = {fw.aub_of_mask(closure): (1 << len(pool)) - 1}
        else:
            # A subset whose last member is u = pool[k] is u alone, the entry
            # (u, 0), or an earlier subset, whose glb then meets u.  Its mask
            # exceeds every earlier one, so each glb keeps its least mask.
            folds: dict = {}  # the glb of a non-empty subset -> its least mask
            for k, u in enumerate(pool):
                for glb, mask in [(u, 0), *folds.items()]:
                    folds.setdefault(fw.meet_U(glb, u) if mask else u, mask | 1 << k)
            top = fw.U_greatest()
            glbs = {top: 0} | {glb: mask for glb, mask in folds.items() if glb != top}
        for glb, mask in glbs.items():
            if not fw.cross_leq(l, glb):
                return CheckResult("interlattice_glb", "fail", {
                    "alb": _show(l), "aubs": [_show(pool[k]) for k in _bits(mask)], "glb": _show(glb)})
    return _result("interlattice_glb", exhaustive, None, note)


def check_preamble(fw: ApproximationFramework, caps: Caps, rng: random.Random) -> list[CheckResult]:
    """Well-formedness of the combined order and the two spaces.

    When transitivity or the U-lattice check is exhaustive, the
    exhaustive quantifiers read the order from bitset rows, so each pair
    of bounds is compared once; otherwise each instance or probe asks the
    framework.  Either way a failure reports the first violation in the
    quantifier's own order.
    """
    results = []
    albs = list(fw.albs())
    aubs, u_complete = _aub_pool(fw, caps, rng)
    bounds = _bounds(fw, aubs)
    n = len(bounds)

    # Every probe is drawn before any axiom is checked; the checks draw nothing.
    pairs, anti_exhaustive = _probe(itertools.combinations(bounds, 2), math.comb(n, 2),
                                    _draw(bounds, bounds), caps, rng, complete=u_complete)
    triples, trans_exhaustive = _probe(itertools.product(bounds, repeat=3), n ** 3,
                                       _draw(bounds, bounds, bounds), caps, rng,
                                       complete=u_complete)
    # U must be a complete lattice: in the finite case its bottom, top and
    # binary meet_U/join_U suffice, as every glb and lub is their fold.
    # An instance is a pair of AUBs with one witness v that must see the
    # pair's meet and join as its greatest lower and least upper bound.
    lattice_triples, lattice_exhaustive = _probe(
        ((u1, u2, v) for u1, u2 in itertools.combinations_with_replacement(aubs, 2) for v in aubs),
        math.comb(len(aubs) + 1, 2) * len(aubs), _draw(aubs, aubs, aubs), caps, rng,
        complete=u_complete)
    # The rows cost one comparison per pair of bounds, as much as
    # antisymmetry itself: they pay off only for the cubic quantifiers.
    # They are built once per framework, so composition reuses them.
    rowed = trans_exhaustive or lattice_exhaustive
    if rowed:
        rows, cols = _order_rows(fw)

    def leq(a, b):
        return fw.bound_leq(*a, *b)

    def show(bound):
        return f"{bound[0]}:{_show(bound[1])}"

    cx = None
    for s, b in bounds:
        if not fw.bound_leq(s, b, s, b):
            cx = {"bound": f"{s}:{_show(b)}"}
            break
    results.append(_result("preamble.order_reflexive", u_complete, cx))

    # Equal values are one bound: interval L and U share the exact carrier,
    # and a flower ALB (an identifier) never equals an AUB (a tuple).
    if anti_exhaustive and rowed:
        # -(2 << i) keeps the bits above i.
        pairs = ((bounds[i], bounds[j]) for i in range(n)
                 for j in _bits(rows[i] & cols[i] & -(2 << i)))
        twins = (p for p in pairs if p[0][1] != p[1][1])
    else:
        twins = (p for p in pairs if p[0][1] != p[1][1] and leq(*p) and leq(p[1], p[0]))
    cx = next(({"bound1": show(a), "bound2": show(b)} for a, b in twins), None)
    results.append(_result("preamble.order_antisymmetric", anti_exhaustive, cx))

    if trans_exhaustive:
        gaps = ((bounds[i], bounds[j], bounds[_low(rows[j] & ~rows[i])])
                for i in range(n) for j in _bits(rows[i]) if rows[j] & ~rows[i])
    else:
        gaps = (t for t in triples if leq(t[0], t[1]) and leq(t[1], t[2]) and not leq(t[0], t[2]))
    cx = next(({"bound1": show(a), "bound2": show(b), "bound3": show(c)} for a, b, c in gaps), None)
    results.append(_result("preamble.order_transitive", trans_exhaustive, cx))

    bot = fw.L_least()
    cx = None
    for s, b in bounds:
        if not fw.bound_leq("L", bot, s, b):
            cx = {"bound": f"{s}:{_show(b)}"}
            break
    results.append(_result("preamble.least_in_L", u_complete, cx))

    top = fw.U_greatest()
    cx = None
    for s, b in bounds:
        if not fw.bound_leq(s, b, "U", top):
            cx = {"bound": f"{s}:{_show(b)}"}
            break
    results.append(_result("preamble.greatest_in_U", u_complete, cx))

    cls = fw.exact.classify()
    cx = None if cls.is_bounded_complete else {"exact_space": "not bounded-complete"}
    results.append(_result("preamble.L_bounded_complete_cpo", True, cx))

    if lattice_exhaustive:
        nl = len(albs)
        violations = _lattice_violations(fw, aubs, [r >> nl for r in rows[nl:]],
                                         [c >> nl for c in cols[nl:]])
    else:
        violations = _sampled_lattice_violations(fw, lattice_triples)
    cx = next(violations, None)
    if cx is None:
        bot_u, top_u = fw.U_least(), fw.U_greatest()
        for u in aubs:
            if not (fw.aub_leq(bot_u, u) and fw.aub_leq(u, top_u)):
                cx = {"aub": _show(u)}
                break
    results.append(_result("preamble.U_complete_lattice", lattice_exhaustive, cx))
    return results


def _lattice_violations(fw, aubs: list, ups: list[int], downs: list[int]) -> Iterator[dict]:
    """The U-lattice violations over every pair of AUBs and every witness,
    in that order.  ups[k] and downs[k] are the AUBs above and below
    aubs[k].  The pair's meet and join are found in the pool by value;
    a value outside it is compared with direct aub_leq calls."""
    where = {u: k for k, u in enumerate(aubs)}

    def above(x) -> int:
        k = where.get(x)
        return ups[k] if k is not None else sum(1 << j for j, v in enumerate(aubs) if fw.aub_leq(x, v))

    def below(x) -> int:
        k = where.get(x)
        return downs[k] if k is not None else sum(1 << j for j, v in enumerate(aubs) if fw.aub_leq(v, x))

    for p, q in itertools.combinations_with_replacement(range(len(aubs)), 2):
        u1, u2 = aubs[p], aubs[q]
        meet, join = fw.meet_U(u1, u2), fw.join_U(u1, u2)
        up_meet, down_join = above(meet), below(join)
        if not (up_meet >> p & up_meet >> q & down_join >> p & down_join >> q & 1):
            yield {"aub1": _show(u1), "aub2": _show(u2)}
        low = downs[p] & downs[q] & ~below(meet)
        high = ups[p] & ups[q] & ~above(join)
        if low | high:
            v = _low(low | high)
            side = "below_both" if low >> v & 1 else "above_both"
            yield {"aub1": _show(u1), "aub2": _show(u2), side: _show(aubs[v])}


def _sampled_lattice_violations(fw, triples: Iterable) -> Iterator[dict]:
    """The U-lattice violations among probed (u1, u2, witness) triples."""
    for u1, u2, v in triples:
        meet, join = fw.meet_U(u1, u2), fw.join_U(u1, u2)
        if not (
            fw.aub_leq(meet, u1)
            and fw.aub_leq(meet, u2)
            and fw.aub_leq(u1, join)
            and fw.aub_leq(u2, join)
        ):
            yield {"aub1": _show(u1), "aub2": _show(u2)}
        if fw.aub_leq(v, u1) and fw.aub_leq(v, u2) and not fw.aub_leq(v, meet):
            yield {"aub1": _show(u1), "aub2": _show(u2), "below_both": _show(v)}
        if fw.aub_leq(u1, v) and fw.aub_leq(u2, v) and not fw.aub_leq(join, v):
            yield {"aub1": _show(u1), "aub2": _show(u2), "above_both": _show(v)}


def check_approximates_relation(fw: ApproximationFramework, caps: Caps,
                                rng: random.Random) -> list[CheckResult]:
    """The four compatibility requirements on the approximates-relation."""
    results = []
    xs, x_complete = _approximant_pool(fw, caps, rng)
    pairs, exhaustive = _probe(itertools.permutations(xs, 2), len(xs) * (len(xs) - 1),
                               _draw(xs, xs), caps, rng, complete=x_complete)
    members_mask, cx = fw.members_mask, None
    for x, y in pairs:
        if fw.leq_p(x, y) and members_mask(y) & ~members_mask(x):
            cx = {"less_precise": _show(x), "more_precise": _show(y)}
            break
    results.append(_result("approximates.1_antitone_in_precision", exhaustive, cx))

    albs = list(fw.albs())
    ls, exhaustive = _probe(albs, len(albs) * len(fw.exact), lambda rng: rng.choice(albs),
                            caps, rng)
    top = fw.U_greatest()
    cx = None
    for l in ls:
        try:
            mask = fw.members_mask(fw.recompose(l, top))
        except RecomposeUndefinedError:
            cx = {"alb": _show(l)} | _undefined(l, top)
            break
        if fw.exact._up_closure(mask) != mask:
            cx = {"alb": _show(l)}
            break
    results.append(_result("approximates.2_full_aub_upclosed", exhaustive, cx))

    bot = fw.L_least()
    aubs, u_complete = _aub_pool(fw, caps, rng)
    us, exhaustive = _probe(aubs, len(aubs) * len(fw.exact), lambda rng: rng.choice(aubs),
                            caps, rng, complete=u_complete)
    cx = None
    for u in us:
        if not fw.cross_leq(bot, u):
            continue
        try:
            mask = fw.members_mask(fw.recompose(bot, u))
        except RecomposeUndefinedError:
            cx = {"aub": _show(u)} | _undefined(bot, u)
            break
        if fw.exact._down_closure(mask) != mask:
            cx = {"aub": _show(u)}
            break
    results.append(_result("approximates.3_least_alb_downclosed", exhaustive, cx))

    xs, exhaustive = _probe(xs, len(xs) * len(fw.exact), lambda rng: rng.choice(xs),
                            caps, rng, complete=x_complete)
    cx = None
    for x in xs:
        if fw.is_exact(x) != (fw.members_mask(x).bit_count() == 1):
            cx = {"approximant": _show(x)}
            break
    results.append(_result("approximates.4_exact_iff_unique", exhaustive, cx))
    return results


def check_framework(
    fw: ApproximationFramework,
    caps: Caps = DEFAULT_CAPS,
    rng: random.Random | None = None,
) -> list[CheckResult]:
    """Every framework axiom in one report."""
    rng = rng or random.Random(0)
    results = []
    results.extend(check_preamble(fw, caps, rng))
    results.extend(check_composition_poset(fw, caps, rng))
    results.append(check_chain_ilp(fw, caps, rng))
    results.append(check_weak_ilp(fw, caps, rng))
    results.append(check_abstract_ilp(fw, caps, rng))
    results.append(check_glb_property(fw, caps, rng))
    results.extend(check_approximates_relation(fw, caps, rng))
    return results

"""The flower approximation framework over a bounded-complete cpo.

A flower is a non-empty convex subset containing its own greatest lower
bound: a union of intervals sharing one foot.  Flowers decompose into
an ALB (the glb) and an AUB that is an antichain of maximal elements,
which is what lets them keep several incomparable upper bounds where an
interval would have to blur them into one.

The lower decomposition space is the exact poset itself; the upper one
is the set of non-empty antichains, ordered by inclusion of their lower
closures, with a side condition forbidding antichains below single
elements.  Antichains are kept as identifier-sorted tuples so equality
and printing are canonical.  The upper space is in bijection with the
non-empty down-closed subsets (an antichain is the max-set of its lower
closure), which realises its complete-lattice structure through plain
set algebra on bitmasks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .errors import PreconditionError, RecomposeUndefinedError
from .framework import (
    DEFAULT_CAPS, MAX_APPROXIMANTS, Approximant, ApproximationFramework, Caps, CheckResult,
)
from . import framework as _fx
from .posets import FinitePoset, set_id

FLOWER_ENUMERATION_LIMIT = 12


@dataclass(frozen=True)
class Flower:
    """A validated flower given by its member set."""

    poset: FinitePoset = field(repr=False)
    members: frozenset[str]

    def __post_init__(self):
        if not self.members:
            raise PreconditionError("a flower is non-empty")
        g = self.poset.glb(self.members)
        if g is None or g not in self.members:
            raise PreconditionError(
                f"{sorted(self.members)} does not contain its greatest lower bound"
            )
        if not self.poset.is_convex(self.members):
            raise PreconditionError(f"{sorted(self.members)} is not convex")

    @property
    def alb(self) -> str:
        return self.poset.glb(self.members)

    @property
    def aub(self) -> tuple[str, ...]:
        return tuple(sorted(self.poset.max_set(self.members)))

    def __str__(self) -> str:
        return "⟨" + str(self.alb) + " | {" + ",".join(self.aub) + "}⟩"


def flower_closure(exact: FinitePoset, s: Iterable[str]) -> Flower:
    """The least flower containing `s`.

    Existence relies on bounded-completeness: the members are everything
    between glb(s) and some maximal element of s.
    """
    ms = list(s)
    if not ms:
        raise PreconditionError("flower closure of the empty set")
    g = exact.glb(ms)
    if g is None:
        raise PreconditionError(f"{sorted(ms)} has no greatest lower bound")
    mask = 0
    for m in exact.max_set(ms):
        mask |= exact.down_mask(m)
    mask &= exact.up_mask(g)
    return Flower(exact, exact.set_of(mask))


class FlowerFramework(ApproximationFramework):
    kind = "flower"

    def __init__(self, exact: FinitePoset, *, enumerable: bool):
        super().__init__(exact)
        self._enumerable = enumerable
        # The two halves of the antichain <-> down-set bijection, filled on
        # demand: an antichain's lower closure, and a mask's maximal elements.
        self._down_cache: dict[tuple[str, ...], int] = {}
        self._antichains: dict[int, tuple[str, ...]] = {}
        self._top_aub = self.aub_of_mask(exact._full)
        self._all_approximants: list[Approximant] | None = None
        self._all_aubs: list[tuple[str, ...]] | None = None

    # -- antichain plumbing -------------------------------------------------

    def aub_mask(self, u: tuple[str, ...]) -> int:
        """Lower closure of the antichain, as a bitmask."""
        cached = self._down_cache.get(u)
        if cached is None:
            cached = 0
            for m in u:
                cached |= self.exact.down_mask(m)
            self._down_cache[u] = cached
        return cached

    def aub_of_mask(self, mask: int) -> tuple[str, ...]:
        """The antichain of the maximal elements of `mask`, computed once
        per mask.  A new antichain is also filed under its lower closure,
        which `aub_mask` records, so each down-set meets its antichain once."""
        u = self._antichains.get(mask)
        if u is None:
            u = tuple(sorted(self.exact.set_of(self.exact._max_mask(mask))))
            self._antichains[mask] = u
            self._antichains.setdefault(self.aub_mask(u), u)
        return u

    # -- combined order -----------------------------------------------------

    def bound_leq(self, side1, b1, side2, b2) -> bool:
        if side1 == "L":
            if side2 == "L":
                return self.exact.leq(b1, b2)
            return bool(self.aub_mask(b2) >> self.exact.index(b1) & 1)
        if side2 == "U":
            return self.aub_mask(b1) & ~self.aub_mask(b2) == 0
        return False  # an AUB is never below an ALB: the side condition

    def same_bound(self, side1, b1, side2, b2) -> bool:
        return side1 == side2 and b1 == b2

    def lub_L(self, ls) -> str | None:
        return self.exact.lub(ls)

    def glb_U(self, us) -> tuple[str, ...]:
        mask = self.exact._full
        for u in us:
            mask &= self.aub_mask(u)
        if mask == 0:
            return self.aub_of_mask(self.exact._full)  # glb of nothing: the top
        return self.aub_of_mask(mask)

    def lub_U(self, us) -> tuple[str, ...]:
        mask = 0
        for u in us:
            mask |= self.aub_mask(u)
        if mask == 0:
            return self.U_least()
        return self.aub_of_mask(mask)

    def U_least(self) -> tuple[str, ...]:
        return (self._bot,)

    def U_greatest(self) -> tuple[str, ...]:
        return self._top_aub

    def least_aub_above(self, l) -> tuple[str, ...]:
        # The least down-set containing the principal one below l.
        return (l,)

    def enumerate_aubs(self) -> list[tuple[str, ...]] | None:
        if not self._enumerable:
            return None
        if self._all_aubs is None:
            n = len(self.exact)
            out = []
            for bits in range(1, 1 << n):
                subset = self.exact.set_of(bits)
                if self.exact.is_antichain(subset):
                    out.append(tuple(sorted(subset)))
            self._all_aubs = out
        return list(self._all_aubs)

    def sample_aub(self, rng: random.Random) -> tuple[str, ...]:
        k = rng.randint(1, max(1, len(self.exact) // 2))
        picked = rng.sample(self.exact.elements, min(k, len(self.exact)))
        return tuple(sorted(self.exact.max_set(picked)))

    # -- approximants ---------------------------------------------------------

    def recompose(self, l, u) -> Approximant:
        u = tuple(u)
        if not self.cross_leq(l, u):
            raise RecomposeUndefinedError(f"{l!r} is incompatible with the AUB {u!r}")
        mask = self.exact.up_mask(l) & self.aub_mask(u)
        # The glb of the recomposition is l itself; only the AUB may shrink.
        return Approximant(self, l, self.aub_of_mask(mask))

    def members_mask(self, x: Approximant) -> int:
        return self.exact.up_mask(x.alb) & self.aub_mask(x.aub)

    def exact_approximant(self, y: str) -> Approximant:
        self.exact.index(y)
        return Approximant(self, y, (y,))

    def lub_p(self, xs: Sequence[Approximant]) -> Approximant | None:
        if not xs:
            return self.least_approximant()
        mask = self.exact._full
        for x in xs:
            mask &= self.members_mask(x)
        if mask == 0:
            return None
        return self._from_mask(mask)

    def _from_mask(self, mask: int) -> Approximant:
        mins = self.exact._min_mask(mask)
        alb = self.exact.elements[mins.bit_length() - 1]
        return Approximant(self, alb, self.aub_of_mask(mask))

    def approximant_from_members(self, members: Iterable[str]) -> Approximant:
        f = Flower(self.exact, frozenset(members))
        return Approximant(self, f.alb, f.aub)

    def enumerate_approximants(self) -> list[Approximant] | None:
        """All flowers, found by subset filtering rather than through
        recompose so that checks exercise recompose independently."""
        if not self._enumerable:
            return None
        if self._all_approximants is None:
            self._all_approximants = [
                Approximant(self, f.alb, f.aub) for f in enumerate_flowers(self.exact)
            ]
        if len(self._all_approximants) > MAX_APPROXIMANTS:
            return None
        return list(self._all_approximants)

    def format_approximant(self, x: Approximant) -> str:
        return "⟨" + str(x.alb) + " | {" + ",".join(x.aub) + "}⟩"

    def ultimate_map(self, table: list[int]) -> Callable[[Approximant], Approximant]:
        """Most precise approximator: the flower closure of the image.

        The closure is the precision-greatest flower approximating every
        image point, so no information beyond the image set is lost.
        """
        image_mask, exact = self._image_masks(table), self.exact

        def apply(x: Approximant) -> Approximant:
            image = image_mask(x)
            glb = exact.elements[exact._glb_mask(image)]
            return Approximant(self, glb, self.aub_of_mask(image))

        return apply


def build_flower_framework(exact: FinitePoset) -> FlowerFramework:
    """Flowers over `exact`; requires a bounded-complete cpo.

    The antichain space is materialised for exhaustive checks only for
    posets of at most FLOWER_ENUMERATION_LIMIT elements; larger spaces
    operate purely on (ALB, AUB) pairs.
    """
    cls = exact.classify()
    if not cls.is_bounded_complete:
        subset = exact.pair_without_glb() if cls.has_least else exact.elements
        raise PreconditionError(
            f"flower framework needs a bounded-complete cpo; "
            f"the subset {set_id(subset)} has no greatest lower bound"
        )
    return FlowerFramework(exact, enumerable=len(exact) <= FLOWER_ENUMERATION_LIMIT)


def enumerate_flowers(exact: FinitePoset) -> list[Flower]:
    """All flowers, by filtering subsets; meant for small posets."""
    if len(exact) > 16:
        raise PreconditionError("flower enumeration is limited to 16 elements")
    out = []
    for bits in range(1, 1 << len(exact)):
        members = exact.set_of(bits)
        g = exact.glb(members)
        if g is None or g not in members:
            continue
        if exact.is_convex(members):
            out.append(Flower(exact, members))
    return out


def composition_leq(fw: FlowerFramework, b1, b2) -> bool:
    """The flower composition order on mixed bounds.

    Strings are ALBs, iterables of strings are AUB antichains; the side
    condition rejects comparisons from an antichain down to an element.
    """
    side1, v1 = _as_bound(b1)
    side2, v2 = _as_bound(b2)
    return fw.bound_leq(side1, v1, side2, v2)


def _as_bound(b):
    if isinstance(b, str):
        return "L", b
    return "U", tuple(sorted(b))


def verify_flower_propositions(
    exact: FinitePoset,
    caps: Caps = DEFAULT_CAPS,
    rng: random.Random | None = None,
) -> list[CheckResult]:
    """The four structural properties of the flower decomposition spaces.

    These are the flower instances of the chain/weak/abstract interlattice
    lub properties and of the interlattice glb property; counterexamples
    are reported, nothing raises.
    """
    rng = rng or random.Random(0)
    fw = build_flower_framework(exact)
    return [
        _fx.check_chain_ilp(fw, caps, rng),
        _fx.check_weak_ilp(fw, caps, rng),
        _fx.check_abstract_ilp(fw, caps, rng),
        _fx.check_glb_property(fw, caps, rng),
    ]

"""Approximators and their fixpoint semantics.

Given a (typically non-monotone) exact operator and an approximation
framework, this module derives the ultimate approximator, runs stable
revision, and computes the four semantics: the Kripke-Kleene fixpoint
(least fixpoint of the approximator), the well-founded fixpoint (least
fixpoint of stable revision), and the supported and stable fixpoints
(exact elements fixed by the approximator / by stable revision).  Each
semantics starts from the one below it in precision: WF iterates from
KK, and the stable candidates are the supported members of WF.

Stable revision pairs two inner inductions.  The lower one runs in L
from the bottom, over bounds compatible with the input's AUB.  The
upper one runs in U, starting from the least AUB compatible with the
input's ALB: the framework's interlattice glb property guarantees that
this least compatible AUB exists, and starting any higher would skip
information while starting at the bottom of U would not even recompose.

Every induction is guarded: a non-increasing step or an incompatible
recomposition raises instead of silently looping, which is how a
non-monotone "approximator" or a non-reliable input announces itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import Callable, Iterable

from .errors import (
    InputError,
    InvalidRefinementError,
    MonotonicityError,
    PreconditionError,
    ReliabilityError,
)
from .fixpoints import MonotoneOperator, lfp
from .framework import Approximant, ApproximationFramework, Caps, _approximant_pool
from .posets import FinitePoset, _bits


@dataclass
class ExactOperator:
    """A total map on the exact poset, as an index table; no monotonicity
    assumed.

    `table[i]` is the index of the image of `domain.elements[i]`; no
    identifier is read or written here.
    """

    domain: FinitePoset
    table: list[int]

    def __post_init__(self):
        # Three C-level passes, not a Python test per entry; a bool counts as an int.
        n, table = len(self.domain), self.table
        if (len(table) != n or not all(map(isinstance, table, repeat(int)))
                or table and (min(table) < 0 or max(table) >= n)):
            raise InputError(f"an operator on {n} elements needs a table of {n} indices below {n}")


@dataclass
class Approximator:
    """A precision-monotone self-map on approximants that approximates
    the exact operator `exact`.

    Precondition: `mapping` approximates `exact`, i.e. the image under
    `exact` of every member of an approximant is a member of the
    approximant's image (`approximation_violation(a, a.exact)` checks
    it).  Supported
    fixpoints are read off `exact`'s fixed points on that premise.
    Applications are memoised; frameworks and approximants are immutable
    so the cache is sound.
    """

    space: ApproximationFramework
    mapping: Callable[[Approximant], Approximant]
    exact: ExactOperator
    name: str = "approximator"
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        _table_on(self.space, self.exact)

    def apply(self, x: Approximant) -> Approximant:
        hit = self._cache.get(x)
        if hit is None:
            hit = self.mapping(x)
            self._cache[x] = hit
        return hit


def _table_on(fw: ApproximationFramework, op: ExactOperator) -> list[int]:
    """`op`'s table, once `fw.exact` has the same elements in its order."""
    if fw.exact.elements != op.domain.elements:
        raise PreconditionError("framework and operator live on different exact spaces")
    return op.table


def ultimate_approximator(fw: ApproximationFramework, op: ExactOperator) -> Approximator:
    """The most precise approximator of `op` on `fw`."""
    return Approximator(fw, fw.ultimate_map(op.table), op, name=f"ultimate({op.domain!r})")


def approximation_violation(
    a: Approximator,
    op: ExactOperator,
    caps: Caps,
    rng: random.Random,
) -> tuple[Approximant, str] | None:
    """A pair (approximant, element) breaking "a approximates op", or None."""
    fw = a.space
    table = _table_on(fw, op)
    pool, _ = _approximant_pool(fw, caps, rng)
    for x in pool:
        image = fw.members_mask(a.apply(x))
        for i in _bits(fw.members_mask(x)):
            if not image >> table[i] & 1:
                return (x, fw.exact.elements[i])
    return None


# ---------------------------------------------------------------------------
# reliability, prudence, stable revision


def is_reliable(a: Approximator, x: Approximant) -> bool:
    return a.space.leq_p(x, a.apply(x))


def lower_stable_bound(a: Approximator, x: Approximant):
    """lfp of the ALB projection of `a` with the AUB pinned to x's."""
    fw = a.space
    apply, recompose, aub = a.apply, fw.recompose, x.aub
    op = MonotoneOperator(fw.alb_leq, lambda l: apply(recompose(l, aub)).alb)
    return lfp(op, start=fw.L_least(), step_cap=fw.step_cap)


def upper_stable_bound(a: Approximator, x: Approximant):
    """lfp of the AUB projection of `a` with the ALB pinned to x's."""
    fw = a.space
    apply, recompose, alb = a.apply, fw.recompose, x.alb
    op = MonotoneOperator(fw.aub_leq, lambda u: apply(recompose(alb, u)).aub)
    return lfp(op, start=fw.least_aub_above(alb), step_cap=fw.step_cap)


def is_prudent(a: Approximator, x: Approximant) -> bool:
    return a.space.alb_leq(x.alb, lower_stable_bound(a, x))


def stable_revision(a: Approximator, x: Approximant) -> Approximant:
    """One application of the stable revision operator.

    Requires a reliable input; the two inner inductions then stay in
    compatible territory and their fixpoints recompose.
    """
    if not is_reliable(a, x):
        raise ReliabilityError(
            f"{a.space.format_approximant(x)} is not reliable for {a.name}"
        )
    low = lower_stable_bound(a, x)
    high = upper_stable_bound(a, x)
    return a.space.recompose(low, high)


# ---------------------------------------------------------------------------
# the four semantics


def kripke_kleene(a: Approximator, *, start: Approximant | None = None) -> Approximant:
    """Least fixpoint of the approximator, from the least approximant.

    `start` admits warm starts from any approximant known to lie below
    the fixpoint, e.g. one carried over from a less precise space.
    """
    fw = a.space
    if start is None:
        start = fw.least_approximant()
    return lfp(MonotoneOperator(fw.leq_p, a.apply), start=start, step_cap=fw.step_cap)


def well_founded(a: Approximator, kk: Approximant) -> Approximant:
    """Least fixpoint of stable revision, from `kk = kripke_kleene(a)`.

    KK lies below WF, and every iterate from it is reliable and prudent,
    where stable revision is monotone; so the iteration climbs from KK
    to the same least fixpoint as from the least approximant, in no more
    steps.  `lfp` still raises if a step from `kk` fails to rise.
    """
    fw = a.space
    op = MonotoneOperator(fw.leq_p, partial(stable_revision, a))
    return lfp(op, start=kk, step_cap=fw.step_cap)


def supported_fixpoints(a: Approximator) -> list[str]:
    """Exact elements fixed by the approximator, sorted.

    Precondition: `a` approximates `a.exact`.  Then a(y) = y on the
    exact approximant of y puts `a.exact`'s image of y among y's members,
    which are y alone, so only the table's fixed points are candidates;
    each is confirmed by one application.
    """
    fw = a.space
    out = []
    for i, j in enumerate(a.exact.table):
        if i == j:
            y = fw.exact.elements[i]
            e = fw.exact_approximant(y)
            if a.apply(e) == e:
                out.append(y)
    return sorted(out)


def stable_fixpoints(a: Approximator, wf: Approximant, supported: list[str]) -> list[str]:
    """Exact elements fixed by stable revision, sorted, given
    `wf = well_founded(a, kk)` and `supported = supported_fixpoints(a)`.

    Every stable fixpoint is a fixpoint of stable revision, so it lies
    above WF and its element is one of WF's members.  An exact
    approximant is reliable only when it is already supported, so the
    candidates are the supported members of WF, and only they are
    revised.  An exact WF is itself stable and the only candidate, so it
    decides alone, with no revision.
    """
    fw = a.space
    y = fw.exact_value(wf)
    if y is not None:
        return [y]
    members, index = fw.members_mask(wf), fw.exact.index
    out = []
    for y in supported:
        if members >> index(y) & 1:
            e = fw.exact_approximant(y)
            if stable_revision(a, e) == e:
                out.append(y)
    return out


@dataclass
class SemanticsResult:
    """The requested fixpoints of one approximator."""

    kk: Approximant | None = None
    wf: Approximant | None = None
    supported: list[str] | None = None
    stable: list[str] | None = None

    def to_json(self, fw: ApproximationFramework) -> dict:
        out: dict = {}
        if self.kk is not None:
            out["kk"] = fw.to_json(self.kk)
        if self.wf is not None:
            out["wf"] = fw.to_json(self.wf)
        if self.supported is not None:
            out["supported"] = self.supported
        if self.stable is not None:
            out["stable"] = self.stable
        return out


def compute_semantics(
    a: Approximator,
    parts: Iterable[str] = ("kk", "wf", "supported", "stable"),
) -> SemanticsResult:
    wanted = set(parts)
    unknown = wanted - {"kk", "wf", "supported", "stable"}
    if unknown:
        raise PreconditionError(f"unknown semantics {sorted(unknown)}")
    kk = kripke_kleene(a) if wanted & {"kk", "wf", "stable"} else None
    wf = well_founded(a, kk) if wanted & {"wf", "stable"} else None
    sup = supported_fixpoints(a) if wanted & {"supported", "stable"} else None
    return SemanticsResult(
        kk=kk if "kk" in wanted else None,
        wf=wf if "wf" in wanted else None,
        supported=sup if "supported" in wanted else None,
        stable=stable_fixpoints(a, wf, sup) if "stable" in wanted else None,
    )


# ---------------------------------------------------------------------------
# refinements and well-founded inductions


def is_application_refinement(a: Approximator, x: Approximant, y: Approximant) -> bool:
    fw = a.space
    return fw.leq_p(x, y) and fw.leq_p(y, a.apply(x))


def is_grounding_refinement(a: Approximator, x: Approximant, y: Approximant) -> bool:
    """y arises from x by replacing the AUB and is reliable.

    The witnessing AUB is y's own: recomposing x's ALB with it must give
    back y, so no search over U is needed.
    """
    fw = a.space
    if y.alb != x.alb or not fw.aub_leq(y.aub, x.aub):
        return False
    if not fw.cross_leq(x.alb, y.aub) or fw.recompose(x.alb, y.aub) != y:
        return False
    return fw.leq_p(y, a.apply(y))


def application_refinements(a: Approximator, x: Approximant) -> list[Approximant]:
    """Strict application refinements: the full image and its two
    one-sided recompositions."""
    fw = a.space
    ax = a.apply(x)
    candidates = [ax]
    if fw.cross_leq(ax.alb, x.aub):
        candidates.append(fw.recompose(ax.alb, x.aub))
    if fw.cross_leq(x.alb, ax.aub):
        candidates.append(fw.recompose(x.alb, ax.aub))
    out = []
    for y in candidates:
        if y != x and y not in out and is_application_refinement(a, x, y):
            out.append(y)
    return out


def grounding_refinements(a: Approximator, x: Approximant) -> list[Approximant]:
    """Strict grounding refinements whose AUBs come from the upper
    stable induction at x; the final iterate is always reliable, the
    intermediate ones are filtered."""
    fw = a.space
    seen = []
    u = fw.least_aub_above(x.alb)
    for _ in range(fw.step_cap):
        seen.append(u)
        nxt = a.apply(fw.recompose(x.alb, u)).aub
        if nxt == u:
            break
        u = nxt
    out = []
    for u in seen:
        if not fw.cross_leq(x.alb, u):
            continue
        y = fw.recompose(x.alb, u)
        if y != x and y not in out and is_grounding_refinement(a, x, y):
            out.append(y)
    return out


def is_terminal_wf(a: Approximator, x: Approximant) -> bool:
    """No strict refinement remains: x is fixed by the approximator and
    no upper-induction AUB candidate grounds it further."""
    if a.apply(x) != x:
        return False
    return not grounding_refinements(a, x)


def run_wf_induction(a: Approximator, strategy: Callable) -> list[Approximant]:
    """Drive a well-founded induction from the least approximant to its
    terminal limit.

    `strategy(step, x, applications, groundings)` picks the next
    approximant among the offered strict refinements.  Every choice is
    re-validated, so a wayward strategy raises instead of corrupting
    the trace.
    """
    fw = a.space
    x = fw.least_approximant()
    trace = [x]
    cap = fw.step_cap
    for step in range(cap):
        apps = application_refinements(a, x)
        grounds = grounding_refinements(a, x)
        if not apps and not grounds:
            return trace
        y = strategy(step, x, apps, grounds)
        if not (is_application_refinement(a, x, y) or is_grounding_refinement(a, x, y)):
            raise InvalidRefinementError(
                f"strategy returned {fw.format_approximant(y)}, which refines nothing"
            )
        x = y
        trace.append(x)
    raise MonotonicityError(
        f"well-founded induction not terminal within {cap} steps"
        f" (the bound 2*|exact| is {cap})"
    )


def random_wf_strategy(rng: random.Random) -> Callable:
    """A seeded strategy choosing uniformly among the offered refinements."""

    def pick(step, x, apps, grounds):
        return rng.choice(apps + grounds)

    return pick

"""Normal logic programs as exact operators, with an independent oracle.

The exact space of a program is the powerset of its atoms under subset
order; the operator is the immediate-consequence map.  Next to it live
the four-valued consequence approximator on intervals, both read off the
program's rules compiled once to atom masks, and a brute-force oracle
(reduct enumeration plus the alternating fixpoint) that works on sets of
atom names and knows nothing about frameworks or the compile: the oracle
is the ground truth the framework pipeline is tested against, so it must
stay independent of it.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from ..engine import Approximator, ExactOperator
from ..errors import InputError, SizeCapError
from ..framework import Approximant
from ..intervals import IntervalFramework
from ..posets import FinitePoset, _Powerset, _strings, powerset_lattice, set_id

ATOM_RE = re.compile(r"[A-Za-z0-9_]+\Z")
# 16 is also the limit of _tp's 16-bit array("H") slots: from 17 atoms on, a
# head mask no longer fits a slot.
MAX_LP_ATOMS = 16


@dataclass(frozen=True)
class Rule:
    head: str
    pos: frozenset[str]
    neg: frozenset[str]


@dataclass(frozen=True)
class NormalLogicProgram:
    atoms: tuple[str, ...]
    rules: tuple[Rule, ...]

    def __post_init__(self):
        known = set(self.atoms)
        if len(known) != len(self.atoms):
            raise InputError("duplicate atoms")
        for a in self.atoms:
            if not ATOM_RE.match(a):
                raise InputError(f"bad atom name {a!r}")
        for r in self.rules:
            for a in (r.head, *r.pos, *r.neg):
                if not isinstance(a, str) or a not in known:
                    # The bodies iterate in hash order: name the first in sorted order.
                    a = next(b for b in (r.head, *sorted(r.pos, key=str), *sorted(r.neg, key=str))
                             if not isinstance(b, str) or b not in known)
                    raise InputError(f"rule mentions undeclared atom {a!r}")

    @cached_property
    def _masks(self) -> tuple[tuple[int, int, int], ...]:
        """The rules as (head, positive body, negative body) masks over
        the sorted atoms, compiled on first use and kept in the
        instance: a set's mask is also its index in the program's
        powerset lattice."""
        bit = {a: 1 << i for i, a in enumerate(sorted(self.atoms))}.__getitem__
        return tuple([(bit(r.head), sum(map(bit, r.pos)), sum(map(bit, r.neg)))
                      for r in self.rules])

    @classmethod
    def from_json(cls, data) -> "NormalLogicProgram":
        try:
            atoms = tuple(sorted(_strings(data["atoms"], '"atoms"')))
            rules = tuple(
                Rule(r["head"], frozenset(_strings(r.get("pos", []), '"pos"')),
                     frozenset(_strings(r.get("neg", []), '"neg"')))
                for r in data["rules"]
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed program JSON: {exc}") from exc
        return cls(atoms, rules)


def lp_exact_space(program: NormalLogicProgram) -> FinitePoset:
    _check_atom_cap(program)  # the atom cap comes first, as for AEL theories
    return powerset_lattice(program.atoms, "subset")


def _check_atom_cap(program: NormalLogicProgram) -> None:
    if len(program.atoms) > MAX_LP_ATOMS:
        raise SizeCapError(f"{len(program.atoms)} atoms exceed the cap of {MAX_LP_ATOMS}")


def _check_powerset(program: NormalLogicProgram, space: FinitePoset) -> None:
    """Reject a `space` that is not the powerset lattice of the program's
    atoms under subset order: tables and approximants read element index
    i as the set of atoms with mask i.  The atom cap comes first: a
    larger powerset would overflow _tp's slots."""
    _check_atom_cap(program)
    atoms = tuple(sorted(program.atoms))
    if not (isinstance(space, _Powerset) and space._atoms == atoms and not space._superset):
        raise InputError(
            f"the space is not the powerset lattice of the program's atoms {set_id(atoms)}"
        )


def lp_operator(program: NormalLogicProgram, space: FinitePoset) -> ExactOperator:
    """The immediate-consequence operator on the powerset of atoms.

    `space` must be the powerset lattice of the program's atoms under
    subset order, such as `lp_exact_space(program)`; program corpora over
    one atom set share it.
    """
    _check_powerset(program, space)
    return _tp(program._masks, space)


def _tp(rules, space: FinitePoset) -> ExactOperator:
    """The immediate-consequence table of compiled `rules` on their
    powerset lattice `space`.

    A rule fires exactly at the interpretations that hold its positive
    body and miss its negative one: its positive body plus any subset of
    the atoms in neither body.  The table is packed into one int with a
    16-bit slot per interpretation, wide enough for any head mask under
    the atom cap.  A rule's cube starts as its head in the slot of its
    positive body and doubles once per free atom k, each copy shifted
    by the 2**k slots that add atom k; the cubes are OR'ed together and
    the slots unpacked once.
    """
    n = len(space)
    packed = 0
    for head, pos, neg in rules:
        if pos & neg:
            continue
        cube = head << 16 * pos
        free = (n - 1) & ~(pos | neg)
        while free:
            low = free & -free
            cube |= cube << 16 * low
            free ^= low
        packed |= cube
    slots = array("H", packed.to_bytes(2 * n, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return ExactOperator(space, slots.tolist())


def fitting_approximator(program: NormalLogicProgram, fw: IntervalFramework) -> Approximator:
    """The four-valued immediate-consequence approximator on intervals.

    A head is derivable in the lower bound when some rule fires with its
    positive body inside the lower bound and its negative body missing
    from the upper bound; the upper bound is symmetric.  Less precise
    than the ultimate approximator, which makes the pair a good test of
    the approximator-precision transfer results.  On an exact pair it
    is the immediate-consequence operator, which it approximates.
    """
    _check_powerset(program, fw.exact)
    rules, exact = program._masks, fw.exact

    def apply(x: Approximant) -> Approximant:
        low, high = exact.index(x.alb), exact.index(x.aub)
        new_low = new_high = 0
        for head, pos, neg in rules:
            if pos & ~low == 0 and neg & high == 0:
                new_low |= head
            if pos & ~high == 0 and neg & low == 0:
                new_high |= head
        return Approximant(fw, exact.elements[new_low], exact.elements[new_high])

    return Approximator(fw, apply, _tp(rules, exact), name="fitting")


# ---------------------------------------------------------------------------
# the independent oracle


@dataclass(frozen=True)
class LpOracle:
    """Ground-truth semantics computed without any framework machinery."""

    answer_sets: tuple[frozenset[str], ...]
    wf_true: frozenset[str]
    wf_possible: frozenset[str]  # atoms not false in the well-founded model
    supported: tuple[frozenset[str], ...]


def lp_oracle(program: NormalLogicProgram) -> LpOracle:
    """Answer sets as the interpretations equal to the least model of
    their Gelfond-Lifschitz reduct, the well-founded model as Van
    Gelder's alternating fixpoint, and supported models as the fixpoints
    of the immediate-consequence map.

    Reads only the program's atoms and rules, as sets of atom names: it
    shares no compile with the operators it checks.
    """
    _check_atom_cap(program)
    atoms, rules = program.atoms, program.rules

    def consequence(pos: frozenset[str], neg: frozenset[str]) -> frozenset[str]:
        """The heads of the rules whose positive body holds in `pos` and
        whose negative body misses `neg`."""
        return frozenset(r.head for r in rules if r.pos <= pos and not r.neg & neg)

    def reduct_model(i: frozenset[str]) -> frozenset[str]:
        """The least model of the reduct of the program by `i`."""
        model: frozenset[str] = frozenset()
        while (nxt := consequence(model, i)) != model:
            model = nxt
        return model

    interpretations = [frozenset(c) for k in range(len(atoms) + 1)
                       for c in combinations(atoms, k)]
    true: frozenset[str] = frozenset()
    while (nxt := reduct_model(reduct_model(true))) != true:
        true = nxt
    return LpOracle(
        answer_sets=tuple(sorted((i for i in interpretations if reduct_model(i) == i), key=sorted)),
        wf_true=true,
        wf_possible=reduct_model(true),
        supported=tuple(sorted((i for i in interpretations if consequence(i, i) == i), key=sorted)),
    )

"""Finite partially ordered sets and their order-theoretic primitives.

Elements are opaque string identifiers.  The order relation is stored
reflexively and transitively closed as per-element bitmasks, so every
operation below reduces to integer bit arithmetic.  Input may supply
either the full order or just a Hasse (cover) relation; the closure is
computed either way and antisymmetry is verified.  Powerset lattices
store no per-element masks: their order is arithmetic on indices.

Everything is restricted to finite posets.  Two consequences are relied
on throughout and documented here once:

* every subset is closed (chains have their glb/lub inside the subset's
  closure trivially), so "closed set" never appears as an operation;
* chain-completeness degenerates to having a least element, because a
  finite chain always contains its own least upper bound and the empty
  chain needs a least element as its lub.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    ElementNotFoundError,
    InputError,
    NotAPartialOrderError,
    SizeCapError,
)

# Explicit posets keep two n-bit masks per element, O(n**2) bits in all,
# and `genaft check`'s stated budgets reach this size.
MAX_ELEMENTS = 4096
# Powerset lattices are index arithmetic with no masks.  The atom caps of the
# encoders already imply this bound: 16 logic-program atoms (_tp's 16-bit
# slots), and the 2**4 interpretations of a 4-atom auto-epistemic theory.
MAX_POWERSET_ATOMS = 16


@dataclass(frozen=True)
class PosetClassification:
    """Order-completeness flags of a finite poset.

    The flags form a chain of implications: complete lattice implies
    bounded-complete implies cpo implies least element; for finite
    posets cpo-hood and having a least element coincide.
    """

    has_least: bool
    is_cpo: bool
    is_bounded_complete: bool
    is_complete_lattice: bool


class FinitePoset:
    """An explicit finite poset over string identifiers."""

    __slots__ = (
        "elements", "_index", "_up", "_down", "_full", "_up_index", "_down_index", "_classification"
    )

    def __init__(self, elements: Iterable[str], pairs: Iterable[tuple[str, str]] = ()):
        """Build a poset from `pairs`, read as x <= y.

        `pairs` may be any generating relation (for example a Hasse
        diagram); the reflexive-transitive closure is taken.  A cycle
        through distinct elements raises NotAPartialOrderError.
        """
        elems = tuple(elements)
        if len(set(elems)) != len(elems):
            raise InputError("duplicate element identifiers")
        if len(elems) > MAX_ELEMENTS:
            raise SizeCapError(f"poset has {len(elems)} elements, cap is {MAX_ELEMENTS}")
        index = {x: i for i, x in enumerate(elems)}
        n = len(elems)
        up = [1 << i for i in range(n)]
        down = up[:]
        for x, y in pairs:
            if x not in index:
                raise ElementNotFoundError(f"unknown element {x!r}")
            if y not in index:
                raise ElementNotFoundError(f"unknown element {y!r}")
            i, j = index[x], index[y]
            up[i] |= 1 << j
            down[j] |= 1 << i
        # Warshall's step through k, applied only to the rows it changes,
        # so `down` stays the transpose of `up`.
        for k in range(n):
            upk, downk = up[k], down[k]
            for i in _bits(downk):
                up[i] |= upk
            for j in _bits(upk):
                down[j] |= downk
        for i in range(n):
            # What lies both above and below i shares a cycle with it.
            if mates := up[i] & down[i] & ~(1 << i):
                raise NotAPartialOrderError(
                    f"cycle through {elems[i]!r} and {elems[_low(mates)]!r}"
                )
        self._set_order(elems, up, down, None)

    @classmethod
    def _from_masks(
        cls,
        elements: tuple[str, ...],
        up: Sequence[int],
        down: Sequence[int],
        classification: PosetClassification,
    ) -> "FinitePoset":
        """Internal fast path for constructions that know their order:
        `up` and `down` already reflexive-transitively closed and
        mutually transposed, `classification` already decided."""
        p = cls.__new__(cls)
        p._set_order(elements, up, down, classification)
        return p

    def _set_order(
        self,
        elements: tuple[str, ...],
        up: Sequence[int],
        down: Sequence[int],
        classification: PosetClassification | None,
    ) -> None:
        """Store the closed order and index its principal sets.

        Principal up-sets (down-sets) are pairwise distinct by
        antisymmetry, so each maps back to its element.  A set of
        common upper bounds has a least element exactly when it is one
        of these principal up-sets, which makes lub and glb a fold plus
        one lookup.
        """
        self.elements = elements
        self._index = {x: i for i, x in enumerate(elements)}
        self._up = up
        self._down = down
        self._full = (1 << len(elements)) - 1
        self._up_index = {m: i for i, m in enumerate(up)}
        self._down_index = {m: i for i, m in enumerate(down)}
        self._classification = classification

    @classmethod
    def from_json(cls, data) -> "FinitePoset":
        """Build from decoded JSON {"elements": [...], "hasse": [[x, y], ...]}.

        The pairs mean "x is covered by y"; any generating relation is
        accepted, the closure is computed.
        """
        if not isinstance(data, dict) or "elements" not in data:
            raise InputError('poset JSON needs an "elements" list')
        elements = _strings(data["elements"], '"elements"')
        pairs = data.get("hasse", data.get("leq", []))
        if not isinstance(pairs, list) or not all(
            isinstance(p, (list, tuple)) and len(p) == 2 and all(isinstance(x, str) for x in p)
            for p in pairs
        ):
            raise InputError('"hasse" must be a list of [x, y] pairs')
        return cls(elements, [tuple(p) for p in pairs])

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise self._unknown(x) from None

    def _unknown(self, *xs: str) -> ElementNotFoundError:
        """The error for the first of `xs` that is not an element.  The
        order queries read `_index` once per identifier, with no frame of
        `index`'s, and ask this only on a miss."""
        x = next(x for x in xs if x not in self._index)
        return ElementNotFoundError(f"unknown element {x!r}")

    def leq(self, x: str, y: str) -> bool:
        try:
            return self._up[self._index[x]] >> self._index[y] & 1 == 1
        except KeyError:
            raise self._unknown(x, y) from None

    def mask_of(self, s: Iterable[str]) -> int:
        m = 0
        for x in s:
            m |= 1 << self.index(x)
        return m

    def set_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.elements[i] for i in _bits(mask))

    def up_mask(self, x: str) -> int:
        try:
            return self._up[self._index[x]]
        except KeyError:
            raise self._unknown(x) from None

    def down_mask(self, x: str) -> int:
        try:
            return self._down[self._index[x]]
        except KeyError:
            raise self._unknown(x) from None

    def _up_of(self, i: int) -> int:
        """The principal up-set of the element with index i."""
        return self._up[i]

    def _down_of(self, i: int) -> int:
        return self._down[i]

    # -- bounds ----------------------------------------------------------

    def lub(self, s: Iterable[str]) -> str | None:
        """Least upper bound of `s`, or None when it does not exist.

        lub of the empty set is the least element (when there is one).
        """
        i = self._lub_mask(self.mask_of(s))
        return None if i < 0 else self.elements[i]

    def glb(self, s: Iterable[str]) -> str | None:
        i = self._glb_mask(self.mask_of(s))
        return None if i < 0 else self.elements[i]

    def _lub_mask(self, smask: int) -> int:
        ubs = self._full
        for i in _bits(smask):
            ubs &= self._up[i]
        return self._up_index.get(ubs, -1)

    def _glb_mask(self, smask: int) -> int:
        lbs = self._full
        for i in _bits(smask):
            lbs &= self._down[i]
        return self._down_index.get(lbs, -1)

    def least(self) -> str | None:
        return self.lub(())

    def greatest(self) -> str | None:
        return self.glb(())

    # -- subset shape ----------------------------------------------------

    def _max_mask(self, smask: int) -> int:
        out = 0
        for i in _bits(smask):
            if self._up[i] & smask == 1 << i:
                out |= 1 << i
        return out

    def _up_closure(self, smask: int) -> int:
        """The elements above some element of `smask`."""
        out = 0
        for i in _bits(smask):
            out |= self._up[i]
        return out

    def _down_closure(self, smask: int) -> int:
        out = 0
        for i in _bits(smask):
            out |= self._down[i]
        return out

    # -- classification --------------------------------------------------

    def classify(self) -> PosetClassification:
        """Completeness flags.

        Powersets and products record them when they are built; any
        other poset computes them on the first call and keeps them.
        The generic computation decides bounded-completeness on pairs:
        in a finite poset, glbs of pairs extend to glbs of all non-empty
        subsets by folding.  Agreement with brute-force subset
        enumeration is part of the test suite.
        """
        if self._classification is None:
            has_least = self._full in self._up_index
            bounded = has_least and self.pair_without_glb() is None
            complete = bounded and self._full in self._down_index
            self._classification = PosetClassification(
                has_least=has_least,
                is_cpo=has_least,
                is_bounded_complete=bounded,
                is_complete_lattice=complete,
            )
        return self._classification

    def pair_without_glb(self) -> tuple[str, str] | None:
        """The first pair of elements, in element order, that has no
        greatest lower bound; None when every pair has one."""
        down, down_index = self._down, self._down_index
        for a, da in enumerate(down):
            for b in range(a + 1, len(down)):
                if da & down[b] not in down_index:
                    return self.elements[a], self.elements[b]
        return None

    def __repr__(self) -> str:
        return f"FinitePoset({len(self.elements)} elements)"


def _bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _low(mask: int) -> int:
    """The index of the lowest set bit."""
    return (mask & -mask).bit_length() - 1


def _strings(value, name: str) -> list[str]:
    """`value` if it is a JSON list of identifiers, else an InputError."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise InputError(f"{name} must be a list of strings")
    return value


def set_id(members: Iterable[str]) -> str:
    """Canonical identifier for a set of identifiers: "{a,b}" sorted."""
    return "{" + ",".join(sorted(members)) + "}"


def tuple_id(parts: Sequence[str]) -> str:
    """Canonical identifier for a tuple of identifiers."""
    return "(" + "|".join(parts) + ")"


@functools.lru_cache(maxsize=32)
def powerset_ids(atoms: tuple[str, ...]) -> tuple[str, ...]:
    """The set_id of every subset of the sorted distinct `atoms`; index i
    holds the subset of the atoms at the set bits of i.  Cached and shared."""
    inner = [""]
    for a in atoms:
        inner += [f"{s},{a}" if s else a for s in inner]
    return tuple("{" + s + "}" for s in inner)


@functools.lru_cache(maxsize=32)
def _powerset_index(atoms: tuple[str, ...]) -> dict[str, int]:
    """The index of each identifier of `powerset_ids(atoms)`.  Cached and
    shared, so read-only."""
    return {x: i for i, x in enumerate(powerset_ids(atoms))}


@functools.lru_cache(maxsize=32)
def _subset_factors(n: int) -> tuple[int, int, int, tuple[int, ...], tuple[int, ...]]:
    """Two tables whose product is the mask of the subsets of an index
    over n atoms, with the shift and masks that split the index:
    (h, low, top, lo, hi), where the subsets of i are
    lo[i & low] * hi[i >> h] and top is the index of the full set.

    lo covers the h low atoms and hi the others.  Doubling over atom k,
    each subset gains a copy with atom k, whose index is 1 << k higher.
    A low subset's index is below 2**h and a high one's is a multiple of
    2**h, so the product sums every pair of them without a carry.
    Cached and shared.
    """
    h = n // 2
    lo, hi = [1], [1]
    for k in range(h):
        lo += [d | d << (1 << k) for d in lo]
    for k in range(h, n):
        hi += [d | d << (1 << k) for d in hi]
    return h, (1 << h) - 1, (1 << n) - 1, tuple(lo), tuple(hi)


class _Powerset(FinitePoset):
    """The subsets of sorted atoms under subset order, or under superset
    order when `superset`; index i is the subset with atom mask i.

    The order is arithmetic on indices, so nothing is stored per element
    beyond the identifiers.  Column k, kept with atom k's bit, is the
    mask of the indices whose subset holds atom k.  A bound tests each
    column against the member mask, and a closure or max-set takes one shift pass per atom over
    the index space (the subset-sum, or zeta, transform).
    """

    __slots__ = ("_atoms", "_superset", "_cols", "_factors")

    def __init__(self, atoms: tuple[str, ...], superset: bool):
        n = len(atoms)
        self.elements = powerset_ids(atoms)
        self._index = _powerset_index(atoms)
        self._full = (1 << (1 << n)) - 1
        self._classification = PosetClassification(True, True, True, True)
        self._atoms = atoms
        self._superset = superset
        self._factors = _subset_factors(n)
        holding = self._down_of if superset else self._up_of
        self._cols = tuple((1 << k, holding(1 << k)) for k in range(n))

    # The subsets of i are one product of the tables; its supersets are
    # i plus any subset of the other atoms.

    def _up_of(self, i: int) -> int:
        h, low, top, lo, hi = self._factors
        if self._superset:
            return lo[i & low] * hi[i >> h]
        c = top ^ i
        return lo[c & low] * hi[c >> h] << i

    def _down_of(self, i: int) -> int:
        h, low, top, lo, hi = self._factors
        if not self._superset:
            return lo[i & low] * hi[i >> h]
        c = top ^ i
        return lo[c & low] * hi[c >> h] << i

    def leq(self, x: str, y: str) -> bool:
        try:
            i, j = self._index[x], self._index[y]
        except KeyError:
            raise self._unknown(x, y) from None
        return (j & ~i if self._superset else i & ~j) == 0

    def up_mask(self, x: str) -> int:
        try:
            return self._up_of(self._index[x])
        except KeyError:
            raise self._unknown(x) from None

    def down_mask(self, x: str) -> int:
        try:
            return self._down_of(self._index[x])
        except KeyError:
            raise self._unknown(x) from None

    def _union(self, smask: int) -> int:
        out = 0
        for bit, col in self._cols:
            if smask & col:
                out |= bit
        return out

    def _intersection(self, smask: int) -> int:
        out = 0
        for bit, col in self._cols:
            if smask & col == smask:
                out |= bit
        return out

    def _lub_mask(self, smask: int) -> int:
        return self._intersection(smask) if self._superset else self._union(smask)

    def _glb_mask(self, smask: int) -> int:
        return self._union(smask) if self._superset else self._intersection(smask)

    def _sweep(self, smask: int, toward_supersets: bool, strict: bool) -> int:
        """The indices reached from `smask` by adding atoms (or by
        removing them), one pass per atom; `strict` leaves out the
        members reached only from themselves."""
        reached = 0 if strict else smask
        for k, (_, col) in enumerate(self._cols):
            if toward_supersets:
                reached |= ((smask | reached) & ~col) << (1 << k)
            else:
                reached |= ((smask | reached) & col) >> (1 << k)
        return reached

    def _up_closure(self, smask: int) -> int:
        return self._sweep(smask, not self._superset, False)

    def _down_closure(self, smask: int) -> int:
        return self._sweep(smask, self._superset, False)

    def _max_mask(self, smask: int) -> int:
        return smask & ~self._sweep(smask, self._superset, True)

    def pair_without_glb(self) -> None:
        return None


def powerset_lattice(atoms: Iterable[str], order: str = "subset") -> FinitePoset:
    """The lattice of all subsets of `atoms` under subset or superset order.

    Element identifiers are canonical "{a,b}" strings, and the subset
    with atom mask i (over the sorted atoms) has index i.  Under
    "superset" the order is reversed, so the least element is the full
    set; this is the belief-state order, where smaller sets carry more
    knowledge.
    """
    atom_list = sorted(set(atoms))
    if order not in ("subset", "superset"):
        raise InputError(f"unknown order {order!r}")
    if len(atom_list) > MAX_POWERSET_ATOMS:
        raise SizeCapError(
            f"powerset would have {1 << len(atom_list)} elements, cap is {1 << MAX_POWERSET_ATOMS}"
        )
    return _Powerset(tuple(atom_list), order == "superset")


def product_poset(factors: Sequence[FinitePoset]) -> FinitePoset:
    """Pointwise-ordered product; identifiers encode component tuples."""
    if not factors:
        raise InputError("product of zero posets")
    total = 1
    for f in factors:
        total *= len(f)
    if total > MAX_ELEMENTS:
        raise SizeCapError(f"product would have {total} elements, cap is {MAX_ELEMENTS}")
    ids = tuple(map(tuple_id, itertools.product(*(f.elements for f in factors))))
    up = _pointwise([list(map(f._up_of, range(len(f)))) for f in factors])
    down = _pointwise([list(map(f._down_of, range(len(f)))) for f in factors])
    # Every flag holds of a product exactly when it holds of each factor
    # (an empty factor makes the product empty, with every flag false).
    flags = [f.classify() for f in factors]
    classification = PosetClassification(
        has_least=all(c.has_least for c in flags),
        is_cpo=all(c.is_cpo for c in flags),
        is_bounded_complete=all(c.is_bounded_complete for c in flags),
        is_complete_lattice=all(c.is_complete_lattice for c in flags),
    )
    return FinitePoset._from_masks(ids, up, down, classification)


def _pointwise(factor_masks: list[list[int]]) -> list[int]:
    """Per tuple, in itertools.product order, the mask of the tuples
    related to it in every component, from each factor's principal
    masks.

    A tuple (c, rest) has index c * len(rests) + the index of rest, so
    its mask is c's mask spread to one bit per block of len(rests) bits,
    times the mask of rest: the product puts a copy of rest's mask in
    the block of every c' related to c, and the copies cannot carry.
    """
    out = factor_masks[-1]
    for masks in reversed(factor_masks[:-1]):
        block = len(out)
        spread = [sum(1 << c * block for c in _bits(m)) for m in masks]
        out = [s * r for s in spread for r in out]
    return out

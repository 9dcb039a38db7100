"""Weighted abstract dialectical frameworks over an acceptance-value poset.

Each argument carries an acceptance condition over its parents' values,
built from constants, parent references, glb/lub combinations, and
explicit tables.  An interpretation assigns every argument a value; the
exact space is the pointwise-ordered product of the value poset, one
factor per argument, which is bounded-complete whenever the value poset
is: no greatest element is required, and that is the point, because
acceptance orders routinely have several maximal values.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping

from ..engine import ExactOperator
from ..errors import EvaluationError, InputError, PreconditionError
from ..posets import FinitePoset, _strings, product_poset


def parse_acceptance(node, values: set[str], arguments: set[str]) -> tuple:
    """JSON list form to an immutable tree.

    Nodes: ["const", v] | ["parent", arg] | ["glb", e...] | ["lub", e...]
    | ["table", [parents...], [[[v...], out], ...]].
    """
    if not isinstance(node, (list, tuple)) or not node:
        raise InputError(f"malformed acceptance node: {node!r}")
    op, *args = node
    if op == "const":
        if len(args) != 1 or not isinstance(args[0], str) or args[0] not in values:
            raise InputError(f"bad constant node: {node!r}")
        return ("const", args[0])
    if op == "parent":
        if len(args) != 1 or not isinstance(args[0], str) or args[0] not in arguments:
            raise InputError(f"bad parent node: {node!r}")
        return ("parent", args[0])
    if op in ("glb", "lub"):
        if not args:
            raise InputError(f"{op} needs at least one argument")
        return (op, tuple(parse_acceptance(a, values, arguments) for a in args))
    if op == "table":
        if len(args) != 2 or not isinstance(args[1], list):
            raise InputError(f"bad table node: {node!r}")
        parents, rows = args
        if not all(p in arguments for p in _strings(parents, "table parents")):
            raise InputError(f"table over undeclared arguments: {parents!r}")
        mapping = {}
        for row in rows:
            if not isinstance(row, list) or len(row) != 2:
                raise InputError(f"bad table row: {row!r}")
            key, out = tuple(_strings(row[0], "table keys")), row[1]
            if len(key) != len(parents) or not all(
                isinstance(v, str) and v in values for v in (*key, out)
            ):
                raise InputError(f"bad table row: {row!r}")
            mapping[key] = out
        missing = [
            combo
            for combo in itertools.product(sorted(values), repeat=len(parents))
            if combo not in mapping
        ]
        if missing:
            raise InputError(
                f"table over {list(parents)} is missing {len(missing)} rows, e.g. {missing[0]}"
            )
        return ("table", tuple(parents), mapping)
    raise InputError(f"unknown acceptance node {op!r}")


@dataclass(frozen=True)
class Wadf:
    arguments: tuple[str, ...]
    value_poset: FinitePoset
    acceptance: Mapping[str, tuple]

    def __post_init__(self):
        if len(set(self.arguments)) != len(self.arguments):
            raise InputError("duplicate arguments")
        missing = [a for a in self.arguments if a not in self.acceptance]
        if missing:
            raise InputError(f"arguments without acceptance conditions: {missing}")
        extra = sorted(set(self.acceptance) - set(self.arguments))
        if extra:
            raise InputError(f"acceptance condition for undeclared argument {extra[0]!r}")

    @classmethod
    def from_json(cls, data) -> "Wadf":
        try:
            arguments = tuple(_strings(data["arguments"], '"arguments"'))
            values = FinitePoset.from_json(data["values"])
            raw = data["acceptance"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed wADF JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise InputError('"acceptance" must be an object')
        vset, aset = set(values.elements), set(arguments)
        acceptance = {a: parse_acceptance(raw[a], vset, aset) for a in arguments if a in raw}
        # An undeclared key is kept unparsed, for __post_init__ to reject by name.
        acceptance.update((a, raw[a]) for a in raw.keys() - aset)
        return cls(arguments, values, acceptance)


def wadf_exact_space(w: Wadf) -> FinitePoset:
    """Pointwise product of the value poset, one factor per argument."""
    return product_poset([w.value_poset] * len(w.arguments))


def wadf_operator(w: Wadf) -> ExactOperator:
    """One revision step: every argument re-evaluates its acceptance
    condition under the current assignment."""
    cls = w.value_poset.classify()
    if not cls.is_bounded_complete:
        raise PreconditionError("the acceptance-value poset must be a bounded-complete cpo")
    domain = wadf_exact_space(w)
    arg_index = {a: i for i, a in enumerate(w.arguments)}
    values = w.value_poset

    def compiled(arg: str, expr: tuple):
        """`expr` as a function of an assignment's value-index digits,
        returning a value index; bounds fold the operands' value bits."""
        op = expr[0]
        if op == "const":
            i = values.index(expr[1])
            return lambda digits: i
        if op == "parent":
            return itemgetter(arg_index[expr[1]])
        if op == "table":
            ks = [arg_index[p] for p in expr[1]]
            rows = {tuple(map(values.index, key)): values.index(out) for key, out in expr[2].items()}
            if len(ks) == 1:  # a one-index itemgetter returns the bare digit
                rows = {key[0]: out for key, out in rows.items()}
            pick = itemgetter(*ks) if ks else lambda digits: ()
            return lambda digits: rows[pick(digits)]
        subs = [compiled(arg, sub) for sub in expr[1]]
        # Each node memoises its bound per operand bit-set, a missing one too.
        bound = functools.cache(values._glb_mask if op == "glb" else values._lub_mask)

        def combined(digits) -> int:
            bits = 0
            for sub in subs:
                bits |= 1 << sub(digits)
            i = bound(bits)
            if i < 0:  # only a lub: glbs of non-empty sets exist in a bounded-complete cpo
                raise EvaluationError(
                    f"acceptance of {arg!r} asks for a lub of {sorted(values.set_of(bits))},"
                    " which does not exist in the value poset"
                )
            return i

        return combined

    # product_poset lists assignments in itertools.product order, so an
    # assignment's index is its value indices read as mixed-radix digits.
    conditions = [compiled(a, w.acceptance[a]) for a in w.arguments]
    radix = len(values)
    table = []
    for digits in itertools.product(range(radix), repeat=len(w.arguments)):
        index = 0
        for condition in conditions:
            index = index * radix + condition(digits)
        table.append(index)
    return ExactOperator(domain, table)

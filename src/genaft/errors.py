"""Exception hierarchy shared across the library.

The CLI maps these onto exit codes: input/validation problems exit 2,
violated mathematical preconditions exit 3, failed verification reports
exit 1.
"""


class GenaftError(Exception):
    """Base class for all library errors."""


class InputError(GenaftError):
    """Malformed input: bad JSON shape, unknown fields, invalid names."""


class ElementNotFoundError(InputError):
    """An identifier is not an element of the poset at hand."""


class NotAPartialOrderError(InputError):
    """The supplied relation is not antisymmetric once closed (a cycle)."""


class SizeCapError(InputError):
    """A construction would exceed its fixed size cap."""


class PreconditionError(GenaftError):
    """A documented mathematical precondition does not hold."""


class MonotonicityError(GenaftError):
    """An operator assumed monotone produced a decreasing step."""


class InvalidRefinementError(GenaftError):
    """A strategy returned a step that is not a valid refinement."""


class ReliabilityError(PreconditionError):
    """Stable revision was applied to a non-reliable approximant."""


class RecomposeUndefinedError(GenaftError):
    """Recomposition was requested for an incompatible (ALB, AUB) pair."""


class EvaluationError(GenaftError):
    """An acceptance expression could not be evaluated (e.g. missing lub)."""

"""Error taxonomy shared across the package."""

from collections.abc import Sequence

# The most items of a list that an error message names.
_LISTED = 5


class InputError(ValueError):
    """Malformed or out-of-contract user input (files, ranges, parameters)."""


class StructuralError(ValueError):
    """A decomposition is structurally unusable for the given graph."""


class CapacityError(RuntimeError):
    """An exact method was asked to run beyond its supported instance size."""


def listed(items: Sequence[int]) -> str:
    """items for an error message: at most the first _LISTED of them, and
    how many there are when that cuts the list."""
    head = ", ".join(map(str, items[:_LISTED]))
    return f"{head} (the first {_LISTED} of {len(items)})" if len(items) > _LISTED else head

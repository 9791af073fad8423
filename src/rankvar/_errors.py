"""Error hierarchy shared across modules.

InputError covers malformed requests (bad shapes, invalid parameters, files
that do not parse); NumericalError covers failures of well-formed requests
(singular matrices, non-stationary fits).  The CLI maps them to exit codes
2 and 3 respectively.  These two, with ``order_id.IdentificationError`` (a
NumericalError that carries a partial trace), are the whole hierarchy.
"""


class InputError(ValueError):
    """The request itself is invalid."""


class NumericalError(RuntimeError):
    """A numerically degenerate situation that the caller must see."""

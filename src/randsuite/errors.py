"""Exception types shared across the package, and the one check of its numeric arguments.

Everything raised on purpose derives from :class:`RandsuiteError`, so callers
can catch one base class.  Most subclasses also derive from ``ValueError``
because they signal bad input values.

An error is its message and carries no other fields.  The rule that names the
bad input lives in one place, ``bitseq._built``: every loader builds what it
read, and each list item again as ``<key>[i]``, through it, so an error met in a
file is re-raised as ``type(exc)(f"<file>: {exc}")`` and names the file and field.
"""

import numbers

__all__ = [
    "RandsuiteError",
    "InvalidCharacter",
    "EmptyInput",
    "LengthMismatch",
    "DuplicateIndex",
    "ManifestError",
    "EmptySet",
    "EmptySequence",
    "SampleTooShort",
    "BlockTooLarge",
    "PatternTooLong",
    "TooFewSamples",
    "DomainError",
    "NonFiniteInput",
    "IndexOutOfRange",
]


class RandsuiteError(Exception):
    """Base class for all errors raised by randsuite."""


class InvalidCharacter(RandsuiteError, ValueError):
    """A character outside the encoding's alphabet was found while parsing."""


class EmptyInput(RandsuiteError, ValueError):
    """Parsing produced zero bits."""


class LengthMismatch(RandsuiteError, ValueError):
    """A decoded sample does not match the declared bit length."""


class DuplicateIndex(RandsuiteError, ValueError):
    """Two samples claim the same sample_index within one source."""


class ManifestError(RandsuiteError, ValueError):
    """A manifest file is structurally invalid (schema, encoding, paths)."""


class EmptySet(RandsuiteError, ValueError):
    """An operation that needs at least one sample got an empty sample set."""


class EmptySequence(RandsuiteError, ValueError):
    """An operation that needs at least one bit got an empty sequence."""


class SampleTooShort(RandsuiteError, ValueError):
    """A sequence is shorter than the test's minimum meaningful length."""


class BlockTooLarge(RandsuiteError, ValueError):
    """Block size exceeds the sequence length."""


class PatternTooLong(RandsuiteError, ValueError):
    """Pattern length is too large for the sequence length."""


class TooFewSamples(RandsuiteError, ValueError):
    """The p-value uniformity check needs more samples."""


class DomainError(RandsuiteError, ValueError):
    """An argument is outside a function's mathematical domain."""


class NonFiniteInput(RandsuiteError, ValueError):
    """NaN or infinity where a finite real is required."""


class IndexOutOfRange(DomainError):
    """A sample index falls outside the range a noise model covers."""


def check_int(name: str, value, low: int, high: int | None = None, *,
              error: type = DomainError) -> int:
    """``value`` as an ``int`` if it is an integer in [low, high], else ``error``.

    A bool is no integer, and neither is a float with an integral value.
    ``high``, when given, is the largest k-bit value 2**k - 1.  The builtin
    types are tested before the ABCs, whose checks are far slower.
    """
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise error(f"{name} must be a {high.bit_length()}-bit value, got {value}")
    return int(value)


def check_real(name: str, value, low: float, high: float, edges: str = "[]"):
    """``value`` if it is a real number between ``low`` and ``high``, else DomainError.

    ``edges`` holds the interval's brackets: ``"[]"`` closed, ``"()"`` open,
    ``"[)"`` and ``"(]"`` half-open.  NaN lies in no interval, and an infinity
    only in one closed at that edge.  A bool is no real number.  A Python int
    or float is returned as given, any other real (a numpy float32, say) as a float.
    """
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    if not ((low < value if edges[0] == "(" else low <= value)
            and (value < high if edges[1] == ")" else value <= high)):
        raise DomainError(f"{name} must be in {edges[0]}{low}, {high}{edges[1]}, got {value}")
    return value if isinstance(value, int | float) else float(value)

"""The scalar contract without numpy: ``_number`` (a finite ``numbers.Number``),
``_integer`` (4.0 is 4, True is refused) and ``_positive`` (positive and finite)
read every scalar argument of the public API. ``_integer`` reads an int itself
and any other value by ``numerics.exact_integers``, which imports numpy.
"""

from __future__ import annotations

import cmath
import math
from contextlib import suppress
from numbers import Number

from .errors import ValidationError

DEFAULT_TOL = 1e-10

# Largest |weight| (the j-qexp cap) and ks-count n, d: work grows with it; (c tau + d)^-n
# loses phase near 2^53, and binomial(2001, 1000) already has about 600 digits.
MAX_WEIGHT = 1000

_INT64 = range(-2 ** 63, 2 ** 63)  # the ints that exact_integers accepts


def _number(name, value) -> complex:
    """``value`` as a finite complex number, or ValidationError naming the field."""
    if isinstance(value, Number):
        try:
            if cmath.isfinite(z := complex(value)):
                return z
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValidationError(f"{name} must be a finite number, got {value!r}")


def _integer(name, value, low=-math.inf, high=math.inf) -> int:
    """``value`` as an int in [low, high] by the rule of ``exact_integers``, else ValidationError."""
    n = value if type(value) is int and value in _INT64 else None
    if n is None:
        from .numerics import exact_integers
        with suppress(ValidationError):
            n = exact_integers(value, ValidationError, name)
            n = None if n.ndim else int(n)
    if n is not None and low <= n <= high:
        return n
    bound = " and ".join(f"{o} {v}" for o, v in ((">=", low), ("<=", high)) if math.isfinite(v))
    raise ValidationError(f"{name} must be an integer {bound}".rstrip() + f", got {value!r}")


def _positive(name, value) -> float:
    """``value`` as a positive finite float, or ValidationError naming the field."""
    with suppress(ValidationError):
        if not (z := _number(name, value)).imag and z.real > 0.0:
            return z.real
    raise ValidationError(f"{name} must be positive and finite, got {value!r}")

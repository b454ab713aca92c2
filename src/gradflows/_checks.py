"""Argument checks shared by the public entry points."""

import math
import numbers


def real_in(name, value, low=0.0, high=math.inf, low_closed=False, high_closed=False) -> float:
    """`value` as a float when it is a real number inside the interval.

    Ends are open unless marked closed, so the defaults accept exactly the
    positive finite reals and NaN never passes.  Any real number type counts,
    numpy scalars included, but a bool does not.  Otherwise raises ValueError
    naming the parameter and the allowed interval.
    """
    # a float first: the check against the numbers.Real ABC costs ~0.4 us
    if (
        (type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool))
        and (low < value or low_closed and low == value)
        and (value < high or high_closed and value == high)
    ):
        return float(value)
    raise ValueError(
        "%s must lie in %s%g, %g%s, got %r"
        % (name, "[" if low_closed else "(", low, high, "]" if high_closed else ")", value)
    )


def positive_int(name, value) -> int:
    """`value` as an int when it is an integer of at least 1.

    Any integral type counts, numpy integers included, but a bool does not.
    Otherwise raises ValueError naming the parameter.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1:
        return int(value)
    raise ValueError("%s must be a positive integer, got %r" % (name, value))

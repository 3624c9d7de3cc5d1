"""Reference formulas the tests check the package against; nothing in the
package calls them."""

import math


def asymptotic_constants(alpha) -> tuple[float, float]:
    """Growth base and prefactor: ``E[count] ~ prefactor * base**n``.

    ``base = 1 + r`` and ``prefactor = (1 + 2r) / (2r)`` with
    ``r = sqrt(alpha * (1 - alpha))``. Only defined strictly inside (0, 1);
    constant strings grow linearly, not exponentially.
    """
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError("asymptotic constants need alpha strictly inside (0, 1)")
    r = math.sqrt(a * (1.0 - a))
    return 1.0 + r, (1.0 + 2.0 * r) / (2.0 * r)

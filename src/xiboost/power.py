"""Local-alternative machinery: Gaussian rotation sampling and detection rates.

The rotation model is a standard bivariate normal with correlation rho. When
the neighbor count grows like n**gamma, the smallest detectable correlation
decays like n**(-beta(gamma)); beta interpolates from 1/4 (few neighbors) to
1/2 (near-parametric, neighbor count close to n) and is not monotone in
between.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GammaRangeError
from .ranks import Sample, validate_count, validate_rho, validate_sizes


def sample_rotation(rng: np.random.Generator, n: int, rho: float) -> Sample:
    """n i.i.d. pairs with standard normal marginals and correlation rho."""
    n = validate_count("n", n, 2)
    rho = validate_rho(rho)
    x = rng.standard_normal(n)
    y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
    return Sample(x, y)


def zeta(n: int, M: int) -> float:
    """Detection boundary min(max(sqrt(n)/M^1.5, 1/sqrt(M)), max((nM)^-0.25, M^0.25/sqrt(n))).

    Correlations shrinking slower than this rate are detected with power
    tending to one. Evaluated in log space so extreme n cannot overflow.
    """
    n, M = validate_sizes(n, M)
    ln, lm = math.log(n), math.log(M)
    first = max(0.5 * ln - 1.5 * lm, -0.5 * lm)
    second = max(-0.25 * (ln + lm), -0.5 * ln + 0.25 * lm)
    return math.exp(min(first, second))


def beta_of_gamma(gamma):
    """Boundary exponent for M = n**gamma: piecewise linear with kinks at
    gamma = 1/4, 1/2, 2/3, dipping between 1/2 and 2/3.

    Works with any numeric type whose arithmetic supports integer constants;
    pass a Fraction to get the exact rational value (gammas like 2/3 have no
    exact float).
    """
    if not 0 < gamma < 1:
        raise GammaRangeError(f"gamma must lie in (0, 1), got {gamma}")
    return max(min((3 * gamma - 1) / 2, gamma / 2),
               min((1 + gamma) / 4, (2 - gamma) / 4))


def regime_ok(n: int, M: int) -> bool:
    """Advisory check that (n, M) plausibly sits in the regime where the
    local-power guarantees apply: M well above log n and M (log n)^{3/2}
    well below n. Heuristic, not an error condition."""
    n, M = validate_sizes(n, M)
    ln = math.log(n)
    return M >= ln and M * ln ** 1.5 <= n

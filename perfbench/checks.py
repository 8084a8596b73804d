"""Statistical and contract checks on the program's outputs.

None of these pins a bit pattern: each compares a realized rate or value
against the analytic model it should follow, with a stated confidence,
so a later change to how bits are generated still passes as long as the
statistics hold.  Each check returns a list of failure messages (empty
when it passes).

The variance model is that of a random stochastic number generator:
a decoded value of probability ``p`` from ``N`` independent clocks has
variance ``p (1 - p) / N`` (Rahimi Kari, *Principles of Stochastic
Computing*, arXiv 2011.05153).  An LFSR of width ``w`` repeats after
``2**w - 1`` clocks, so at most that many clocks are independent.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional

import numpy as np

__all__ = [
    "FALSE_ALARM",
    "Z_TWO_SIDED",
    "check_bit_error_rate",
    "check_decoded_values",
    "check_flip_rate",
    "flip_rate_z",
    "outlier_rows",
    "poisson_upper_quantile",
]

FALSE_ALARM = 1e-6
"""Per-check false-alarm probability of the statistical gates."""

Z_TWO_SIDED = 4.8916
"""Standard-normal quantile for a two-sided ``FALSE_ALARM`` interval."""

MEDIAN_Z_LIMIT = 1.0
"""Bound on the median over a batch's rows of |error| / sigma.

For a random generator the median |z| is 0.674; LFSR streams land well
below it (about 0.1 to 0.3).  A broken multiplexer or an off-by-one
stream shifts every row and fails it.  A median, not a mean or a
per-row bound, because a few rows are decoded from correlated streams:
2 of 63 noisy evaluations had a row off by 0.06 to 0.09 (30 to 45 sigma)
with no bit errors at all.  In one of them the row's two derived
data-channel LFSR seeds coincide with two of its coefficient-channel
seeds.  Such rows are counted by :func:`outlier_rows` and reported
instead of failing the run.
"""

OUTLIER_Z = 6.0
"""Rows beyond this many sigma are reported as outliers."""


def poisson_upper_quantile(mean: float, tail: float = FALSE_ALARM) -> int:
    """Smallest ``k`` with ``P(X > k) <= tail`` for ``X ~ Poisson(mean)``.

    A binomial count with tiny ``p`` and large ``n`` is Poisson to
    within ``p``, and the Poisson tail is the conservative side.
    """
    if mean <= 0.0:
        return 0
    log_pmf = -mean
    cumulative = math.exp(log_pmf)
    k = 0
    while 1.0 - cumulative > tail:
        k += 1
        log_pmf += math.log(mean) - math.log(k)
        cumulative += math.exp(log_pmf)
    return k


def check_bit_error_rate(bit_errors: int, clocks: int, worst_case_ber: float) -> List[str]:
    """Realized link BER: non-zero, and within the worst-case Eq. 9 bound."""
    failures = []
    bound = poisson_upper_quantile(worst_case_ber * clocks)
    if bit_errors <= 0:
        failures.append(
            f"no link bit errors in {clocks} noisy clocks at worst-case BER "
            f"{worst_case_ber:.3g}: receiver noise is not reaching the decisions"
        )
    if bit_errors > bound:
        failures.append(
            f"{bit_errors} link bit errors in {clocks} clocks exceed the "
            f"{1 - FALSE_ALARM:.6f} upper bound {bound} of the worst-case "
            f"BER {worst_case_ber:.3g}"
        )
    return failures


def _row_z(values: Any, expected: Any, length: int, sng_width: int) -> np.ndarray:
    """|error| / sigma per row under the SC variance model."""
    values = np.asarray(values, dtype=float)
    expected = np.asarray(expected, dtype=float)
    independent = min(int(length), (1 << int(sng_width)) - 1)
    sigma = np.sqrt(np.maximum(expected * (1.0 - expected), 1e-12) / independent)
    return np.abs(values - expected) / sigma


def check_decoded_values(
    values: Any, expected: Any, length: int, sng_width: int
) -> List[str]:
    """Decoded values within the SC variance model of the exact ones."""
    median_z = float(np.median(_row_z(values, expected, length, sng_width)))
    if median_z > MEDIAN_Z_LIMIT:
        return [
            f"median |error|/sigma over {np.size(values)} rows is {median_z:.3f} "
            f"> {MEDIAN_Z_LIMIT} (sigma from p(1-p)/min(L, 2**{sng_width} - 1))"
        ]
    return []


def outlier_rows(values: Any, expected: Any, length: int, sng_width: int) -> int:
    """Rows decoded more than ``OUTLIER_Z`` sigma from the exact value."""
    return int(np.sum(_row_z(values, expected, length, sng_width) > OUTLIER_Z))


def check_flip_rate(
    flips: int,
    clocks: int,
    probability: float,
    resolution_bits: Optional[int],
) -> List[str]:
    """Realized flip rate inside a binomial interval around the request.

    The interval is widened by half a step of the probability
    resolution the fault model documents (``FAULT_PROBABILITY_BITS``):
    the contract is that a requested rate is realized to that
    resolution.  An exact sampler (no resolution) gets no widening.
    """
    rate = flips / clocks
    half_width = Z_TWO_SIDED * math.sqrt(probability * (1.0 - probability) / clocks)
    allowance = 0.0 if resolution_bits is None else 0.5 / (1 << int(resolution_bits))
    if abs(rate - probability) > half_width + allowance:
        return [
            f"realized flip rate {rate:.6g} over {clocks} clocks is outside "
            f"{probability:g} +/- ({half_width:.3g} binomial + "
            f"{allowance:.3g} resolution)"
        ]
    return []


def flip_rate_z(flips: int, clocks: int, probability: float) -> float:
    """Deviation of a realized flip rate from the request, in binomial sigmas."""
    sigma = math.sqrt(probability * (1.0 - probability) / clocks)
    return (flips / clocks - probability) / sigma

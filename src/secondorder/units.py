"""Unit handling for entropy-valued quantities.

Everything is computed internally in nats; conversion to the requested unit
(or to the normalized scale, where the maximum over K outcomes is 1) happens
once, at the output boundary.
"""

from __future__ import annotations

import math

LN2 = math.log(2.0)

UNITS = ("bits", "nats")


def divisor(unit: str, k: int | None = None, normalized: bool = False) -> float:
    """Nats per one output unit: log K on the normalized scale, else per bit or nat.

    Normalized values do not depend on the unit (same-base log), but an
    unknown unit is rejected on both paths; `k` is required when normalized.
    """
    if unit not in UNITS:
        raise ValueError(f"unknown unit {unit!r}; expected one of {UNITS}")
    if normalized:
        return math.log(k)
    return LN2 if unit == "bits" else 1.0

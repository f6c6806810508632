"""Pythagorean triples from odd integer pairs and their map to physical
coupling parameters (detunings, Rabi frequencies, transfer time)."""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

MIN_C = 5  # hypotenuse of the smallest triple, (3, 4, 5)


@dataclass(frozen=True)
class OddPair:
    """Pair of odd integers p > q >= 1 generating a Pythagorean triple."""

    p: int
    q: int

    def __post_init__(self):
        if self.p % 2 == 0 or self.q % 2 == 0:
            raise ValueError(f"p and q must both be odd, got ({self.p}, {self.q})")
        if not self.p > self.q >= 1:
            raise ValueError(f"require p > q >= 1, got ({self.p}, {self.q})")


@dataclass(frozen=True)
class PythTriple:
    """Signed triple (a, b, c) with a^2 + b^2 = c^2 and c > 0.

    ``triple_from_pair`` keeps a, b and c as exact Python ints, so
    c - a = q^2 and c + a = p^2 carry no rounding into the couplings.
    """

    a: int
    b: int
    c: int
    primitive: bool


@dataclass(frozen=True)
class CouplingParams:
    """Detunings, Rabi frequencies and transfer time for one triple.

    ``tau`` is the time at which the population transfer completes; it
    must be finite and positive.
    """

    delta1: float
    omega1: float
    delta2: float
    omega2: float
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be a finite positive number, got {self.tau!r}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.delta1, self.omega1, self.delta2, self.omega2)


def triple_from_pair(pair: OddPair, sign_a: int = 1, sign_b: int = 1) -> PythTriple:
    """Map an odd pair to the triple (±(p²-q²)/2, ±pq, (p²+q²)/2).

    Sign flips give genuinely different coupling families, so they are
    exposed explicitly; the default is the all-positive triple. The
    entries are exact ints; c must still fit a finite float.
    """
    if sign_a not in (1, -1) or sign_b not in (1, -1):
        raise ValueError("sign_a and sign_b must be +1 or -1")
    p, q = pair.p, pair.q
    a = sign_a * (p * p - q * q) // 2
    b = sign_b * p * q
    c = (p * p + q * q) // 2
    if c > sys.float_info.max:  # |a| and b are below c, so they fit whenever c does
        raise ValueError(f"c = (p^2 + q^2)/2 for (p, q) = ({p}, {q}) does not fit a finite float")
    return PythTriple(a=a, b=b, c=c, primitive=math.gcd(p, q) == 1)


def enumerate_primitive_pairs(limit_c: float) -> list[OddPair]:
    """All coprime odd pairs with (p²+q²)/2 <= limit_c, ordered by c then p."""
    if not math.isfinite(limit_c):
        raise ValueError(f"limit_c must be finite, got {limit_c}")
    if limit_c < MIN_C:
        raise ValueError(f"limit_c must be >= {MIN_C}, got {limit_c}")
    pairs = []
    p_max = int(math.isqrt(int(2 * limit_c)))
    for p in range(3, p_max + 2, 2):
        for q in range(1, p, 2):
            c = (p * p + q * q) / 2
            if c <= limit_c and math.gcd(p, q) == 1:
                pairs.append((c, p, OddPair(p, q)))
    pairs.sort(key=lambda t: (t[0], t[1]))
    return [pair for _, _, pair in pairs]


def coupling_params(triple: PythTriple, k: float = 0.0) -> CouplingParams:
    """Coupling parameters realizing the transfer for a given triple.

    Every finite k is served, the four values that zero delta1, omega1,
    delta2 or omega2 included. With s = hypot(1, k), (delta1, omega1) and
    (delta2, omega2) are one orthogonal map, with entries k/s and 1/s,
    applied to (c - a, b)/2 and (c + a, -b)/2. So at every k the two
    axes are orthogonal, delta1*delta2 + omega1*omega2 = (c² - a² - b²)/4
    = 0, and their norms times tau are pi*sqrt(c - a)/2 and
    pi*sqrt(c + a)/2: pi*q/2 and pi*p/2 for a > 0, swapped for a < 0,
    odd multiples of pi/2 either way. The transfer needs only these two
    facts, and neither asks any one coupling to be nonzero. The weights
    stay finite for every finite k; for a > 0, as k -> +-inf the axes
    tend to +-q(q, -p)/2 and +-p(p, q)/2.
    For an integer triple c - a and c + a are exact, each rounded once
    to a float where it meets a weight.
    """
    a, b, c = triple.a, triple.b, triple.c
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k!r}")
    if c <= 0:
        raise ValueError(f"triple must have c > 0, got c={c}")
    tau = math.pi / math.sqrt(2.0 * c)
    if tau == 0.0:  # 2c overflows, and so may the integer c + a, which no float could hold
        raise ValueError(f"c={float(c)} overflows the transfer time")
    s = math.hypot(1.0, k)
    wk, w1 = k / s, 1.0 / s
    d1 = 0.5 * (wk * (c - a) + w1 * b)
    o1 = 0.5 * (w1 * (c - a) - wk * b)
    d2 = 0.5 * (wk * (c + a) - w1 * b)
    o2 = 0.5 * (w1 * (c + a) + wk * b)
    params = CouplingParams(delta1=d1, omega1=o1, delta2=d2, omega2=o2, tau=tau)
    if not all(math.isfinite(v) for v in params.as_tuple()):
        raise ValueError(f"c={float(c)} overflows the couplings or the transfer time: {params}")
    return params


def lab_couplings(params: CouplingParams) -> tuple[float, float, float, float]:
    """Nearest-neighbour lab couplings (V12, V23, V34, V14)."""
    return (
        params.omega1 + params.omega2,
        params.delta1 - params.delta2,
        -params.omega1 + params.omega2,
        params.delta1 + params.delta2,
    )


def params_from_lab_couplings(couplings: Sequence[float], tau: float) -> CouplingParams:
    """Inverse of :func:`lab_couplings`: the parameters whose lab couplings are (V12, V23, V34, V14)."""
    v12, v23, v34, v14 = couplings
    return CouplingParams(
        delta1=(v23 + v14) / 2.0,
        omega1=(v12 - v34) / 2.0,
        delta2=(v14 - v23) / 2.0,
        omega2=(v12 + v34) / 2.0,
        tau=tau,
    )


def params_from_pair(p: int, q: int, k: float = 0.0) -> CouplingParams:
    """Convenience: odd pair -> all-positive triple -> coupling parameters."""
    return coupling_params(triple_from_pair(OddPair(p, q)), k)

"""The envelope rescan of ``bounds._golden_search`` against the oracle
(``envelope_oracle``): after every probe of 20 000 seeded random probe
sequences, ``lo`` and ``hi`` of ``bounds._concave_envelope`` over all the
probes equal the oracle's over those that found a point of the domain bit
for bit, and ``z`` is the same object.  The sequences mix probes outside the
domain (-inf, inf, None), brackets with hi = inf, probes on both chord ends,
near-duplicate offsets, tied and signed-zero values."""

import math

import numpy as np

import envelope_oracle
from cylpack import bounds

SEQUENCES = 20_000


def _offset(rng, a: float, b: float, xs: list) -> float:
    pick = rng.random()
    if pick < 0.15:
        return a
    if pick < 0.3:
        return b
    if pick < 0.5 and xs:  # a few doubles or a relative 1e-13 from a probe
        x = xs[int(rng.integers(len(xs)))]
        if rng.random() < 0.5:
            return float(np.nextafter(x, math.inf if rng.random() < 0.5 else -math.inf))
        return x + (b - a) * 1e-13 * float(rng.integers(-3, 4))
    return float(rng.uniform(a, b))


def _value(rng) -> tuple:
    pick = rng.random()
    if pick < 0.1:
        return -math.inf, math.inf, None
    if pick < 0.3:  # ties, signed zeros
        lo = float(rng.choice([0.0, -0.0, 0.5, 1.0]))
    else:
        lo = float(rng.standard_normal())
    pick = rng.random()
    hi = (math.inf if pick < 0.15 else lo if pick < 0.4
          else lo + float(rng.exponential(0.1)))
    return lo, hi, object()


def test_envelope_rescan_is_the_oracle_bit_for_bit():
    rng = np.random.default_rng(2604)
    for _ in range(SEQUENCES):
        a = float(rng.uniform(-2.0, 2.0))
        b = a + float(rng.choice([1e-12, 1e-3, 1.0, 10.0]))
        seen = {}
        for _ in range(int(rng.integers(1, 13))):
            x = _offset(rng, a, b, list(seen))
            if x in seen:  # a search stops instead of probing twice
                continue
            seen[x] = _value(rng)
            found = sorted((x, *v) for x, v in seen.items())
            lo, hi, z = bounds._concave_envelope(found, a, b)
            want = envelope_oracle._concave_envelope(
                [p for p in found if p[3] is not None], a, b)
            assert (lo.hex(), hi.hex()) == (want[0].hex(), want[1].hex()), (seen, a, b)
            assert z is want[2]

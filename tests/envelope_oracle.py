"""Reference oracle: the concave envelope of a golden-section search's probes,
recomputed from every probe.

``_concave_envelope`` below rescans the probes with a point of the domain,
sorted by x, for the chords next to each gap and past the outer probes.
Tests require ``cylpack.bounds._concave_envelope``, which
``bounds._golden_search`` takes after its probes, to return over all probes
this one's ``lo`` and ``hi`` bit for bit and the same ``z`` object.
"""

import math

import numpy as np


def _concave_envelope(found: list, a: float, b: float):
    """(lo, hi, z): the best of the probes (x, lo, hi, z), sorted by x, and
    an upper bound of the concave g on [a, b].  Between two probes g stays
    below the chords through the probe pairs next to the gap, extended into
    it; a chord takes hi at its end next to the gap and lo at its far end,
    so brackets keep the bound sound (hi = inf ends no chord).  One chord
    reaches past the outer probes to a and b, none the gap of two probes.
    """
    if not found:
        return -math.inf, math.inf, None
    xs, lo, hi, zs = zip(*found)
    k, best = len(xs), int(np.argmax(lo))
    if k < 3:
        return lo[best], math.inf, zs[best]
    top = -math.inf
    for i in range(k - 1):
        width, left, right = xs[i + 1] - xs[i], (math.inf,) * 2, (math.inf,) * 2
        if i > 0:
            rise = (hi[i] - lo[i - 1]) / (xs[i] - xs[i - 1])
            left = (hi[i], hi[i] + rise * width)
        if i + 2 < k:
            rise = (hi[i + 1] - lo[i + 2]) / (xs[i + 2] - xs[i + 1])
            right = (hi[i + 1] + rise * width, hi[i + 1])
        top = max(top, min(left[0], right[0]), min(left[1], right[1]))
        d0, d1 = left[0] - right[0], left[1] - right[1]  # nan or inf without two chords
        if d0 * d1 < 0.0:
            top = max(top, left[0] + d0 / (d0 - d1) * (left[1] - left[0]))
    for end, near, far in ((a, 0, 1), (b, k - 1, k - 2)):
        if end != xs[near]:
            rise = (hi[near] - lo[far]) / (xs[near] - xs[far])
            top = max(top, hi[near], hi[near] + rise * (end - xs[near]))
    return lo[best], top, zs[best]

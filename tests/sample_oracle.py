"""Reference oracle: one-shot polytope rejection sampling.

``sample_in_body`` below is the polytope branch of the original
implementation, kept verbatim: each round draws a proposal block and tests the
whole block against every facet at once.  Tests require the chunked,
early-stopping sampler in ``cylpack.geom`` to return the same bytes and to
leave the generator in the same state.
"""

import numpy as np

from cylpack.errors import SamplingFailure
from cylpack.geom import Polytope, bounding_box, contains_points


def sample_in_body(body: Polytope, n: int, rng: np.random.Generator,
                   min_acceptance: float = 1e-4) -> np.ndarray:
    d = body.dim
    lo, hi = bounding_box(body)
    out = np.empty((n, d))
    filled = 0
    proposed = 0
    while filled < n:
        block = max(4 * (n - filled), 1024)
        pts = rng.uniform(lo, hi, size=(block, d))
        pts = pts[contains_points(body, pts)]
        proposed += block
        take = min(len(pts), n - filled)
        out[filled:filled + take] = pts[:take]
        filled += take
        if proposed >= 50_000 and filled / proposed < min_acceptance:
            raise SamplingFailure(
                f"rejection acceptance {filled / proposed:.2e} below {min_acceptance:.0e}")
    return out

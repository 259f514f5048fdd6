"""Reference oracle: Gram-Schmidt one vector list at a time.

``orthonormalize`` is the loop before ``cylpack.geom._gram_schmidt`` ran
many lists together, kept verbatim, so that tests can require the stacked
routine to reproduce it bit for bit.
"""

import numpy as np

from cylpack.errors import RankDeficient
from cylpack.geom import PIVOT_TOL, Frame, _as_points


def orthonormalize(vectors) -> Frame:
    """Gram-Schmidt frame spanning the same subspace as the input vectors.

    The first column stays parallel to the first input vector.  Raises
    RankDeficient when a residual falls below the relative pivot threshold.
    """
    vs = _as_points(vectors)
    cols = []
    for v in vs:
        scale = np.linalg.norm(v)
        w = v.copy()
        for c in cols:
            w -= (w @ c) * c
        # second pass keeps cross products at the 1e-12 invariant
        for c in cols:
            w -= (w @ c) * c
        norm = np.linalg.norm(w)
        if scale == 0.0 or norm <= PIVOT_TOL * scale:
            raise RankDeficient("input vectors are linearly dependent")
        cols.append(w / norm)
    return Frame(np.column_stack(cols))

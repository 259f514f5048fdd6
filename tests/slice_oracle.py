"""Reference oracle: polytope slices through a Chebyshev LP and a halfspace
intersection.

``affine_slice_volume`` below is the polytope branch of the original
implementation, kept verbatim: the facet inequalities are restricted to the
flat, a Chebyshev LP certifies a strictly interior point, and qhull
intersects the halfspaces around it.  Tests compare the face-flat
construction in ``cylpack.geom`` against it.
"""

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from cylpack.geom import Frame, Polytope


def affine_slice_volume(body: Polytope, slice_frame: Frame, point) -> float:
    x0 = np.asarray(point, dtype=float)
    s = slice_frame.columns
    k = slice_frame.subspace_dim
    eq = body.equations
    a = eq[:, :-1] @ s                      # (F, k)
    b = -(eq[:, -1] + eq[:, :-1] @ x0)      # A_s t <= b
    if k == 1:
        col = a[:, 0]
        hi = np.min(b[col > 1e-14] / col[col > 1e-14]) if np.any(col > 1e-14) else np.inf
        lo = np.max(b[col < -1e-14] / col[col < -1e-14]) if np.any(col < -1e-14) else -np.inf
        if np.any((np.abs(col) <= 1e-14) & (b < 0)):
            return 0.0
        return float(max(hi - lo, 0.0)) if np.isfinite(hi - lo) else 0.0
    norms = np.linalg.norm(a, axis=1)
    keep = norms > 1e-13
    if np.any(~keep & (b < -1e-12)):
        return 0.0
    a, b, norms = a[keep], b[keep], norms[keep]
    # widest inscribed ball (Chebyshev LP) certifies a strictly interior point
    res = linprog(np.concatenate([np.zeros(k), [-1.0]]),
                  A_ub=np.column_stack([a, norms]), b_ub=b,
                  bounds=[(None, None)] * k + [(0, None)], method="highs")
    if not res.success or res.x[-1] <= 1e-10:
        return 0.0
    interior = res.x[:k]
    try:
        hs = HalfspaceIntersection(np.column_stack([a, -b]), interior)
        return float(ConvexHull(hs.intersections).volume)
    except (QhullError, ValueError):
        return 0.0

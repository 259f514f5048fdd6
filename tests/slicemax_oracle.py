"""Reference oracle: the refined grid search for translated-slice maxima.

``_grid_search`` below is the search that ``bounds.max_translate_slice`` used
for every case without a closed form, kept verbatim with its constants and
its instability exception: a coarse-to-fine grid over the shadow's bounding
box, seeded with informed base points and followed by compass moves.  Its
value is an achieved slice, so a lower estimate of the maximum; tests check
that no bracket's ``hi`` falls below it.
"""

import math

import numpy as np

from cylpack import cylinders, geom
from cylpack.bounds import SliceMax
from cylpack.errors import CylpackError

SLICE_COARSE = 7             # grid points per axis of a 1- or 2-d slice search
SLICE_LEVELS = 5             # grid refinement levels of a slice search
SLICE_INSTABILITY_BAND = 0.05  # largest relative move of the last refinement


class SliceEstimateUnstable(CylpackError):
    """Grid refinement changed a max-slice estimate beyond the stability band."""


def _grid_search(body, slice_frame, offsets_frame, base) -> SliceMax:
    """Coarse-to-fine grid over the shadow of the body on the offsets frame,
    restricted to ``base`` membership and seeded with informed base points,
    followed by compass moves per level.  Slice volumes are exact per offset;
    the refinement makes the value a lower estimate.  Raises
    SliceEstimateUnstable when the last refinement moves the maximum by more
    than SLICE_INSTABILITY_BAND.
    """
    shadow = geom.project_body(body, offsets_frame)
    lo, hi = geom.bounding_box(shadow)

    def slice_at(z: np.ndarray) -> float:
        if base is not None and not cylinders.base_membership(base, z[None, :])[0][0]:
            return 0.0
        return geom.affine_slice_volume(body, slice_frame, offsets_frame.embed(z))

    dim = offsets_frame.subspace_dim
    per_axis = SLICE_COARSE if dim <= 2 else 5
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    best_z, best_v = center.copy(), slice_at(center)
    if base is not None:
        for z in _base_offsets(base):
            v = slice_at(z)
            if v > best_v:
                best_v, best_z = v, z.copy()

    def compass(z0, v0, step, budget=60):
        # expanding/shrinking coordinate moves follow diagonal ridges that a
        # fixed axis grid crawls along
        z, v = z0.copy(), v0
        evals = 0
        while evals < budget and step > 1e-9:
            moved = False
            for axis in range(dim):
                for sgn in (1.0, -1.0):
                    cand = z.copy()
                    cand[axis] += sgn * step
                    val = slice_at(cand)
                    evals += 1
                    if val > v:
                        z, v = cand, val
                        moved = True
            step = step * 1.6 if moved else step * 0.5
        return z, v

    level_values = []
    for _ in range(SLICE_LEVELS):
        axes = [np.linspace(c - h, c + h, per_axis)
                for c, h in zip(best_z, half)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        for z in mesh:
            v = slice_at(z)
            if v > best_v:
                best_v, best_z = v, z.copy()
        step = float(np.max(half)) / max(per_axis - 1, 1)
        best_z, best_v = compass(best_z, best_v, step)
        level_values.append(best_v)
        # keep the refined window wider than one coarse cell so a peak next to
        # the best grid point stays inside the next level
        half = half * (3.0 / per_axis)
    if level_values[-1] > 0:
        move = abs(level_values[-1] - level_values[-2]) / level_values[-1]
        if move > SLICE_INSTABILITY_BAND:
            raise SliceEstimateUnstable(
                f"refinement moved the slice maximum by {move:.1%}")
    return SliceMax(lo=best_v, hi=best_v, offset=tuple(map(float, best_z)),
                    method="grid")


def _base_offsets(base: cylinders.CylinderBase) -> np.ndarray:
    """Informed slice-offset candidates inside a cylinder base."""
    if isinstance(base, cylinders.CapBase):
        ts = np.linspace(math.cos(base.delta), 1.0, 9)
        pts = ts[:, None] * base.pole
        return np.vstack([pts, -pts]) if base.antipodal else pts
    if isinstance(base, geom.Ball):
        c, r = base.center, base.radius
        norm = float(np.linalg.norm(c))
        pts = [c]
        if norm > 1e-12:
            pts.append(c * max(0.0, 1.0 - r / norm))  # base point nearest the origin
        else:
            pts.append(np.zeros_like(c))
        return np.asarray(pts)
    verts = base.vertices
    return np.vstack([np.mean(verts, axis=0)[None, :], verts])

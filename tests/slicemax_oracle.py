"""Reference oracles for translated-slice maxima.

``_grid_search`` below is the search that ``bounds.max_translate_slice`` used
for every case without a closed form, kept verbatim with its constants and
its instability exception: a coarse-to-fine grid over the shadow's bounding
box, seeded with informed base points and followed by compass moves.  Its
value is an achieved slice, so a lower estimate of the maximum; tests check
that no bracket's ``hi`` falls below it.

``_golden_search`` and ``_piecewise_max`` are the concave search's level
search and the piecewise route as they were before parabolic steps and
best-knot pieces, kept verbatim: golden-section steps only, and every piece
between consecutive knots interpolated at m + 1 Chebyshev nodes.  Tests
require the brackets of ``cylpack.bounds`` to overlap theirs.
"""

import math

import numpy as np
from numpy.polynomial import chebyshev

from envelope_oracle import _concave_envelope
from cylpack import cylinders, geom
from cylpack.bounds import GOLDEN, PIECE_MIN, SliceMax, _bracket
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
        if base is not None and not cylinders.base_membership(base, z[None, :], 1.0)[0][0]:
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


def _piecewise_max(slice_at, m, body, offsets_frame) -> SliceMax:
    knots = np.unique(body.vertices @ offsets_frame.columns[:, 0])
    first, last = knots[0], knots[-1]
    nodes = np.cos((2 * np.arange(m + 1) + 1) * math.pi / (2 * (m + 1)))
    best_t, best_v = first, -math.inf
    for a, b in zip(knots[:-1], knots[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        if half <= PIECE_MIN * (last - first):
            continue  # the neighbouring pieces' ends cover it
        vals = [slice_at([mid + half * x]) for x in nodes]
        coef = chebyshev.chebfit(nodes, vals, m)
        # every real critical point is among the real parts of the roots;
        # extra candidates inside [-1, 1] cannot raise the maximum
        roots = chebyshev.chebroots(chebyshev.chebder(coef)).real
        xs = np.concatenate([[-1.0, 1.0], np.clip(roots, -1.0, 1.0)])
        ys = chebyshev.chebval(xs, coef)
        i = int(np.argmax(ys))
        if ys[i] > best_v:
            best_v = float(ys[i])
            best_t = min(max(mid + half * float(xs[i]), a), b)
    return _bracket(slice_at, [best_t], best_v, "piecewise-polynomial")


def _golden_search(probe, a: float, b: float, tol: float, start=None):
    """(lo, hi, z) for the maximum over [a, b] of a concave g whose probe at
    x gives (lo, hi, z): lo <= g(x) <= hi and z the point achieving lo, or
    (-inf, inf, None) where it found no point of the domain.  Golden-section
    steps shrink a bracket around the larger lo of its inner probes, and
    :func:`envelope_oracle._concave_envelope` bounds g on all of [a, b]
    from all probes.  The bracket starts as ``start`` (by default [a, b])
    and widens by golden steps while one of its ends short of a or b has a
    larger lo than the inner probe next to it.  Stops at hi - lo <= tol * hi
    or once the bracket has shrunk to adjacent doubles.
    """
    if not a < b:
        return probe(a)
    seen, ends = {}, (a, b)

    def take(x):
        seen[x] = probe(x)
        return _concave_envelope(sorted((x, *v) for x, v in seen.items()
                                        if v[2] is not None), *ends)

    if start is not None:
        a, b = start
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    for x in dict.fromkeys((a, c, d, b)):  # c or d can round onto an end
        lo, hi, z = take(x)
    while lo < (1.0 - tol) * hi:
        if a > ends[0] and seen[a][0] > seen[c][0]:
            a, c, d = max(b - (b - a) / GOLDEN, ends[0]), a, c
            x = a
        elif b < ends[1] and seen[b][0] > seen[d][0]:
            c, d, b = d, b, min(a + (b - a) / GOLDEN, ends[1])
            x = b
        elif seen[c][0] >= seen[d][0]:
            b, d = d, c
            x = c = b - GOLDEN * (b - a)
        else:
            a, c = c, d
            x = d = a + GOLDEN * (b - a)
        if x in seen:
            break
        lo, hi, z = take(x)
    return lo, hi, z

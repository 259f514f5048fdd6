"""Reference oracles: the one-candidate-at-a-time greedy phase, a sampled
maximality probe, the float64 blocked filter, and the set checks.

``greedy_points`` is the original greedy phase, kept verbatim (with its own
unbounded cache and the ``_pair_ok`` it calls) so that tests can require the
blocked greedy phase in ``cylpack.cappack`` to reproduce it bit for bit.
Tests that patch ``REJECT_BUDGET`` patch it here too and clear ``_SET_CACHE``.
``streak_points`` is that phase stopped at ``cappack.SHORT_STREAK``
rejections, the prefix of every set the short path certifies, and
``full_greedy_set`` the set built from the whole greedy phase, which every
other set must equal.

``far_probes`` is the probe pass that once set the maximal flag: uniform
probes of the sphere, of which it returns those farther than the separation
from every member.  A certified maximal set must leave none.

``_filter`` is the blocked filter before its float32 screen, kept verbatim
(candidates x members products, one float64 pass), so that tests can require
the screened ``cylpack.cappack._filter`` to return the same masks.
``screened_filter`` is that screened filter before its cell screen, kept
verbatim (a float32 screen over all members, then the float64 pass), so
that tests can require ``cylpack.cappack._filter`` to return its
``(idx, peak)`` bytes on both sides of the cell-screen threshold.

``check_separation`` verifies every pair of a set through the pole
certificate, and ``widest_empty_cap`` measures a set's covering radius on a
fresh hull.
"""

import math

import numpy as np

from cylpack import cappack, geom, multiplicity
from cylpack.cappack import GEODESIC, PROJECTIVE, SeparatedSet
from cylpack.errors import DomainError

REJECT_BUDGET = 10_000       # consecutive rejections that end the greedy phase
MAXIMALITY_TRIALS = 100_000  # post-hoc probe points for the maximality flag
_BAND = 1e-9                 # filter margin, far beyond product rounding
_ROW_BLOCK = 256             # members per product in the blocked filter


def _pair_ok(candidate: np.ndarray, points: np.ndarray, cos_sep: float,
             metric: str) -> bool:
    if len(points) == 0:
        return True
    dots = points @ candidate
    level = np.abs(dots) if metric == PROJECTIVE else dots
    # distance > separation (strict)  <=>  cos(distance) < cos(separation)
    return bool(np.max(level) < cos_sep)


def _filter(cands: np.ndarray, members: np.ndarray, cos_sep: float,
            metric: str) -> tuple[np.ndarray, np.ndarray]:
    """(far, near) masks of candidates against the members.

    A candidate is far when every level lies below cos_sep - _BAND and near
    when its largest level lies within _BAND of cos_sep; one with a level at
    or above cos_sep + _BAND is neither.  Members are scanned in row blocks
    and a candidate is dropped at the first block that rules it out.
    """
    idx = np.arange(len(cands))
    peak = np.full(len(cands), -np.inf)
    for start in range(0, len(members), _ROW_BLOCK):
        level = cands[idx] @ members[start:start + _ROW_BLOCK].T
        if metric == PROJECTIVE:
            np.abs(level, out=level)
        peak = np.maximum(peak, np.max(level, axis=1))
        alive = peak < cos_sep + _BAND
        idx, peak = idx[alive], peak[alive]
        if len(idx) == 0:
            break
    far = np.zeros(len(cands), dtype=bool)
    near = np.zeros(len(cands), dtype=bool)
    far[idx[peak < cos_sep - _BAND]] = True
    near[idx[peak >= cos_sep - _BAND]] = True
    return far, near


def _column_peak(rows: np.ndarray, cols: np.ndarray, metric: str) -> np.ndarray:
    """Largest level of each column against the rows.  The rows x columns
    level block is freed on return, before the caller's next product."""
    level = rows @ cols
    if metric == PROJECTIVE:
        np.abs(level, out=level)
    return np.max(level, axis=0)


def screened_filter(cands: np.ndarray, members: np.ndarray, cos_sep: float,
                    metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the candidates with every level against the members below
    cos_sep + _BAND, and their largest levels.

    Members are scanned in row blocks of members x (d x N) candidate
    products, carrying only surviving columns on.  A float32 screen runs
    first and drops a candidate only at a level of at least cos_sep + _BAND +
    gamma, gamma = ``geom.float32_dot_margin(d)`` = 8 (d + 2) 2**-24: a
    float32 unit-vector level is within (d + 2) 2**-24 of the exact one
    (Higham 2002, section 3.1) and the float32 cut within 2 * 2**-24 of its
    float64 value, so the float64 pass, which alone decides the survivors
    and their levels, would drop it too.
    """
    gamma = geom.float32_dot_margin(cands.shape[1])
    idx = np.arange(len(cands))
    cols = cands.T.astype(np.float32, order="C")
    m32 = members.astype(np.float32)
    cut32 = np.float32(cos_sep + _BAND + gamma)
    for start in range(0, len(members), _ROW_BLOCK):
        keep = _column_peak(m32[start:start + _ROW_BLOCK], cols, metric) < cut32
        idx, cols = idx[keep], cols[:, keep]
        if len(idx) == 0:
            break
    cols = cands[idx].T.copy()
    peak = np.full(len(idx), -np.inf)
    for start in range(0, len(members), _ROW_BLOCK):
        if len(idx) == 0:
            break
        peak = np.maximum(peak, _column_peak(members[start:start + _ROW_BLOCK],
                                             cols, metric))
        keep = peak < cos_sep + _BAND
        idx, peak, cols = idx[keep], peak[keep], cols[:, keep]
    return idx, peak


_SET_CACHE: dict = {}


def greedy_points(d: int, two_delta: float, metric: str = PROJECTIVE,
                  seed: int = 0) -> np.ndarray:
    """Greedy phase of a (two_delta)-separated set on the unit sphere.

    Uniform proposals are inserted whenever they keep the strict separation;
    the phase ends after REJECT_BUDGET consecutive rejections.  Results are
    deterministic per seed and cached.
    """
    key = (d, float(two_delta), metric, seed)
    cached = _SET_CACHE.get(key)
    if cached is not None:
        return cached
    if d < 2:
        raise DomainError(f"sphere construction needs d >= 2, got {d}")
    if not 0.0 < two_delta < math.pi / 2.0:
        raise DomainError(f"separation must lie in (0, pi/2), got {two_delta}")
    if metric not in (GEODESIC, PROJECTIVE):
        raise DomainError(f"unknown metric {metric!r}")
    cos_sep = math.cos(two_delta)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x5E7)))
    points: list[np.ndarray] = []
    mat = np.empty((0, d))
    rejects = 0
    while rejects < REJECT_BUDGET:
        block = geom.uniform_sphere_points(d, 512, rng)
        for cand in block:
            if _pair_ok(cand, mat, cos_sep, metric):
                points.append(cand)
                mat = np.asarray(points)
                rejects = 0
            else:
                rejects += 1
                if rejects >= REJECT_BUDGET:
                    break
    _SET_CACHE[key] = mat
    return mat


def streak_points(d: int, two_delta: float, metric: str = PROJECTIVE,
                  seed: int = 0) -> np.ndarray:
    """``greedy_points`` with REJECT_BUDGET lowered to ``cappack.SHORT_STREAK``
    (when that is fewer) and a fresh cache."""
    global REJECT_BUDGET, _SET_CACHE
    saved = REJECT_BUDGET, _SET_CACHE
    REJECT_BUDGET, _SET_CACHE = min(cappack.SHORT_STREAK, REJECT_BUDGET), {}
    try:
        return greedy_points(d, two_delta, metric, seed)
    finally:
        REJECT_BUDGET, _SET_CACHE = saved


def full_greedy_set(d: int, two_delta: float, metric: str = PROJECTIVE,
                    seed: int = 0) -> SeparatedSet:
    """The set of the whole greedy phase: ``greedy_points``, completed by
    ``cappack._complete`` when its hull fits HULL_MAX_POINTS[d]."""
    pts = greedy_points(d, two_delta, metric, seed)
    radius, rounds = None, 0
    sides = 2 if metric == PROJECTIVE else 1
    if sides * len(pts) <= cappack.HULL_MAX_POINTS.get(d, 0):
        buf, n, radius, rounds = cappack._complete(pts.copy(), len(pts),
                                                   math.cos(two_delta), metric)
        pts = buf[:n]
    return SeparatedSet(pts, two_delta, metric, radius is not None, seed,
                        radius, rounds)


def check_separation(sep_set: SeparatedSet) -> bool:
    """Sound pairwise verification of the separation invariant: every pair
    is certified farther apart than the separation by the cap certificate's
    blocked test (``multiplicity.pole_conflicts``, half the separation per
    point)."""
    pts = sep_set.points
    half = np.full(len(pts), sep_set.separation / 2.0)
    anti = np.full(len(pts), sep_set.metric == PROJECTIVE)
    return not multiplicity.pole_conflicts(pts, np.cos(half), np.sin(half),
                                           anti).any()


def widest_empty_cap(points: np.ndarray, metric: str) -> float:
    """Angular radius of the widest empty cap, from a fresh hull."""
    cloud = np.vstack([points, -points]) if metric == PROJECTIVE else points
    levels = -geom.ConvexHull(cloud).equations[:, -1]
    return math.acos(min(1.0, levels.min()))


def far_probes(sep_set: SeparatedSet, trials: int = MAXIMALITY_TRIALS) -> np.ndarray:
    """Probes, out of ``trials`` uniform ones, farther than the separation
    from every member (the probe stream of the set's seed)."""
    pts = sep_set.points
    cos_sep = math.cos(sep_set.separation)
    probe_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(sep_set.seed, 0xF0)))
    far = []
    for start in range(0, trials, 4096):
        probes = geom.uniform_sphere_points(pts.shape[1], min(4096, trials - start),
                                            probe_rng)
        level = probes @ pts.T
        if sep_set.metric == PROJECTIVE:
            np.abs(level, out=level)
        far.append(probes[np.max(level, axis=1) < cos_sep])
    return np.vstack(far)

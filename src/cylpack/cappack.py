"""Cap-based cylinder packings of the unit ball, built from separated sets.

The construction: pick a maximal set of sphere points pairwise separated by
twice the cap radius, fix one base subspace per point containing it, and take
the cap around the point inside that subspace as the cylinder base.  Separated
caps give disjoint restricted cylinders, and maximality gives a counting lower
bound on the family size through the covering measure of doubled caps.

Two self-consistent conventions exist and both are available.  The projective
metric pairs with two-sided (antipodal) cap bases, the geodesic metric with
one-sided bases; the report records which counting bounds hold under each
reading of the cap measure.
"""

import contextlib
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import cylinders, geom, multiplicity, specfn
from .errors import DomainError

GEODESIC = "geodesic"
PROJECTIVE = "projective"

REJECT_BUDGET = 10_000       # consecutive rejections that end the greedy phase
# greedy hull points completed per dimension (about 8000 facets, 4 MB of
# qhull memory); sets over budget or in other dimensions stay uncertified
HULL_MAX_POINTS = {2: 4000, 3: 4000, 4: 1000, 5: 300}
SET_CACHE_SIZE = 8           # separated sets kept for reuse across codimensions
_BAND = 1e-9                 # filter margin, far beyond product rounding
_HULL_MARGIN = 1e-9          # facet level margin, far beyond qhull's rounding
_ROW_BLOCK = 256             # members per product in the blocked filter


@dataclass(frozen=True, eq=False)
class SeparatedSet:
    """Sphere points pairwise separated by more than ``separation``.

    ``maximal`` holds when ``covering_radius``, an upper bound on the distance
    from any sphere point to its nearest member, is at most ``separation``; an
    uncertified set has radius None.  ``completion_rounds`` counts the hull
    rounds that inserted points.
    """

    points: np.ndarray
    separation: float
    metric: str
    maximal: bool
    seed: int
    covering_radius: float | None = None
    completion_rounds: int = 0

    def __len__(self) -> int:
        return len(self.points)


def _pair_ok(candidate: np.ndarray, points: np.ndarray, cos_sep: float,
             metric: str) -> bool:
    if len(points) == 0:
        return True
    dots = points @ candidate
    level = np.abs(dots) if metric == PROJECTIVE else dots
    # distance > separation (strict)  <=>  cos(distance) < cos(separation)
    return bool(np.max(level) < cos_sep)


def _column_peak(rows: np.ndarray, cols: np.ndarray, metric: str) -> np.ndarray:
    """Largest level of each column against the rows.  The rows x columns
    level block is freed on return, before the caller's next product."""
    level = rows @ cols
    if metric == PROJECTIVE:
        np.abs(level, out=level)
    return np.max(level, axis=0)


def _filter(cands: np.ndarray, members: np.ndarray, cos_sep: float,
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


def _insert(cands: np.ndarray, buf: np.ndarray, n: int, cos_sep: float,
            metric: str, rejects: int = 0,
            budget: float = math.inf) -> tuple[np.ndarray, int, int]:
    """Insert, in order, each candidate that keeps the strict separation.

    The ``_filter`` survivors are walked in order with their peak level,
    raised at each insertion by one product of the later survivors with the
    new member.  A peak at or above cos_sep + _BAND rejects, one within _BAND
    of cos_sep takes the exact test (``_pair_ok``), and one more than _BAND
    below cos_sep, which that test would accept, is inserted without it.
    Rejections count by position in ``cands``, on top of ``rejects``, up to
    ``budget``.  Returns (buf, n, rejections since the last insertion).
    """
    alive, peak = _filter(cands, buf[:n], cos_sep, metric)
    surv = cands[alive]
    last = -1
    for j, i in enumerate(alive.tolist()):
        # the dropped run before i holds rejections only
        rejects += i - last - 1
        if rejects >= budget:
            break
        last = i
        if peak[j] < cos_sep + _BAND and (
                peak[j] < cos_sep - _BAND
                or _pair_ok(surv[j], buf[:n], cos_sep, metric)):
            if n == len(buf):
                buf = np.concatenate([buf, np.empty_like(buf)])
            buf[n] = surv[j]
            n, rejects = n + 1, 0
            level = surv[j + 1:] @ surv[j]
            if metric == PROJECTIVE:
                np.abs(level, out=level)
            np.maximum(peak[j + 1:], level, out=peak[j + 1:])
        else:
            rejects += 1
            if rejects >= budget:
                break
    else:
        rejects += len(cands) - last - 1
    return buf, n, rejects


def _complete(buf: np.ndarray, n: int, cos_sep: float,
              metric: str) -> tuple[np.ndarray, int, float | None, int]:
    """Insert empty-cap centres until no cap wider than the separation is left.

    The facets of the hull of +-P (projective) or P (geodesic) are the
    spherical Delaunay cells (Brown 1979): a facet n.x = t bounds an empty cap
    of radius arccos(t) around n, and the covering radius is the largest one.
    Normals of open facets, t < cos_sep + _HULL_MARGIN, go through ``_insert``
    widest cap first, ties by the normal, until none is open.  Returns (buf,
    n, radius arccos(min t - _HULL_MARGIN) or None for a degenerate cloud or
    a round that inserts nothing, rounds that inserted).
    """
    def cloud(pts):
        return np.vstack([pts, -pts]) if metric == PROJECTIVE else pts

    try:
        hull = geom.ConvexHull(cloud(buf[:n]), incremental=True)
    except geom.QhullError:
        return buf, n, None, 0
    rounds = 0
    with contextlib.closing(hull):
        while True:
            levels = -hull.equations[:, -1]
            is_open = levels < cos_sep + _HULL_MARGIN
            if not is_open.any():
                return buf, n, math.acos(levels.min() - _HULL_MARGIN), rounds
            normals = hull.equations[is_open, :-1]
            normals = normals / np.linalg.norm(normals, axis=1)[:, None]
            order = np.lexsort((*normals.T[::-1], levels[is_open]))
            start = n
            buf, n, _ = _insert(normals[order], buf, n, cos_sep, metric)
            if n == start:
                return buf, n, None, rounds
            rounds += 1
            hull.add_points(cloud(buf[start:n]))


def build_separated_set(d: int, two_delta: float, metric: str = PROJECTIVE,
                        seed: int = 0) -> SeparatedSet:
    """Maximal (two_delta)-separated set on the unit sphere, certified by a hull.

    Greedy phase: uniform proposals, in blocks of 512, go through ``_insert``
    until REJECT_BUDGET consecutive rejections; the points are bit-identical
    to testing each candidate one by one.  Completion (``_complete``) inserts
    the centres of empty caps wider than two_delta, read off one spherical
    hull, the same way.  The covering radius is rounded up by 1e-9 in cosine,
    far beyond qhull's rounding of a facet offset.  Only sets of at most
    HULL_MAX_POINTS[d] greedy hull points (twice the members when projective)
    are completed; the others stay uncertified.  The last SET_CACHE_SIZE sets
    are cached (the construction is pure), since codimensions share a set.
    """
    return _cached_set(d, float(two_delta), metric, seed)


@functools.lru_cache(maxsize=SET_CACHE_SIZE)
def _cached_set(d: int, two_delta: float, metric: str, seed: int) -> SeparatedSet:
    if d < 2:
        raise DomainError(f"sphere construction needs d >= 2, got {d}")
    if not 0.0 < two_delta < math.pi / 2.0:
        raise DomainError(f"separation must lie in (0, pi/2), got {two_delta}")
    if metric not in (GEODESIC, PROJECTIVE):
        raise DomainError(f"unknown metric {metric!r}")
    cos_sep = math.cos(two_delta)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x5E7)))
    buf = np.empty((64, d))
    n = 0
    rejects = 0
    while rejects < REJECT_BUDGET:
        block = geom.uniform_sphere_points(d, 512, rng)
        buf, n, rejects = _insert(block, buf, n, cos_sep, metric, rejects,
                                  REJECT_BUDGET)
    radius, rounds = None, 0
    if (2 * n if metric == PROJECTIVE else n) <= HULL_MAX_POINTS.get(d, 0):
        buf, n, radius, rounds = _complete(buf, n, cos_sep, metric)
    return SeparatedSet(points=geom._freeze(buf[:n]), separation=two_delta,
                        metric=metric, maximal=radius is not None, seed=seed,
                        covering_radius=radius, completion_rounds=rounds)


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


@dataclass(frozen=True, eq=False)
class CapCylinderFamily:
    """One cap cylinder per separated point, each with its fixed base subspace."""

    delta: float
    k: int
    metric: str
    antipodal: bool
    cylinders: tuple
    points: np.ndarray
    seed: int

    def __len__(self) -> int:
        return len(self.cylinders)

    def sum_crv_closed_form(self) -> float:
        """N * (base volume) / omega_{d-k}; exact for cap bases."""
        d = self.points.shape[1]
        m = d - self.k
        sides = 2.0 if self.antipodal else 1.0
        return len(self) * sides * specfn.cap_volume(m, self.delta) \
            / specfn.unit_ball_volume(m)


def build_cap_family(sep_set: SeparatedSet, delta: float, k: int,
                     seed: int = 0) -> CapCylinderFamily:
    """Cap cylinders over a separated set.

    Each point gets a (d-k)-dimensional base subspace containing it as the
    first frame column, completed by deterministically seeded directions, and
    a cap base of radius delta around it.  The directions of all points are
    drawn at once and orthonormalized together (``geom.orthonormalize_stack``),
    which gives the same bytes as one draw and one Gram-Schmidt per point.
    ``delta`` must be half the set's separation.  Antipodal bases pair with
    the projective metric, one-sided bases with the geodesic metric, keeping
    the family a packing in both modes.
    """
    d = sep_set.points.shape[1]
    if abs(delta - sep_set.separation / 2.0) > 1e-12:
        raise DomainError("cap radius must be half the separation")
    if not 0.0 < delta < math.pi / 2.0:
        raise DomainError(f"cap radius must lie in (0, pi/2), got {delta}")
    if not 1 <= k <= d - 1:
        raise DomainError(f"codimension must lie in 1..{d - 1}, got {k}")
    if k > d - 2:
        warnings.warn("k = d-1 cap cylinders have one-dimensional bases; "
                      "the construction degenerates to antipodal plank pairs",
                      stacklevel=2)
    m = d - k
    antipodal = sep_set.metric == PROJECTIVE
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x5EED)))
    pts = sep_set.points
    if m == 1:
        frames = [geom.Frame(x[:, None]) for x in pts]
    else:
        # one draw is the same stream as one (d, m - 1) draw per point in turn
        extra = rng.standard_normal((len(pts), d, m - 1))
        frames = geom.orthonormalize_stack(
            np.concatenate([pts[:, None, :], extra.transpose(0, 2, 1)], axis=1))
    cyls = []
    for x, frame in zip(pts, frames):
        pole = frame.coords(x)  # = e_1 in frame coordinates by construction
        base = cylinders.CapBase(pole, delta, antipodal=antipodal)
        cyls.append(cylinders.Cylinder(frame, base))
    return CapCylinderFamily(
        delta=delta, k=k, metric=sep_set.metric, antipodal=antipodal,
        cylinders=tuple(cyls), points=sep_set.points, seed=seed)


@dataclass(frozen=True)
class CapPackingReport:
    """Every term of the counting chain for a constructed cap family.

    No value is asserted for the unspecified absolute constant in the closed
    threshold; ``empirical_constant_ratio`` records the realized ratio instead.
    """

    d: int
    k: int
    delta: float
    metric: str
    antipodal_bases: bool
    n_cylinders: int
    separated_set_maximal: bool
    covering_radius: float | None
    completion_rounds: int
    sum_crv: float
    count_lower_bound_antipodal: float
    count_lower_bound_onesided: float
    count_bound_holds_antipodal: bool
    count_bound_holds_onesided: bool
    chain_rhs: float
    chain_holds: bool
    threshold_without_constant: float
    empirical_constant_ratio: float
    seed: int
    packing: multiplicity.MultiplicityReport | None = None

    def to_json(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "packing"}
        out["packing"] = self.packing.to_json() if self.packing else None
        return out


def chain_lower_bound(d: int, k: int, delta: float) -> float:
    """Computable middle term of the counting chain.

    (omega_{d-k-1}/omega_{d-k}) * (omega_{d-2}/omega_{d-3})
        * I_{d-k}(delta) / I_{d-2}(2 delta),
    where I_n is the cos-power integral over the top window.  The value is the
    guaranteed lower bound for the crv sum of a maximal-cap construction in
    either self-consistent convention.
    """
    num = specfn.unit_ball_volume(d - k - 1) / specfn.unit_ball_volume(d - k)
    num *= specfn.unit_ball_volume(d - 2) / specfn.unit_ball_volume(d - 3)
    return num * specfn.cos_power_integral(d - k, delta) \
        / specfn.cos_power_integral(d - 2, 2.0 * delta)


def closed_threshold(d: int, k: int, delta: float) -> float:
    """sqrt(d) * sin(delta)^(2-k) / (2^(d-2) * (d-k)^(3/2)), constant omitted."""
    return math.sqrt(d) * math.sin(delta) ** (2 - k) \
        / (2.0 ** (d - 2) * (d - k) ** 1.5)


def cap_packing_report(d: int, k: int, delta: float, seed: int = 0,
                       metric: str = PROJECTIVE,
                       packing_samples: int = 0) -> CapPackingReport:
    """Build the cap family and evaluate the full inequality chain.

    With ``packing_samples`` > 0 the family is also checked as a 1-fold
    packing (``multiplicity.decide``): certified by pole separation, or
    sampled with that many points when the certificate leaves it open.
    """
    if d <= 3:
        raise DomainError(f"the construction is stated for d > 3, got {d}")
    if not 0.0 < delta < math.pi / 4.0:
        raise DomainError(f"cap radius must lie in (0, pi/4), got {delta}")
    if not 1 <= k < d:
        raise DomainError(f"codimension must lie in 1..{d - 1}, got {k}")
    sep_set = build_separated_set(d, 2.0 * delta, metric=metric, seed=seed)
    family = build_cap_family(sep_set, delta, k, seed=seed)
    n = len(family)
    sum_crv = family.sum_crv_closed_form()
    sigma_one = specfn.spherical_cap_fraction(d, 2.0 * delta)
    sigma_two = 2.0 * sigma_one
    bound_anti = 1.0 / sigma_two
    bound_one = 1.0 / sigma_one
    chain = chain_lower_bound(d, k, delta)
    threshold = closed_threshold(d, k, delta)
    packing_report = None
    if packing_samples > 0:
        ball = geom.Ball(np.zeros(d), 1.0)
        packing_report = multiplicity.decide(
            ball, family.cylinders, 1, packing_samples, seed).report
    return CapPackingReport(
        d=d, k=k, delta=delta, metric=metric,
        antipodal_bases=family.antipodal,
        n_cylinders=n,
        separated_set_maximal=sep_set.maximal,
        covering_radius=sep_set.covering_radius,
        completion_rounds=sep_set.completion_rounds,
        sum_crv=sum_crv,
        count_lower_bound_antipodal=bound_anti,
        count_lower_bound_onesided=bound_one,
        count_bound_holds_antipodal=n >= bound_anti,
        count_bound_holds_onesided=n >= bound_one,
        chain_rhs=chain,
        chain_holds=sum_crv >= chain,
        threshold_without_constant=threshold,
        empirical_constant_ratio=sum_crv / threshold,
        seed=seed,
        packing=packing_report)

"""Cap-based cylinder packings of the unit ball, built from separated sets.

The construction: pick a maximal set of sphere points pairwise separated by
twice the cap radius, fix one base subspace per point containing it, and take
the cap around the point inside that subspace as the cylinder base.  Separated
caps give disjoint restricted cylinders, and maximality gives a counting lower
bound on the family size through the covering measure of doubled caps.
One check of the construction's domain serves ``build_cap_packing`` and
``cap_packing_report``; a family is fixed by its separated set and k
(``build_cap_family``), and its crv sum is N times one incomplete beta value
(``cap_packing_report``).  The report reads the family as frame and pole
stacks and builds cylinders only to sample.

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
SHORT_STREAK = 512           # ... first, in dimensions with a hull budget
# greedy hull points completed per dimension (a completed 5-d hull of 373
# points raised peak RSS by 8 MB); sets over budget at both greedy stops, or
# in other dimensions, stay uncertified
HULL_MAX_POINTS = {2: 4000, 3: 4000, 4: 1000, 5: 300}
SET_CACHE_SIZE = 8           # separated sets kept for reuse across codimensions
_BAND = 1e-9                 # filter margin, far beyond product rounding
_HULL_MARGIN = 1e-9          # facet level margin, far beyond qhull's rounding
_ROW_BLOCK = 256             # members per product in the blocked filter
# candidates per product: one draw.  256 x 512 x d products with d <= 8 stay
# below OpenBLAS's 2**20 threading size when the candidate columns are
# C-ordered (surviving columns are carried on with ``compress``, since a
# boolean column index gives F order, which threads from about 342
# columns); a threaded product with K = d can wait about 16 ms for its
# second thread on a shared 2-vCPU host
_COL_BLOCK = 512
_CELL_MEMBERS = 512          # members and candidates from which the filter
_CELL_CANDIDATES = 2048      # screens each candidate's own cell first
_CELL_BITS = 5               # coordinate signs that name a cell
_BATCH_INSERTIONS = 64       # insertions a greedy batch of draws expects


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

    From _CELL_MEMBERS members and _CELL_CANDIDATES candidates on, a cell
    screen (``_cell_screen``) runs before both: each candidate against the
    members of its own cell only, with the same float32 cut, so it too drops
    only what the float64 pass would drop.  The candidates it keeps take both
    passes unchanged; the cells move speed, never bytes.  The float32 screen
    takes at most _COL_BLOCK candidates per product, and the float64 pass
    runs as before over all the candidates the screens keep, so that its
    levels keep their bytes.
    """
    gamma = geom.float32_dot_margin(cands.shape[1])
    cut32 = np.float32(cos_sep + _BAND + gamma)
    idx, screened = np.arange(len(cands)), cands
    if len(members) >= _CELL_MEMBERS and len(cands) >= _CELL_CANDIDATES:
        idx = _cell_screen(cands, members, cut32, metric)
        screened = cands[idx]
    cols = screened.T.astype(np.float32, order="C")
    m32 = members.astype(np.float32)
    if len(idx) <= _COL_BLOCK:
        idx = _screen32(cols, idx, m32, cut32, metric)
    else:
        idx = np.concatenate([_screen32(cols[:, start:start + _COL_BLOCK],
                                        idx[start:start + _COL_BLOCK], m32, cut32,
                                        metric)
                              for start in range(0, len(idx), _COL_BLOCK)])
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


def _screen32(cols: np.ndarray, idx: np.ndarray, m32: np.ndarray,
              cut32: np.float32, metric: str) -> np.ndarray:
    """The indices, one per float32 candidate column, of the columns whose
    levels against the float32 members, in row blocks, stay below cut32."""
    # OpenBLAS's float32 kernels can set the invalid flag from lanes they do
    # not return, so finite inputs would warn spuriously
    with np.errstate(invalid="ignore"):
        for start in range(0, len(m32), _ROW_BLOCK):
            keep = _column_peak(m32[start:start + _ROW_BLOCK], cols, metric) < cut32
            idx, cols = idx[keep], cols.compress(keep, axis=1)
            if len(idx) == 0:
                break
    return idx


def _cells(rows: np.ndarray, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """(order, bounds) of the columns of (d, N) coordinates by cell: cell c
    holds columns order[bounds[c]:bounds[c + 1]].  A column's cell is the
    signs of its coordinates x_0 .. x_4, or when projective those of x_1 ..
    x_5 relative to the sign of x_0, so that +-x share a cell.  Where these
    fixed planes cut moves the screen's speed, never the filter's bytes."""
    lead = metric == PROJECTIVE
    flip = np.signbit(rows[0]) if lead else False
    keys = np.zeros(rows.shape[1], np.uint8)
    for bit, row in enumerate(rows[lead:lead + _CELL_BITS]):
        keys |= (np.signbit(row) ^ flip).view(np.uint8) << bit
    bounds = np.zeros((1 << _CELL_BITS) + 1, np.intp)
    np.cumsum(np.bincount(keys, minlength=1 << _CELL_BITS), out=bounds[1:])
    return np.argsort(keys, kind="stable"), bounds


def _cell_screen(cands: np.ndarray, members: np.ndarray, cut32: np.float32,
                 metric: str) -> np.ndarray:
    """Indices, in increasing order, of the candidates whose float32 levels
    against the members of their own cell all lie below cut32, in products
    of at most _ROW_BLOCK members and _COL_BLOCK candidates."""
    morder, mbounds = _cells(members.T, metric)
    order, bounds = _cells(cands.T, metric)
    m32 = members[morder].astype(np.float32)
    cols = cands[order].T.astype(np.float32, order="C")
    peak = np.full(len(cands), -np.inf, np.float32)
    bounds, mbounds = bounds.tolist(), mbounds.tolist()
    with np.errstate(invalid="ignore"):  # as in _screen32
        for cell in range(1 << _CELL_BITS):
            rows = m32[mbounds[cell]:mbounds[cell + 1]]
            if len(rows) == 0:
                continue
            for start in range(bounds[cell], bounds[cell + 1], _COL_BLOCK):
                span = slice(start, min(start + _COL_BLOCK, bounds[cell + 1]))
                for row in range(0, len(rows), _ROW_BLOCK):
                    np.maximum(peak[span], _column_peak(rows[row:row + _ROW_BLOCK],
                                                        cols[:, span], metric),
                               out=peak[span])
    return np.sort(order[peak < cut32])


def _insert(cands: np.ndarray, buf: np.ndarray, n: int, cos_sep: float,
            metric: str, rejects: int = 0,
            budget: float = math.inf) -> tuple[np.ndarray, int, int, int]:
    """Insert, in order, each candidate that keeps the strict separation.

    The ``_filter`` survivors are walked in order with their peak level,
    raised at each insertion by one product of the later survivors with the
    new member.  A peak at or above cos_sep + _BAND rejects, one within _BAND
    of cos_sep takes the exact test (``_pair_ok``), and one more than _BAND
    below cos_sep, which that test would accept, is inserted without it.
    Rejections count by position in ``cands``, on top of ``rejects``, up to
    ``budget``.  Returns (buf, n, rejections since the last insertion,
    candidates read); a call on the unread rest goes on exactly.
    """
    alive, peak = _filter(cands, buf[:n], cos_sep, metric)
    surv = cands[alive]
    last = -1
    read = len(cands)
    for j, i in enumerate(alive.tolist()):
        # the dropped run before i holds rejections only
        rejects += i - last - 1
        if rejects >= budget:
            read = i
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
                read = i + 1
                break
    else:
        rejects += len(cands) - last - 1
    return buf, n, rejects, read


def _complete(buf: np.ndarray, n: int, cos_sep: float,
              metric: str) -> tuple[np.ndarray, int, float | None, int]:
    """Insert empty-cap centres until no cap wider than the separation is left.

    The facets of the hull of +-P (projective) or P (geodesic) are the
    spherical Delaunay cells (Brown 1979): a facet n.x = t bounds an empty cap
    of radius arccos(t) around n, and the covering radius is the largest one.
    Normals of open facets, t < cos_sep + _HULL_MARGIN, go through ``_insert``
    widest cap first, ties by the normal, until none is open.  Returns (buf,
    n, radius arccos(min t - _HULL_MARGIN) or None for a degenerate cloud or
    a round that inserts nothing, rounds that inserted).  The hull is not
    capped: a set that fits the budget when completion starts may end past
    it.
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
            buf, n, _, _ = _insert(normals[order], buf, n, cos_sep, metric)
            if n == start:
                return buf, n, None, rounds
            rounds += 1
            hull.add_points(cloud(buf[start:n]))


def _greedy(d: int, cos_sep: float, metric: str, seed: int,
            budgets: tuple[int, ...]):
    """Yield (buf, n) of the greedy phase over the seed's proposal stream
    where it first reaches each of ``budgets`` consecutive rejections, in
    increasing order; the phase goes on from the exact candidate it stopped
    at, so every stop is a prefix of the last.  Rows of ``buf`` past n may be
    overwritten between stops.

    Proposals come in draws of 512.  Once the set has _CELL_MEMBERS members,
    ``_insert`` takes a batch of draws, as many as held _BATCH_INSERTIONS
    insertions at the last call's rate but never one past the draw that
    holds the stop, so the stream, the stops and the number of draws are
    those of one draw per call.  The cell screen reads the whole batch, while
    the float64 pass and the walk see about as few candidates as with one
    draw, so no product grows to a size BLAS would thread."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x5E7)))
    buf = np.empty((64, d))
    n = 0
    rejects = 0
    block = np.empty((0, d))
    draws = 1
    for budget in budgets:
        while rejects < budget:
            if not len(block):
                # a proposal adds at most one rejection, so the stop lies
                # at least budget - rejects proposals ahead
                draws = min(draws, -(-(budget - rejects) // 512))
                block = np.concatenate([geom.uniform_sphere_points(d, 512, rng)
                                        for _ in range(draws)])
            start = n
            buf, n, rejects, read = _insert(block, buf, n, cos_sep, metric,
                                            rejects, budget)
            block = block[read:]
            if n >= _CELL_MEMBERS:
                draws = max(1, _BATCH_INSERTIONS * read // (512 * max(n - start, 1)))
        yield buf, n


def build_separated_set(d: int, two_delta: float, metric: str = PROJECTIVE,
                        seed: int = 0) -> SeparatedSet:
    """Maximal (two_delta)-separated set on the unit sphere, certified by a hull.

    Greedy phase: uniform proposals, in draws of 512, go through ``_insert``
    until a run of consecutive rejections; the points are bit-identical to
    testing each candidate one by one.  From _CELL_MEMBERS members on, where
    ``_filter`` screens cells, one call takes a batch of draws (``_greedy``),
    never one past the draw that holds the stop, so the proposal stream and
    the number of draws are those of one draw per call.  Completion
    (``_complete``) inserts the centres of empty caps wider than two_delta,
    read off one spherical hull, the same way; the covering radius is
    rounded up by 1e-9 in cosine, far beyond qhull's rounding of a facet
    offset.

    Maximality, not the greedy run, carries the counting bound, so where d
    has a hull budget the greedy phase first stops at SHORT_STREAK
    rejections, and a set of at most HULL_MAX_POINTS[d] hull points (twice
    the members when projective) is completed there; its hull may end past
    the budget.  If that set is over budget, its hull degenerate or a round
    inserts nothing, the greedy phase goes on from where it stopped to
    REJECT_BUDGET rejections and the set within budget is completed again, so
    it gets the bytes of the whole greedy phase; larger sets, and every d
    without a budget, stay uncertified.  The last SET_CACHE_SIZE sets are
    cached (the construction is pure), since codimensions share a set.
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
    members = HULL_MAX_POINTS.get(d, 0) // (2 if metric == PROJECTIVE else 1)
    budgets = ((min(SHORT_STREAK, REJECT_BUDGET), REJECT_BUDGET) if members
               else (REJECT_BUDGET,))
    for buf, n in _greedy(d, cos_sep, metric, seed, budgets):
        radius, rounds = None, 0
        if n <= members:
            buf, n, radius, rounds = _complete(buf, n, cos_sep, metric)
            if radius is not None:
                break
    return SeparatedSet(points=geom._freeze(buf[:n]), separation=two_delta,
                        metric=metric, maximal=radius is not None, seed=seed,
                        covering_radius=radius, completion_rounds=rounds)


def build_cap_family(sep_set: SeparatedSet, k: int) -> tuple[cylinders.Cylinder, ...]:
    """Cap cylinders over a separated set, one per point, in the set's order.

    The set and k fix the family.  Each point gets a (d-k)-dimensional base
    subspace containing it as the first frame column, completed by directions
    drawn with the set's seed, and a cap base of radius delta = separation / 2
    around it.  It is built as arrays (``_family_stacks``) and wrapped, with
    the bytes of one Frame and one CapBase per point.  Antipodal bases pair
    with the projective metric, one-sided bases with the geodesic metric,
    keeping the family a packing in both modes.
    """
    return _cap_cylinders(*_family_stacks(sep_set, k))


def _family_stacks(sep_set: SeparatedSet, k: int):
    """(frames, poles, delta, antipodal) of ``build_cap_family``: one draw,
    Gram-Schmidt, Frame check, pole product and CapBase check for all points,
    giving the (N, d, m) frame stack and the (N, m) pole stack."""
    d = sep_set.points.shape[1]
    if not 1 <= k <= d - 1:
        raise DomainError(f"codimension must lie in 1..{d - 1}, got {k}")
    if k > d - 2:
        warnings.warn("k = d-1 cap cylinders have one-dimensional bases; "
                      "the construction degenerates to antipodal plank pairs",
                      stacklevel=3)
    m = d - k
    delta = sep_set.separation / 2.0
    pts = sep_set.points
    if m == 1:
        stack = pts[:, :, None]
    else:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(sep_set.seed, 0x5EED)))
        # one draw is the same stream as one (d, m - 1) draw per point in turn
        extra = rng.standard_normal((len(pts), d, m - 1))
        stack = geom._gram_schmidt(
            np.concatenate([pts[:, None, :], extra.transpose(0, 2, 1)], axis=1))
    cols = geom._checked_frames(stack)
    # each pole x @ F_x is e_1 in frame coordinates by construction
    poles = cylinders._checked_caps(np.matmul(pts[:, None, :], cols)[:, 0, :], delta)
    return cols, poles, delta, sep_set.metric == PROJECTIVE


def _cap_cylinders(frames, poles, delta: float,
                   antipodal: bool) -> tuple[cylinders.Cylinder, ...]:
    """One Cylinder per row of checked frame and pole stacks."""
    return tuple(cylinders.Cylinder(geom._unchecked(geom.Frame, columns=c),
                                    geom._unchecked(cylinders.CapBase, pole=p,
                                                    delta=delta, antipodal=antipodal))
                 for c, p in zip(frames, poles))


def build_cap_packing(d: int, k: int, delta: float, seed: int = 0,
                      metric: str = PROJECTIVE,
                      ) -> tuple[SeparatedSet, tuple[cylinders.Cylinder, ...]]:
    """(separated set, cap cylinders) of the construction, which is stated
    for d > 3, delta in (0, pi/4) and 1 <= k < d; else ``DomainError``."""
    sep_set = _packing_set(d, k, delta, seed, metric)
    return sep_set, build_cap_family(sep_set, k)


def _packing_set(d: int, k: int, delta: float, seed: int, metric: str) -> SeparatedSet:
    """The separated set of the construction, after the one check of its
    domain."""
    if d <= 3:
        raise DomainError(f"the construction is stated for d > 3, got {d}")
    if not 0.0 < delta < math.pi / 4.0:
        raise DomainError(f"cap radius must lie in (0, pi/4), got {delta}")
    if not 1 <= k < d:
        raise DomainError(f"codimension must lie in 1..{d - 1}, got {k}")
    return build_separated_set(d, 2.0 * delta, metric=metric, seed=seed)


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
    """Build the cap packing and evaluate the full inequality chain.

    A cap fills 1/2 I_{sin^2 delta}((m+1)/2, 1/2) of its base ball B^m,
    m = d - k (DLMF 8.17), the cap fraction of S^(m+1), so the crv sum is
    N * sides * ``spherical_cap_fraction(m + 2, delta)``.  With
    ``packing_samples`` > 0, ``multiplicity.judge`` checks the family as a
    1-fold packing: certified by pole separation straight from the frame and
    pole stacks, or, when the certificate leaves it open, built as cylinders
    and sampled with that many points.
    """
    sep_set = _packing_set(d, k, delta, seed, metric)
    frames, poles, cap_delta, antipodal = _family_stacks(sep_set, k)
    n = len(frames)
    sum_crv = n * (2.0 if antipodal else 1.0) \
        * specfn.spherical_cap_fraction(d - k + 2, delta)
    sigma_one = specfn.spherical_cap_fraction(d, 2.0 * delta)
    sigma_two = 2.0 * sigma_one
    bound_anti = 1.0 / sigma_two
    bound_one = 1.0 / sigma_one
    chain = chain_lower_bound(d, k, delta)
    threshold = closed_threshold(d, k, delta)
    packing_report = None
    if packing_samples > 0:
        multiplicity.check_samples(packing_samples)
        ball = geom.Ball(np.zeros(d), 1.0)
        certified = multiplicity.pole_certificate(
            ball, frames, poles, np.full(n, math.cos(cap_delta)),
            np.full(n, antipodal),
            lambda: _cap_cylinders(frames[:1], poles[:1], cap_delta, antipodal)[0])
        packing_report = multiplicity.judge(
            certified, 1, sample=lambda: multiplicity.estimate_multiplicity(
                ball, _cap_cylinders(frames, poles, cap_delta, antipodal),
                packing_samples, seed)).report
    return CapPackingReport(
        d=d, k=k, delta=delta, metric=metric,
        antipodal_bases=antipodal,
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

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
MAXIMALITY_TRIALS = 100_000  # post-hoc probe points for the maximality flag
SET_CACHE_SIZE = 8           # separated sets kept for reuse across codimensions
_BAND = 1e-9                 # filter margin, far beyond product rounding
_ROW_BLOCK = 256             # members per product in the blocked filter


@dataclass(frozen=True, eq=False)
class SeparatedSet:
    """Sphere points pairwise separated by more than ``separation``.

    ``maximal`` is asserted by a probabilistic post-check: after saturation,
    every probe point of the sphere lay within ``separation`` of some member.
    """

    points: np.ndarray
    separation: float
    metric: str
    maximal: bool
    seed: int

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
    """(far, near) masks of candidates against the members.

    A candidate is far when every level lies below cos_sep - _BAND and near
    when its largest level lies within _BAND of cos_sep; one with a level at
    or above cos_sep + _BAND is neither.  Every level of a far candidate lies
    below cos_sep by more than any rounding difference, so the exact test
    (``_pair_ok``) against these members would accept it and the greedy phase
    skips that test; a near one takes it.  Members are scanned in row blocks of
    members x candidates products, and a candidate is dropped at the first
    block that rules it out.  The candidates enter each product as one
    C-contiguous (d x N) array, and after each block only the surviving
    columns are carried on.

    A float32 screen runs first and drops a candidate only at a level of at
    least cos_sep + _BAND + gamma, with gamma = ``geom.float32_dot_margin(d)``
    = 8 (d + 2) 2**-24.  For unit vectors a float32 level is within
    (d + 2) 2**-24 of the exact one (Higham 2002, section 3.1) and the float32
    cut within 2 * 2**-24 of its float64 value, so the exact level, and the
    float64 one, of a dropped candidate lies above cos_sep + _BAND: the float64
    pass would drop it too.  The survivors go through that float64 pass, which
    alone decides the masks, so they are those of the float64 pass alone.
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
    far = np.zeros(len(cands), dtype=bool)
    near = np.zeros(len(cands), dtype=bool)
    far[idx[peak < cos_sep - _BAND]] = True
    near[idx[peak >= cos_sep - _BAND]] = True
    return far, near


def _push(buf: np.ndarray, n: int, point: np.ndarray) -> tuple[np.ndarray, int]:
    """Store point as row n, doubling the buffer when it is full."""
    if n == len(buf):
        buf = np.concatenate([buf, np.empty_like(buf)])
    buf[n] = point
    return buf, n + 1


def build_separated_set(d: int, two_delta: float, metric: str = PROJECTIVE,
                        seed: int = 0) -> SeparatedSet:
    """Greedy maximal (two_delta)-separated set on the unit sphere.

    Uniform proposals are inserted whenever they keep the strict separation;
    the greedy phase ends after REJECT_BUDGET consecutive rejections.  Probe
    passes then insert any of MAXIMALITY_TRIALS quasi-uniform points found
    farther than two_delta from every member; the maximal flag records whether
    a full probe pass finished with no insertion.  Results are deterministic
    per seed, and the last SET_CACHE_SIZE sets are cached (the construction
    is pure), since different codimensions reuse the same set.

    Each block of proposals or probes is first filtered against the members
    by blocked matrix products (``_filter``).  A float32 screen drops a
    candidate only at a level of at least cos(two_delta) + 1e-9 + gamma, with
    gamma = 8 (d + 2) 2**-24, eight times the float32 error of a unit-vector
    dot product; a float64 pass over the survivors drops one only at a level
    of at least cos(two_delta) + 1e-9.  Both margins lie far beyond any
    rounding difference between products, so the exact per-candidate test
    (``_pair_ok`` against all current members) would reject every dropped
    candidate too.

    A greedy block's survivors are then walked in order, and each insertion
    takes one product of the later survivors with the new member, raising
    their running peak level: a peak at or above cos(two_delta) + 1e-9
    rejects a candidate, and one within 1e-9 of the threshold, or a filter
    level within 1e-9 of it, sends it to the exact test.  Every other
    survivor lies more than 1e-9 below the threshold against every member,
    so the exact test would accept it, and it is inserted without one.
    Rejections are counted by stream position, as one by one.  Probe-phase
    insertions all take the exact test, and a probe chunk holding a
    candidate within 1e-9 of the threshold repeats the probe filter as one
    full product.  Random draws are unchanged, so the points and the maximal
    flag are bit-identical to testing every candidate one by one.
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
        far, near = _filter(block, buf[:n], cos_sep, metric)
        alive = np.flatnonzero(far | near)
        surv = block[alive]
        exact = near[alive]
        # largest level of each survivor against the members inserted so far
        # in this block, raised at each insertion
        peak = np.full(len(alive), -np.inf)
        last = -1
        for j, i in enumerate(alive.tolist()):
            # the dropped run before i holds rejections only
            rejects += i - last - 1
            if rejects >= REJECT_BUDGET:
                break
            last = i
            if peak[j] < cos_sep + _BAND and (
                    not exact[j] and peak[j] < cos_sep - _BAND
                    or _pair_ok(surv[j], buf[:n], cos_sep, metric)):
                buf, n = _push(buf, n, surv[j])
                rejects = 0
                level = surv[j + 1:] @ surv[j]
                if metric == PROJECTIVE:
                    np.abs(level, out=level)
                np.maximum(peak[j + 1:], level, out=peak[j + 1:])
            else:
                rejects += 1
                if rejects >= REJECT_BUDGET:
                    break
        else:
            rejects += len(block) - last - 1
    probe_rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xF0)))
    maximal = True
    for _ in range(12):  # each pass rescans a fresh probe set after insertions
        inserted = False
        remaining = MAXIMALITY_TRIALS
        while remaining > 0:
            chunk = min(remaining, 4096)
            probes = geom.uniform_sphere_points(d, chunk, probe_rng)
            mat = buf[:n]
            far, near = _filter(probes, mat, cos_sep, metric)
            if near.any():
                # reproduce the full-product filter bit for bit
                level = probes @ mat.T
                if metric == PROJECTIVE:
                    np.abs(level, out=level)
                far = np.max(level, axis=1) < cos_sep
            for idx in np.flatnonzero(far):
                if _pair_ok(probes[idx], buf[:n], cos_sep, metric):
                    buf, n = _push(buf, n, probes[idx])
                    inserted = True
            remaining -= chunk
        if not inserted:
            break
    else:
        maximal = False
    return SeparatedSet(points=geom._freeze(buf[:n]), separation=two_delta,
                        metric=metric, maximal=maximal, seed=seed)


def check_separation(sep_set: SeparatedSet, slack: float = 1e-12) -> bool:
    """Exact pairwise-dot verification of the separation invariant."""
    pts = sep_set.points
    dots = pts @ pts.T
    level = np.abs(dots) if sep_set.metric == PROJECTIVE else dots
    np.fill_diagonal(level, -2.0)
    # distance > separation - slack
    return bool(np.max(level) <= math.cos(sep_set.separation - slack))


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

    With ``packing_samples`` > 0 the family is also run through the
    multiplicity sampler (strict interior counts must stay at 1).
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
    sigma_one = specfn.spherical_cap_fraction(d, 2.0 * delta, antipodal=False)
    sigma_two = 2.0 * sigma_one
    bound_anti = 1.0 / sigma_two
    bound_one = 1.0 / sigma_one
    chain = chain_lower_bound(d, k, delta)
    threshold = closed_threshold(d, k, delta)
    packing_report = None
    if packing_samples > 0:
        ball = geom.Ball(np.zeros(d), 1.0)
        packing_report = multiplicity.estimate_multiplicity(
            ball, family.cylinders, packing_samples, seed)
    return CapPackingReport(
        d=d, k=k, delta=delta, metric=metric,
        antipodal_bases=family.antipodal,
        n_cylinders=n,
        separated_set_maximal=sep_set.maximal,
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

"""r-fold packing and covering verification by multiplicity sampling.

Verification is probabilistic: n uniform samples of the body are tested
once against every cylinder's base, which gives both readings: strict-interior
membership drives packing checks and closed membership covering checks.
Reports carry witnesses and the seed, and identical seeds reproduce reports
bit for bit.  Sampling is split into fixed-size blocks with per-block derived
seeds and a fixed reduction order, so block-parallel execution cannot change
the result.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import cylinders, geom
from .errors import DimensionMismatch, DomainError

BLOCK = 8192
# one float32 screen product is CAP_BLOCK x CAP_POINT_TILE (512 KB); one over a
# whole 8192-point sample block raised the peak memory of a verification pass
CAP_BLOCK = 64         # cap cylinders per float32 screen product
CAP_POINT_TILE = 2048  # points per float32 screen product
CAP_LOOP_MAX = 3       # cap groups up to this size keep the per-cylinder loop


@dataclass(frozen=True)
class MultiplicityReport:
    """Sampled multiplicity summary over a cylinder family inside a body.

    ``max_mult`` is the largest strict-interior count seen (packing reading),
    ``min_mult`` the smallest closed count (covering reading), and
    ``coverage_fraction`` the fraction of samples with closed count >= 1.
    """

    samples: int
    max_mult: int
    min_mult: int
    coverage_fraction: float
    witness_max: tuple
    witness_min: tuple
    seed: int

    def to_json(self) -> dict:
        return {
            "samples": self.samples,
            "max_mult": self.max_mult,
            "min_mult": self.min_mult,
            "coverage_fraction": self.coverage_fraction,
            "witness_max": list(self.witness_max),
            "witness_min": list(self.witness_min),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    witness: tuple | None
    report: MultiplicityReport
    reason: str = ""

    def to_json(self) -> dict:
        return {**self.report.to_json(), "witness": self.witness,
                "reason": self.reason}


def _sample_blocks(body: geom.ConvexBody, n: int, seed: int):
    """Yield sample blocks with per-block derived seeds, in a fixed order."""
    n_blocks = math.ceil(n / BLOCK)
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    remaining = n
    for child in children:
        take = min(BLOCK, remaining)
        rng = np.random.default_rng(child)
        yield geom.sample_in_body(body, take, rng)
        remaining -= take


class _PreparedFamily:
    """A cylinder family prepared once for counting many sample blocks: its
    cap cylinders grouped by base dimension, each group with its block
    arrays for the unit-ball fast path (``_cap_blocks``)."""

    def __init__(self, family):
        self.cylinders = list(family)
        self.dims = {cyl.ambient_dim for cyl in self.cylinders}
        self.others = [cyl for cyl in self.cylinders
                       if not isinstance(cyl.base, cylinders.CapBase)]
        groups: dict[int, list] = {}
        for cyl in self.cylinders:
            if isinstance(cyl.base, cylinders.CapBase):
                groups.setdefault(cyl.base.dim, []).append(cyl)
        self.cap_groups = [(group, _cap_blocks(group)) for group in groups.values()]

    def __len__(self) -> int:
        return len(self.cylinders)

    def __iter__(self):
        return iter(self.cylinders)


def multiplicity_counts(body: geom.ConvexBody, family, pts: np.ndarray,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(strict, closed) membership counts of each point across the family.

    Each cylinder's base is evaluated once for both readings.  Cap-based
    cylinders inside the unit ball reduce to a dot product with the embedded
    pole, which keeps large cap families affordable: see ``_add_cap_counts``,
    whose counts equal those of the per-cylinder test ``_cap_membership``.
    ``estimate_multiplicity`` prepares the family once for all its sample
    blocks; any other family is prepared here.
    """
    if not isinstance(family, _PreparedFamily):
        family = _PreparedFamily(family)
    if any(dim != pts.shape[1] for dim in family.dims):
        raise DimensionMismatch("family and samples disagree in dimension")
    n = len(pts)
    strict = np.zeros(n, dtype=np.int32)
    closed = np.zeros(n, dtype=np.int32)
    unit_ball = geom.is_unit_ball(body)
    with np.errstate(over="ignore"):  # a norm past ~1.3e154 is inf: outside
        for cyl in family.others if unit_ball else family.cylinders:
            closed_in, strict_in = cylinders.base_membership(
                cyl.base, pts @ cyl.frame.columns)
            closed += closed_in
            strict += strict_in
        if unit_ball:
            for group, blocks in family.cap_groups:
                _add_cap_counts(group, blocks, pts, strict, closed)
    return strict, closed


def _cap_membership(cyl: cylinders.Cylinder, pts: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(closed, strict) masks of one cap cylinder over points of the unit ball."""
    base = cyl.base
    margin = cylinders.INTERIOR_MARGIN
    pole = cyl.frame.embed(base.pole)
    dots = pts @ pole
    level = np.abs(dots) if base.antipodal else dots
    cos_d = math.cos(base.delta)
    closed_in = level >= cos_d
    strict_in = level > cos_d + margin
    # |P_E x| <= 1 holds automatically inside the unit ball; the strict
    # variant can only fail on a measure-zero set, checked cheaply here
    if np.any(strict_in):
        proj = pts[strict_in] @ cyl.frame.columns
        strict_sub = np.einsum("ij,ij->i", proj, proj) < (1.0 - margin) ** 2
        idx = np.flatnonzero(strict_in)
        strict_in = np.zeros(len(pts), dtype=bool)
        strict_in[idx[strict_sub]] = True
    return closed_in, strict_in


@dataclass(frozen=True, eq=False)
class _CapBlock:
    """Up to CAP_BLOCK cap cylinders of one base dimension, as arrays."""

    cyls: list
    poles: np.ndarray    # embedded poles, one row per cylinder
    poles32: np.ndarray
    cos_d: np.ndarray
    cuts32: np.ndarray   # float32 screen cuts cos(delta) - gamma
    anti: np.ndarray
    frames: np.ndarray   # (cylinders, d, m) frame columns


def _cap_blocks(cyls: list) -> list[_CapBlock]:
    """The CAP_BLOCK blocks of a group of cap cylinders that share a base
    dimension; none for a group small enough for the per-cylinder loop."""
    if len(cyls) <= CAP_LOOP_MAX:
        return []
    gamma = geom.float32_dot_margin(cyls[0].ambient_dim)
    poles = np.array([cyl.frame.embed(cyl.base.pole) for cyl in cyls])
    cos_d = np.array([math.cos(cyl.base.delta) for cyl in cyls])
    poles32 = poles.astype(np.float32)
    cuts32 = (cos_d - gamma).astype(np.float32)[:, None]
    anti = np.array([cyl.base.antipodal for cyl in cyls])
    frames = np.array([cyl.frame.columns for cyl in cyls])
    return [_CapBlock(*(a[lo:lo + CAP_BLOCK] for a in (
                cyls, poles, poles32, cos_d, cuts32, anti, frames)))
            for lo in range(0, len(cyls), CAP_BLOCK)]


def _add_cap_counts(cyls: list, blocks: list[_CapBlock], pts: np.ndarray,
                    strict: np.ndarray, closed: np.ndarray) -> None:
    """Add the counts of unit-ball cap cylinders that share one base dimension.

    Groups of more than CAP_LOOP_MAX cylinders, over points within radius 2
    (every sample of the unit ball), run in blocks of CAP_BLOCK cylinders,
    screened CAP_POINT_TILE points at a time:

    - a float32 screen of poles x points keeps the pairs whose float32 level
      reaches cos(delta) - gamma, with gamma = ``geom.float32_dot_margin(d)``.
      For |x| <= 2 that is 4x the float32 error of the level (plus the
      rounding of the cut), so every pair whose exact or float64 level
      reaches cos(delta) is kept;
    - float64 levels and |P_E x|^2 of the kept pairs, by einsum, decide both
      readings;
    - a cylinder with a pair whose level or |P_E x|^2 lies within
      64 d^2 2**-53 of a threshold is redone by ``_cap_membership``.  For
      |x| <= 2 two float64 evaluations of a level differ by at most
      4 d 2**-53, and of |P_E x|^2 by at most (16 sqrt(m) d + 8 m) 2**-53,
      both under a quarter of that width, so every other decision is the
      one ``_cap_membership`` takes.

    The counts are therefore those of the per-cylinder loop, bit for bit.
    ``blocks`` are the group's ``_cap_blocks``, built once per family.
    """
    n, d = pts.shape
    if not blocks or n == 0 \
            or not np.all(np.einsum("ij,ij->i", pts, pts) <= 4.0):
        for cyl in cyls:
            closed_in, strict_in = _cap_membership(cyl, pts)
            closed += closed_in
            strict += strict_in
        return
    margin = cylinders.INTERIOR_MARGIN
    lim = (1.0 - margin) ** 2
    tie = 64.0 * d * d * 2.0 ** -53
    cols32 = pts.T.astype(np.float32, order="C")
    for blk in blocks:
        ci, pj = _screened_pairs(blk.poles32, blk.cuts32, blk.anti, cols32)
        x = pts[pj]
        level = np.einsum("ij,ij->i", x, blk.poles[ci])
        level = np.where(blk.anti[ci], np.abs(level), level)
        cut = blk.cos_d[ci]
        closed_in = level >= cut
        strict_in = level > cut + margin
        tied = (np.abs(level - cut) <= tie) | (np.abs(level - (cut + margin)) <= tie)
        s = np.flatnonzero(strict_in)
        proj = np.einsum("ij,ijk->ik", x[s], blk.frames[ci[s]])
        sq = np.einsum("ij,ij->i", proj, proj)
        strict_in[s] = sq < lim
        tied[s] |= np.abs(sq - lim) <= tie
        redo = np.unique(ci[tied])
        if len(redo):
            decided = ~np.isin(ci, redo)
            closed_in &= decided
            strict_in &= decided
        closed += np.bincount(pj[closed_in], minlength=n)
        strict += np.bincount(pj[strict_in], minlength=n)
        for i in redo.tolist():
            closed_one, strict_one = _cap_membership(blk.cyls[i], pts)
            closed += closed_one
            strict += strict_one


def _screened_pairs(poles32: np.ndarray, cuts32: np.ndarray, anti: np.ndarray,
                    cols32: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cylinder, point) index pairs whose float32 level reaches the
    cylinder's cut, by float32 products with CAP_POINT_TILE columns at a time
    of the C-contiguous (d x N) float32 points."""
    ci, pj = [], []
    for lo in range(0, cols32.shape[1], CAP_POINT_TILE):
        level = poles32 @ cols32[:, lo:lo + CAP_POINT_TILE]
        np.abs(level, out=level, where=anti[:, None])
        level -= cuts32  # a float32 difference has the sign of the exact one
        hit = np.flatnonzero(np.max(level, axis=0) >= 0.0)
        c, p = np.nonzero(level[:, hit] >= 0.0)
        ci.append(c)
        pj.append(lo + hit[p])
    return np.concatenate(ci), np.concatenate(pj)


def estimate_multiplicity(body: geom.ConvexBody, family, n: int, seed: int,
                          ) -> MultiplicityReport:
    """Sample n points of the body and report family multiplicity statistics."""
    if n < 1000:
        raise DomainError(f"need at least 1000 samples, got {n}")
    family = _PreparedFamily(family)
    best_max = -1
    best_min = None
    covered = 0
    total = 0
    witness_max = witness_min = None
    for pts in _sample_blocks(body, n, seed):
        strict, closed = multiplicity_counts(body, family, pts)
        i = int(np.argmax(strict))
        if int(strict[i]) > best_max:
            best_max, witness_max = int(strict[i]), tuple(map(float, pts[i]))
        j = int(np.argmin(closed))
        if best_min is None or int(closed[j]) < best_min:
            best_min, witness_min = int(closed[j]), tuple(map(float, pts[j]))
        covered += int(np.count_nonzero(closed >= 1))
        total += len(pts)
    return MultiplicityReport(
        samples=total, max_mult=best_max, min_mult=best_min,
        coverage_fraction=covered / total,
        witness_max=witness_max, witness_min=witness_min, seed=seed)


def verify_packing(body: geom.ConvexBody, family, r: int, n: int, seed: int,
                   ) -> VerificationResult:
    """Probabilistic r-fold packing check.

    Fails with a witness when a sample lies in more than r open cylinders, or
    when some base is not contained in the body's shadow.  A pass is a
    sampling statement, not a proof.
    """
    family = list(family)
    outside = next((i for i, cyl in enumerate(family)
                    if not cylinders.base_contained(body, cyl)), None)
    report = estimate_multiplicity(body, family, n, seed)
    if outside is not None:
        return VerificationResult(
            False, None, report,
            reason=f"base {outside} is not contained in the body shadow")
    if report.max_mult > r:
        return VerificationResult(
            False, report.witness_max, report,
            reason=f"interior multiplicity {report.max_mult} exceeds r={r}")
    return VerificationResult(True, None, report)


def verify_covering(body: geom.ConvexBody, family, r: int, n: int, seed: int,
                    ) -> VerificationResult:
    """Probabilistic r-fold covering check; witness is an undercovered point."""
    family = list(family)
    report = estimate_multiplicity(body, family, n, seed)
    if report.min_mult < r:
        return VerificationResult(
            False, report.witness_min, report,
            reason=f"closed multiplicity {report.min_mult} falls below r={r}")
    return VerificationResult(True, None, report)

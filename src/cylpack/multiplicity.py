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


def multiplicity_counts(body: geom.ConvexBody, family, pts: np.ndarray,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(strict, closed) membership counts of each point across the family.

    Each cylinder's base is evaluated once for both readings.  Cap-based
    cylinders inside the unit ball reduce to a dot product with the embedded
    pole, which keeps large cap families affordable.
    """
    n = len(pts)
    strict = np.zeros(n, dtype=np.int32)
    closed = np.zeros(n, dtype=np.int32)
    unit_ball = geom.is_unit_ball(body)
    margin = cylinders.INTERIOR_MARGIN
    with np.errstate(over="ignore"):  # a norm past ~1.3e154 is inf: outside
        for cyl in family:
            if pts.shape[1] != cyl.ambient_dim:
                raise DimensionMismatch("family and samples disagree in dimension")
            base = cyl.base
            if isinstance(base, cylinders.CapBase) and unit_ball:
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
                    strict_in = np.zeros(n, dtype=bool)
                    strict_in[idx[strict_sub]] = True
            else:
                closed_in, strict_in = cylinders.base_membership(
                    base, pts @ cyl.frame.columns)
            closed += closed_in
            strict += strict_in
    return strict, closed


def estimate_multiplicity(body: geom.ConvexBody, family, n: int, seed: int,
                          ) -> MultiplicityReport:
    """Sample n points of the body and report family multiplicity statistics."""
    if n < 1000:
        raise DomainError(f"need at least 1000 samples, got {n}")
    family = list(family)
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

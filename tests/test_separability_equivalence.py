"""The tangent-arc separability rule of ``falconer.is_separable`` against
the critical-direction scan it replaced (``falconer_oracle.is_separable``).

Each test draws seeded families of one kind and requires the two verdicts
to be equal, and every separable verdict to carry a line that strictly
separates the disks in float arithmetic.  A family may differ from the
oracle only when rounding decides its verdict, that is, when some pair's
centre distance lies within ``TANGENCY_ULPS`` ulps of r_i + r_j; each kind
bounds how many such families it leaves out of the equality count.  In every
other family, the middle of each gap that ``falconer._tangent_gaps`` finds
with a disk beyond must give a strictly separating line too, so a false gap
fails even where ``is_separable``'s own check of its line hides it.
Together the kinds check more than 10 000 families (``test_family_count``).
"""

import math

import numpy as np
import pytest

import falconer_oracle
from cylpack import falconer, instances

TANGENCY_ULPS = 4
NS_SIZES = range(3, 7)      # the rejection draws of instances.random_ns_family
NS_SEEDS = range(1, 701)
KIND_COUNT = 1300           # families of every other kind
# families whose verdict rounding decides, at most, by kind: 75 of the
# tangent chains, where the oracle's line is, in exact arithmetic, the common
# tangent of two touching disks and rounding makes it look strict
LEFT_OUT = {"tangent": 80}
# Pythagorean steps between tangent centres: exact integer distances
STEPS = ((1, 0), (0, 2), (3, 4), (-4, 3), (5, 12), (-12, -5), (8, 6), (-6, 8))


def _rng(tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(tag, 0x5E9A)))


def _separates(family, line) -> bool:
    u = np.asarray(line.u)
    signed = family.centers @ u - line.offset
    return bool(np.all(np.abs(signed) - family.radii > 0)
                and np.any(signed > 0) and np.any(signed < 0))


def _rounding_decides(family) -> bool:
    c, r = family.centers, family.radii
    return any(abs(math.hypot(*(c[i] - c[j])) - (r[i] + r[j]))
               <= TANGENCY_ULPS * math.ulp(r[i] + r[j])
               for i in range(len(r)) for j in range(i))


def _gap_lines(family):
    """The line of the middle of each gap that ``falconer._tangent_gaps``
    finds with a disk beyond it, offset as ``is_separable`` offsets it."""
    c, r = family.centers, family.radii
    for i, theta in zip(*falconer._tangent_gaps(falconer._pair_arcs(c, r))):
        u = (math.cos(theta), math.sin(theta))
        proj = c @ np.array(u)
        tangent, near = proj[i] + r[i], proj - r
        if np.any(near > tangent):
            yield falconer.SeparatingLine(u, (tangent + np.min(near[near > tangent])) / 2.0)


def _compare(family) -> bool:
    """Whether the verdict equals the oracle's; a differing verdict must be
    one that rounding decides.  A separable verdict's line must separate,
    and so must every gap's line unless rounding decides the family."""
    separable, line = falconer.is_separable(family)
    if separable:
        assert _separates(family, line), (family.centers, family.radii, line)
    else:
        assert line is None
    rounding = _rounding_decides(family)
    if not rounding:
        for gap_line in _gap_lines(family):
            assert _separates(family, gap_line), (family.centers, family.radii, gap_line)
    if separable == falconer_oracle.is_separable(family)[0]:
        return True
    assert rounding, (family.centers, family.radii, separable)
    return False


def _check_kind(families, max_left_out: int) -> int:
    checked = left_out = 0
    for family in families:
        checked += 1
        left_out += not _compare(family)
    assert left_out <= max_left_out
    return checked


def _rejection_draws(n: int, seed: int):
    """Every family instances.random_ns_family(n, seed) draws, in order."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xD15C)))
    for _ in range(instances.NS_TRIES):
        family = falconer.DiskFamily(rng.uniform(-1.4, 1.4, size=(n, 2)),
                                     rng.uniform(0.5, 1.1, size=n))
        yield family
        if not falconer.is_separable(family)[0]:
            return


def _wide(rng):
    for _ in range(KIND_COUNT):
        n = int(rng.integers(2, 8))
        yield falconer.DiskFamily(rng.uniform(-6.0, 6.0, size=(n, 2)),
                                  rng.uniform(0.1, 3.0, size=n))


def _nested(rng):
    # disks inside a host disk, some touching its rim from inside, and
    # sometimes one disk outside it
    for _ in range(KIND_COUNT):
        n = int(rng.integers(2, 7))
        host = rng.uniform(-1.0, 1.0, 2)
        big = rng.uniform(1.0, 3.0)
        radii = rng.uniform(0.0, 0.9, n - 1) * big
        reach = (big - radii) * rng.choice([rng.uniform(0.0, 1.0), 1.0], n - 1)
        angle = rng.uniform(0.0, 2.0 * math.pi, n - 1)
        centers = host + reach[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        if rng.random() < 0.5:
            centers[0] = host + rng.uniform(-3.0, 3.0, 2) * big
        yield falconer.DiskFamily(np.vstack([host, centers]),
                                  np.concatenate([[big], radii]))


def _concentric(rng):
    # centres drawn from two or three points, radii sometimes repeated
    for _ in range(KIND_COUNT):
        n = int(rng.integers(2, 7))
        pool = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 4)), 2))
        radii = rng.choice(rng.uniform(0.0, 1.5, 3), n)
        yield falconer.DiskFamily(pool[rng.integers(0, len(pool), n)], radii)


def _points(rng):
    # point disks (radius 0), alone or among disks
    for _ in range(KIND_COUNT):
        n = int(rng.integers(2, 7))
        radii = np.where(rng.random(n) < 0.6, 0.0, rng.uniform(0.2, 1.5, n))
        yield falconer.DiskFamily(rng.uniform(-2.0, 2.0, size=(n, 2)), radii)


def _tangent(rng):
    # chains of exactly tangent disks: integer centre steps of integer length
    # and radii in eighths, so every distance and sum is exact; a dyadic
    # scale keeps them exact
    for _ in range(KIND_COUNT):
        n = int(rng.integers(2, 7))
        centers, radii = [np.zeros(2)], [float(rng.integers(1, 24)) / 8.0]
        while len(radii) < n:
            step = np.array(STEPS[rng.integers(len(STEPS))], dtype=float)
            length = math.hypot(*step)
            while radii[-1] >= length:
                step *= 2.0
                length *= 2.0
            tangent = rng.random() < 0.7
            radii.append(length - radii[-1] if tangent else
                         float(rng.integers(1, 24)) / 8.0)
            centers.append(centers[-1] + step)
        scale = 2.0 ** float(rng.integers(-20, 21))
        yield falconer.DiskFamily(np.array(centers) * scale, np.array(radii) * scale)


def _huge(rng):
    # centres near 1e153, where squared distances are near overflow
    for _ in range(KIND_COUNT):
        n = int(rng.integers(2, 7))
        scale = 1e153 * rng.uniform(0.5, 5.0)
        yield falconer.DiskFamily(rng.uniform(-2.0, 2.0, size=(n, 2)) * scale,
                                  rng.uniform(0.3, 1.1, size=n) * scale)


KINDS = {"wide": _wide, "nested": _nested, "concentric": _concentric,
         "points": _points, "tangent": _tangent, "huge": _huge}


@pytest.mark.parametrize("n", NS_SIZES)
def test_every_rejection_draw_agrees(n):
    # equal verdicts on every draw also keep random_ns_family's choice
    for seed in NS_SEEDS:
        draws = list(_rejection_draws(n, seed))
        _check_kind(draws, max_left_out=0)
        chosen = instances.random_ns_family(n, seed)
        assert np.array_equal(chosen.centers, draws[-1].centers)
        assert np.array_equal(chosen.radii, draws[-1].radii)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_kind_agrees(kind):
    families = KINDS[kind](_rng(sorted(KINDS).index(kind)))
    assert _check_kind(families, max_left_out=LEFT_OUT.get(kind, 0)) == KIND_COUNT


def test_family_count():
    draws = sum(len(list(_rejection_draws(n, seed)))
                for n in NS_SIZES for seed in NS_SEEDS)
    assert draws + KIND_COUNT * len(KINDS) >= 10_000

"""Separated-set maximality is certified by one spherical hull.

A set flagged maximal has covering radius at most its separation: a fresh
(non-incremental) hull of the final cloud has no facet bounding an empty cap
wider than the separation, and the certified radius matches exact answers
on the circle and on the octahedron.
"""

import math

import numpy as np
import pytest

import sepset_oracle
from cylpack import cappack, geom

P, G = cappack.PROJECTIVE, cappack.GEODESIC


@pytest.fixture(autouse=True)
def fresh_set_cache():
    cappack._cached_set.cache_clear()
    yield
    cappack._cached_set.cache_clear()


def certified_radius(points, metric):
    """``_complete`` with a threshold no facet reaches: no insertion, just
    the rounded-up covering radius."""
    pts = np.array(points, dtype=float)
    _, n, radius, rounds = cappack._complete(pts, len(pts), -2.0, metric)
    assert n == len(pts) and rounds == 0
    return radius


# ROADMAP's defect table: sets the probe passes flagged maximal although a
# hull facet bounded an empty cap wider than the separation (all but the
# README set, projective (4, 0.3) seed 7), plus (4, 0.3) seeds 11 and 12
DEFECT_ROWS = [(m, d, delta, 3) for m in (P, G)
               for d, delta in ((4, 0.2), (5, 0.3), (5, 0.2), (6, 0.3))] \
    + [(P, 4, 0.3, 7), (G, 4, 0.3, 7), (P, 4, 0.3, 11), (P, 4, 0.3, 12)]
OVER_BUDGET = ((5, 0.2), (6, 0.3))


@pytest.mark.parametrize("metric,d,delta,seed", DEFECT_ROWS)
def test_flagged_sets_are_certified_or_uncertified(metric, d, delta, seed):
    out = cappack.build_separated_set(d, 2 * delta, metric, seed)
    assert sepset_oracle.check_separation(out)
    if (d, delta) in OVER_BUDGET:
        assert not out.maximal and out.covering_radius is None
        assert out.completion_rounds == 0
        return
    assert out.maximal and out.completion_rounds >= 1
    assert out.covering_radius <= 2 * delta
    # exact: a fresh hull finds no facet wider than the separation, and the
    # certified radius is an upper estimate within its margin
    widest = sepset_oracle.widest_empty_cap(out.points, metric)
    assert widest <= out.covering_radius <= widest + 1e-7


def test_readme_set_certified_and_seeds_11_12_completed():
    readme = cappack.build_separated_set(4, 0.6, P, seed=7)
    assert len(readme) == 33 and readme.maximal
    assert [len(cappack.build_separated_set(4, 0.6, P, seed=s)) for s in (11, 12)] \
        == [33, 34]


@pytest.mark.parametrize("metric", [P, G])
@pytest.mark.parametrize("n", [3, 7, 40])
def test_circle_covering_radius_is_half_the_largest_gap(metric, n):
    rng = np.random.default_rng(n)
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    points = np.column_stack([np.cos(angles), np.sin(angles)])
    cloud = np.concatenate([angles, angles + math.pi]) % (2.0 * math.pi) \
        if metric == P else angles
    cloud = np.sort(cloud)
    gaps = np.diff(np.concatenate([cloud, [cloud[0] + 2.0 * math.pi]]))
    exact = gaps.max() / 2.0
    radius = certified_radius(points, metric)
    assert exact <= radius <= exact + 1e-7


@pytest.mark.parametrize("metric", [P, G])
def test_octahedron_covering_radius(metric):
    eye = np.eye(3)
    points = eye if metric == P else np.vstack([eye, -eye])
    exact = math.acos(1.0 / math.sqrt(3.0))
    radius = certified_radius(points, metric)
    assert exact <= radius <= exact + 1e-7


def test_degenerate_cloud_is_uncertified():
    angles = np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False)
    flat = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(9)])
    assert cappack._complete(flat.copy(), 9, math.cos(0.3), G)[2:] == (None, 0)


def test_refused_open_facet_is_uncertified():
    # a quarter-circle gap: its facet level cos(pi / 4) lies inside the
    # margin above the threshold, so the facet is open, and its normal,
    # at that level against both ends, fails the exact test
    steps = np.arange(0.0, 2.6, 0.5)
    angles = np.concatenate([steps[:4], 1.5 + 0.5 * math.pi + steps])
    points = np.column_stack([np.cos(angles), np.sin(angles)])
    cos_sep = math.cos(math.pi / 4.0) - 0.5 * cappack._HULL_MARGIN
    buf, n, radius, rounds = cappack._complete(points.copy(), len(points), cos_sep, G)
    assert (n, radius, rounds) == (len(points), None, 0)


@pytest.mark.parametrize("d,delta,metric", [(5, 0.2, P), (6, 0.3, G), (7, 0.5, G)])
def test_over_budget_sets_build_no_hull(monkeypatch, d, delta, metric):
    calls = []
    real = geom.ConvexHull

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(geom, "ConvexHull", counting)
    out = cappack.build_separated_set(d, 2 * delta, metric, seed=3)
    assert not out.maximal and out.covering_radius is None
    assert out.completion_rounds == 0 and not calls


def test_reports_carry_the_certificate():
    rep = cappack.cap_packing_report(4, 1, 0.3, seed=7)
    sep_set = cappack.build_separated_set(4, 0.6, P, seed=7)
    assert rep.separated_set_maximal
    assert rep.covering_radius == sep_set.covering_radius <= 0.6
    assert rep.completion_rounds == sep_set.completion_rounds
    out = rep.to_json()
    assert out["covering_radius"] == sep_set.covering_radius
    assert out["completion_rounds"] == sep_set.completion_rounds

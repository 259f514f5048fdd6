"""The blocked greedy phase reproduces the one-at-a-time oracle, and the hull
completion after it leaves no probe uncovered.

Equality is byte equality of the greedy prefix: the first points of a
certified set are those of the oracle's greedy phase stopped at
``cappack.SHORT_STREAK`` rejections, those of an uncertified set are the
whole greedy phase, and with the hull budget at zero the set is exactly that
greedy phase, uncertified.  A set the short path does not certify is the set
of the whole greedy phase (``sepset_oracle.full_greedy_set``), byte for byte.
"""

import math

import numpy as np
import pytest

import sepset_oracle
from cylpack import cappack, geom

GRID = [(d, delta, metric, seed)
        for d in (3, 4, 5) for delta in (0.2, 0.3)
        for metric in (cappack.PROJECTIVE, cappack.GEODESIC) for seed in (1, 2)]


@pytest.fixture(autouse=True)
def fresh_set_cache():
    cappack._cached_set.cache_clear()
    yield
    cappack._cached_set.cache_clear()


def assert_same_greedy_prefix(monkeypatch, d, delta, metric, seed):
    ref = sepset_oracle.greedy_points(d, 2 * delta, metric, seed)
    out = cappack.build_separated_set(d, 2 * delta, metric, seed)
    prefix = sepset_oracle.streak_points(d, 2 * delta, metric, seed) \
        if out.maximal else ref
    assert out.points[:len(prefix)].tobytes() == prefix.tobytes()
    with monkeypatch.context() as m:
        m.setattr(cappack, "HULL_MAX_POINTS", {})
        cappack._cached_set.cache_clear()
        greedy = cappack.build_separated_set(d, 2 * delta, metric, seed)
    cappack._cached_set.cache_clear()
    assert greedy.points.tobytes() == ref.tobytes()
    assert not greedy.maximal and greedy.covering_radius is None
    return out


@pytest.mark.parametrize("d,delta,metric,seed", GRID)
def test_matches_oracle(monkeypatch, d, delta, metric, seed):
    assert_same_greedy_prefix(monkeypatch, d, delta, metric, seed)


@pytest.mark.parametrize("d,delta,metric,seed", GRID)
def test_certified_sets_leave_no_probe_uncovered(d, delta, metric, seed):
    out = cappack.build_separated_set(d, 2 * delta, metric, seed)
    assert sepset_oracle.check_separation(out)
    # (5, 0.2) sets have more greedy hull points than the d = 5 budget
    assert out.maximal == ((d, delta) != (5, 0.2))
    if out.maximal:
        assert out.covering_radius <= 2 * delta
        assert len(sepset_oracle.far_probes(out)) == 0
        widest = sepset_oracle.widest_empty_cap(out.points, metric)
        assert widest <= out.covering_radius <= widest + 1e-7
    else:
        assert out.covering_radius is None and out.completion_rounds == 0


@pytest.mark.parametrize("d,delta,metric,seed",
                         [case for case in GRID if case[0] <= 4])
def test_matches_oracle_on_exact_fallback(monkeypatch, d, delta, metric, seed):
    # a band this wide drops nothing and flags every candidate as near, so
    # every greedy decision goes through the exact per-candidate test
    monkeypatch.setattr(cappack, "_BAND", 1.0)
    assert_same_greedy_prefix(monkeypatch, d, delta, metric, seed)


def greedy_positions(d, two_delta, metric, seed):
    """Proposal-stream positions of the oracle's greedy-phase insertions."""
    ref = sepset_oracle.greedy_points(d, two_delta, metric, seed)
    members = {p.tobytes() for p in ref}
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x5E7)))
    positions, pos = [], 0
    while not positions or pos - positions[-1] <= sepset_oracle.REJECT_BUDGET:
        for p in geom.uniform_sphere_points(d, 512, rng):
            if p.tobytes() in members:
                positions.append(pos)
            pos += 1
    return positions


def budget_ending_at(positions, offset):
    """A rejection budget that ends the greedy phase at ``offset`` in a block."""
    longest = 0
    for a, b in zip(positions, positions[1:] + [None]):
        run = b - a - 1 if b is not None else longest + 512
        for budget in range(longest + 1, run + 1):
            if (a + budget) % 512 == offset:
                return budget
        longest = max(longest, run)
    raise AssertionError("no budget ends the phase there")


@pytest.mark.parametrize("offset", [511, 200], ids=["block-end", "mid-block"])
@pytest.mark.parametrize("d,delta,metric", [(3, 0.3, cappack.PROJECTIVE),
                                            (4, 0.2, cappack.GEODESIC)])
def test_matches_oracle_when_budget_runs_out(monkeypatch, d, delta, metric, offset):
    seed = 1
    budget = budget_ending_at(greedy_positions(d, 2 * delta, metric, seed), offset)
    monkeypatch.setattr(sepset_oracle, "_SET_CACHE", {})
    monkeypatch.setattr(sepset_oracle, "REJECT_BUDGET", budget)
    monkeypatch.setattr(cappack, "REJECT_BUDGET", budget)
    # the last greedy insertion plus the budget lands on the chosen offset
    last = greedy_positions(d, 2 * delta, metric, seed)[-1]
    assert (last + budget) % 512 == offset
    assert_same_greedy_prefix(monkeypatch, d, delta, metric, seed)


def assert_full_greedy_set(d, two_delta, metric, seed):
    out = cappack.build_separated_set(d, two_delta, metric, seed)
    ref = sepset_oracle.full_greedy_set(d, two_delta, metric, seed)
    assert out.points.tobytes() == ref.points.tobytes()
    assert (out.maximal, out.covering_radius, out.completion_rounds) == \
        (ref.maximal, ref.covering_radius, ref.completion_rounds)
    return out


def test_degenerate_short_hull_falls_back_to_the_full_greedy_set():
    # test_cappack's circle set: the short greedy phase stops at two points,
    # whose hull is a segment, so the whole greedy phase builds the set
    two_delta = math.pi / 2 - 1e-9
    short = sepset_oracle.streak_points(2, two_delta, cappack.GEODESIC, 5)
    assert len(short) == 2
    assert cappack._complete(short.copy(), 2, math.cos(two_delta),
                             cappack.GEODESIC)[2] is None
    assert len(assert_full_greedy_set(2, two_delta, cappack.GEODESIC, 5)) == 3


# budgets under the short greedy hull (58 and 120 points): the whole greedy
# phase (62 and 149 points) outgrows them too, so the set is that phase,
# uncertified
@pytest.mark.parametrize("d,delta,metric,budget",
                         [(4, 0.3, cappack.PROJECTIVE, 50),
                          (5, 0.3, cappack.GEODESIC, 100)])
def test_greedy_hull_over_the_budget_falls_back_to_the_full_greedy_set(
        monkeypatch, d, delta, metric, budget):
    seed = 1
    short = sepset_oracle.streak_points(d, 2 * delta, metric, seed)
    full = sepset_oracle.greedy_points(d, 2 * delta, metric, seed)
    sides = 2 if metric == cappack.PROJECTIVE else 1
    assert budget < sides * len(short) and len(short) < len(full)
    monkeypatch.setitem(cappack.HULL_MAX_POINTS, d, budget)
    assert not assert_full_greedy_set(d, 2 * delta, metric, seed).maximal


# budgets between the short greedy hull and the completed one (68 and 177
# points) keep the set: the budget gates completion, not the hull it ends with
@pytest.mark.parametrize("d,delta,metric,budget",
                         [(4, 0.3, cappack.PROJECTIVE, 64),
                          (5, 0.3, cappack.GEODESIC, 140)])
def test_short_completion_may_pass_the_budget(monkeypatch, d, delta, metric,
                                              budget):
    seed = 1
    short = sepset_oracle.streak_points(d, 2 * delta, metric, seed)
    done = cappack.build_separated_set(d, 2 * delta, metric, seed)
    sides = 2 if metric == cappack.PROJECTIVE else 1
    assert sides * len(short) <= budget < sides * len(done)
    monkeypatch.setitem(cappack.HULL_MAX_POINTS, d, budget)
    cappack._cached_set.cache_clear()
    out = cappack.build_separated_set(d, 2 * delta, metric, seed)
    assert out.maximal and out.points.tobytes() == done.points.tobytes()

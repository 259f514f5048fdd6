"""The blocked greedy phase reproduces the one-at-a-time oracle, and the hull
completion after it leaves no probe uncovered.

Equality is byte equality of the greedy prefix: the first points of the set
are those of the oracle's greedy phase, and with the hull budget at zero the
set is exactly that greedy phase, uncertified.
"""

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
    assert out.points[:len(ref)].tobytes() == ref.tobytes()
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
    assert cappack.check_separation(out)
    # (5, 0.2) sets have more greedy hull points than the d = 5 budget
    assert out.maximal == ((d, delta) != (5, 0.2))
    if out.maximal:
        assert out.covering_radius <= 2 * delta
        assert len(sepset_oracle.far_probes(out)) == 0
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

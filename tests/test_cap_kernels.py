"""The cap pipeline kernels reproduce their one-at-a-time oracles bit for bit.

- ``cappack._filter`` (float32 screen, then the float64 pass) keeps the same
  candidates as the float64 filter alone (``sepset_oracle._filter``), each
  on the same side of the band;
- the greedy phase, which sends only candidates within ``_BAND`` of the
  threshold to ``_pair_ok``, builds the greedy points of the one-at-a-time
  construction (``sepset_oracle.greedy_points``) with a band wide enough to
  mix both insertion paths in one block;
- ``geom.orthonormalize_stack`` and ``cappack.build_cap_family`` return the
  frames of Gram-Schmidt run on one vector list at a time
  (``frame_oracle.orthonormalize``).

Candidates are placed at the thresholds where a screen or a reordered sum
could change a decision.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest

import frame_oracle
import sepset_oracle
from cylpack import cappack, cylinders, geom
from cylpack.errors import RankDeficient

METRICS = (cappack.PROJECTIVE, cappack.GEODESIC)


# --- separated-set filter --------------------------------------------------------

def _unit(v):
    return v / np.linalg.norm(v)


def _placed_candidates(d, cos_sep, metric, rng):
    """(members, candidates, levels): 300 members (two row blocks) with e_1 at
    row 270, the others more than 2.5 * 2 delta away from +-e_1, and
    candidates whose level against e_1 is set exactly (it is their first
    coordinate, in every product order), so that e_1 gives their largest
    level; ``levels`` holds those of the leading placed candidates."""
    two_delta = math.acos(cos_sep)
    far_cos = math.cos(2.5 * two_delta)
    others = []
    while len(others) < 299:
        v = _unit(rng.standard_normal(d))
        level = abs(v[0]) if metric == cappack.PROJECTIVE else v[0]
        if level < far_cos:
            others.append(v)
    members = np.array(others[:270] + [np.eye(d)[0]] + others[270:])
    band = cappack._BAND
    gamma = geom.float32_dot_margin(d)
    # at and 3e-12 off the band edges; inside float32 error of cos_sep and
    # of the screen's cut; and clear of every threshold
    levels = [cos_sep + edge + o for edge in (band, -band) for o in (0.0, 3e-12, -3e-12)]
    levels += [cos_sep + o for o in (1e-7, -1e-7, 3e-8, -3e-8, 0.0)]
    levels += [cos_sep + band + gamma + o for o in (1e-7, -1e-7, 0.0)]
    levels += [cos_sep - 0.02, 0.99, 0.999]
    cands = []
    for t in levels:
        u = rng.standard_normal(d)
        u[0] = 0.0
        c = math.sqrt(1.0 - t * t) * _unit(u)
        c[0] = t
        cands.append(c)
    if metric == cappack.PROJECTIVE:
        cands += [-c for c in cands]
        levels = levels + levels
    # and uniform candidates, dropped in either block or kept
    cands = np.vstack([np.array(cands), geom.uniform_sphere_points(d, 500, rng)])
    return members, cands, np.array(levels)


def _filter_masks(cands, members, cos_sep, metric):
    """(far, near) masks from ``cappack._filter``'s survivors and levels."""
    idx, peak = cappack._filter(cands, members, cos_sep, metric)
    assert np.all(np.diff(idx) > 0) and np.all(peak < cos_sep + cappack._BAND)
    far = np.zeros(len(cands), dtype=bool)
    near = np.zeros(len(cands), dtype=bool)
    far[idx[peak < cos_sep - cappack._BAND]] = True
    near[idx[peak >= cos_sep - cappack._BAND]] = True
    return far, near


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("d", range(2, 9))
def test_filter_matches_float64_oracle(d, metric):
    assert (sepset_oracle._BAND, sepset_oracle._ROW_BLOCK) == \
        (cappack._BAND, cappack._ROW_BLOCK)
    rng = np.random.default_rng(100 + d)
    cos_sep = math.cos(0.3)
    members, cands, levels = _placed_candidates(d, cos_sep, metric, rng)
    far, near = _filter_masks(cands, members, cos_sep, metric)
    ref_far, ref_near = sepset_oracle._filter(cands, members, cos_sep, metric)
    assert np.array_equal(far, ref_far) and np.array_equal(near, ref_near)
    # each placed candidate lands where its level puts it, in all three classes
    band = cappack._BAND
    placed = slice(0, len(levels))
    assert np.array_equal(far[placed], levels < cos_sep - band)
    assert np.array_equal(near[placed], (levels >= cos_sep - band)
                          & (levels < cos_sep + band))
    assert far[placed].any() and near[placed].any() and not (far | near)[placed].all()


@pytest.mark.parametrize("metric", METRICS)
def test_filter_matches_oracle_without_members_and_in_one_block(metric):
    rng = np.random.default_rng(7)
    cos_sep = math.cos(0.4)
    cands = geom.uniform_sphere_points(5, 300, rng)
    for members in (np.empty((0, 5)), geom.uniform_sphere_points(5, 40, rng)):
        got = _filter_masks(cands, members, cos_sep, metric)
        ref = sepset_oracle._filter(cands, members, cos_sep, metric)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def _instrumented_build(monkeypatch, d, delta, metric, seed):
    """Build the set from an empty cache, logging per ``_filter`` call (one
    per greedy block or completion round) [members at its start,
    ``_pair_ok`` calls that accepted, ``_pair_ok`` calls]."""
    log = []
    real_filter, real_pair_ok = cappack._filter, cappack._pair_ok

    def logged_filter(cands, members, cos_sep, metric):
        log.append([len(members), 0, 0])
        return real_filter(cands, members, cos_sep, metric)

    def logged_pair_ok(candidate, points, cos_sep, metric):
        ok = real_pair_ok(candidate, points, cos_sep, metric)
        log[-1][1] += ok
        log[-1][2] += 1
        return ok

    monkeypatch.setattr(cappack, "_filter", logged_filter)
    monkeypatch.setattr(cappack, "_pair_ok", logged_pair_ok)
    cappack._cached_set.cache_clear()
    try:
        return cappack.build_separated_set(d, 2 * delta, metric, seed), log
    finally:
        cappack._cached_set.cache_clear()


def test_greedy_insertions_skip_the_exact_test(monkeypatch):
    # the README example: 33 points, of which only candidates within _BAND of
    # the threshold take the one-at-a-time test
    sep_set, log = _instrumented_build(monkeypatch, 4, 0.3, cappack.PROJECTIVE, 7)
    assert len(sep_set) == 33 and sep_set.maximal
    assert sum(calls for _, _, calls in log) <= 5


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("delta", [0.2, 0.3])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_mixed_insertion_paths_match_oracle(monkeypatch, d, delta, metric, seed):
    # a 0.05 band puts many in-block levels inside it, so one greedy block
    # inserts some candidates by the per-insertion rule and tests others with
    # _pair_ok
    monkeypatch.setattr(cappack, "_BAND", 0.05)
    sep_set, log = _instrumented_build(monkeypatch, d, delta, metric, seed)
    ref = sepset_oracle.greedy_points(d, 2 * delta, metric, seed)
    assert sep_set.points[:len(ref)].tobytes() == ref.tobytes()
    # (5, 0.2) sets have more greedy hull points than the d = 5 budget
    assert sep_set.maximal == ((d, delta) != (5, 0.2))
    # some block inserted more candidates than _pair_ok accepted, and called it
    assert any(now[0] - before[0] > before[1] and before[2] > 0
               for before, now in zip(log, log[1:]))


# --- cap frames --------------------------------------------------------------------

@pytest.mark.parametrize("d", range(2, 9))
def test_orthonormalize_matches_loop_oracle(d):
    rng = np.random.default_rng(200 + d)
    for m in range(1, d + 1):
        stack = rng.standard_normal((25, m, d))
        stack[0] *= 1e-150  # tiny and huge inputs, too
        stack[1] *= 1e150
        frames = geom.orthonormalize_stack(stack)
        for vs, frame in zip(stack, frames):
            ref = frame_oracle.orthonormalize(vs).columns
            assert frame.columns.tobytes() == ref.tobytes()
            assert frame.columns.flags.c_contiguous == ref.flags.c_contiguous
            # the single-list routine is the N = 1 stack
            assert geom.orthonormalize(vs).columns.tobytes() == ref.tobytes()
        # a strided view (a column_stack transpose) gives the same bytes
        view = np.column_stack([stack[2][0], stack[2][1:].T]).T if m > 1 else stack[2]
        assert geom.orthonormalize(view).columns.tobytes() == \
            frame_oracle.orthonormalize(view).columns.tobytes()


def test_orthonormalize_rank_deficient():
    with pytest.raises(RankDeficient):
        geom.orthonormalize([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
    with pytest.raises(RankDeficient):
        geom.orthonormalize([[0.0, 0.0]])
    stack = np.random.default_rng(3).standard_normal((6, 3, 4))
    stack[4, 2] = stack[4, 0] - 2.0 * stack[4, 1]  # one dependent list of six
    with pytest.raises(RankDeficient):
        geom.orthonormalize_stack(stack)
    geom.orthonormalize_stack(np.delete(stack, 4, axis=0))


def _loop_cap_family(sep_set, delta, k, seed):
    """Frames of the one-member-at-a-time construction: one (d, m - 1) draw
    and one Gram-Schmidt per member."""
    d = sep_set.points.shape[1]
    m = d - k
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x5EED)))
    out = []
    for x in sep_set.points:
        if m == 1:
            out.append(geom.Frame(x[:, None]))
        else:
            extra = rng.standard_normal((d, m - 1))
            out.append(frame_oracle.orthonormalize(np.column_stack([x, extra]).T))
    return out


@pytest.mark.parametrize("d,delta,metric", [(4, 0.3, cappack.PROJECTIVE),
                                            (5, 0.3, cappack.GEODESIC),
                                            (5, 0.2, cappack.PROJECTIVE)])
def test_cap_family_frames_match_loop_oracle(d, delta, metric):
    sep_set = cappack.build_separated_set(d, 2 * delta, metric, seed=2)
    for k in range(1, d):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # k = d - 1 warns
            family = cappack.build_cap_family(sep_set, delta, k, seed=5)
        ref = _loop_cap_family(sep_set, delta, k, seed=5)
        assert len(family) == len(ref)
        for cyl, frame, x in zip(family.cylinders, ref, sep_set.points):
            assert cyl.frame.columns.tobytes() == frame.columns.tobytes()
            assert cyl.base.pole.tobytes() == \
                cylinders.CapBase(frame.coords(x), delta).pole.tobytes()


# sha256 of projective sets (seed 1), of their greedy prefix (the first
# n_greedy points, the bytes the one-at-a-time greedy phase writes) and of
# their k = 1, 2 cap-family frames and poles, as the one-at-a-time frame
# construction wrote them (numpy 2.4 with OpenBLAS on x86-64).  The oracle
# grid above stops at d = 5; the d = 6 sets are over the hull budget, so they
# are their greedy phase alone, and the d = 5 set pins hull-inserted points.
SET_PINS = {
    (6, 0.2): ("c20aa7159cbf8c209175543012a1ea98b326594b706c76b76608c6128ad227f1", 1115,
               ("c20aa7159cbf8c209175543012a1ea98b326594b706c76b76608c6128ad227f1", 1115),
               {1: "fe915ff176755af508938a6ec6c3b841750db9ddc9c0d0419eb4414581adafb9",
                2: "312691d901684a9732ef964fe55ee994d89245e1d70ac8a5cb13ac7480f80fb3"}),
    (6, 0.3): ("2abfb911923d17bccd33812761c4f706db003cb1f8e0938672829c0da85e65d4", 168,
               ("2abfb911923d17bccd33812761c4f706db003cb1f8e0938672829c0da85e65d4", 168),
               {1: "dce9b41c8b58c7bacdd3a576f4a496fb5e63ea215809006290ba7306a0aeea40",
                2: "72ef234f7c04bb16953293e8f0bc1f530a6f1fb1fdfb81b1c600f14540e1c4dd"}),
    (5, 0.3): ("f134c9de996a50a7325b3db4d3ee410ed62165ab5eeb7eb5128162e707c02c8c", 90,
               ("d03516adeba29560a9d82344da09831912a8f19115333376ff752d47e4acf93b", 76),
               {1: "1ec9230bf61f7c044b33124bcf5a5d8e189c65ceac1e44d00a3e589bdafac741",
                2: "32a5fe2beceee93d8f118080e7d6a72cd722f8f2a14a939025737124f6e043f7"}),
}


def assert_set_pinned(d, delta):
    set_pin, size, (greedy_pin, n_greedy), frame_pins = SET_PINS[d, delta]
    sep_set = cappack.build_separated_set(d, 2 * delta, cappack.PROJECTIVE, seed=1)
    assert len(sep_set) == size
    assert sep_set.maximal == (size > n_greedy)
    assert hashlib.sha256(sep_set.points[:n_greedy].tobytes()).hexdigest() == greedy_pin
    assert hashlib.sha256(sep_set.points.tobytes()).hexdigest() == set_pin
    for k, pin in frame_pins.items():
        h = hashlib.sha256()
        for cyl in cappack.build_cap_family(sep_set, delta, k, seed=1).cylinders:
            h.update(cyl.frame.columns.tobytes())
            h.update(cyl.base.pole.tobytes())
        assert h.hexdigest() == pin, k


@pytest.mark.parametrize("delta", [0.2, 0.3])
def test_d6_sets_and_frames_pinned(delta):
    assert_set_pinned(6, delta)


def test_d5_completed_set_and_frames_pinned():
    assert_set_pinned(5, 0.3)


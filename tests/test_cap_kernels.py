"""The cap pipeline kernels reproduce their one-at-a-time oracles bit for bit.

- ``cappack._filter`` (float32 screen, then the float64 pass) keeps the same
  candidates as the float64 filter alone (``sepset_oracle._filter``), each
  on the same side of the band, and with its cell screen it returns the
  ``(idx, peak)`` bytes of the screened filter before the cells
  (``sepset_oracle.screened_filter``) on both sides of the cell threshold;
- the batched greedy phase makes the one-draw-at-a-time phase's 512-row
  draws, the last one holding the stop, and the sets that run the cell
  screen keep their pins;
- the greedy phase, which sends only candidates within ``_BAND`` of the
  threshold to ``_pair_ok``, builds the greedy points of the one-at-a-time
  construction (``sepset_oracle.greedy_points``, stopped at the short streak
  for a certified set) with a band wide enough to mix both insertion paths in
  one block;
- ``geom._gram_schmidt`` and ``cappack.build_cap_family`` return the
  frames of Gram-Schmidt run on one vector list at a time
  (``frame_oracle.orthonormalize``);
- the Frame and CapBase checks, run once over a whole stack, raise what the
  one-object checks raise on the offending member;
- the float32 screens raise no floating-point warning on finite input.

Candidates are placed at the thresholds where a screen or a reordered sum
could change a decision.
"""

import dataclasses
import hashlib
import math
import re
import warnings

import numpy as np
import pytest

import frame_oracle
import sepset_oracle
from cylpack import cappack, cylinders, geom
from cylpack.errors import DimensionMismatch, DomainError, RankDeficient

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


def _cell_of(points, metric):
    """Cell index of each point, as ``cappack._cells`` sorts them."""
    order, bounds = cappack._cells(points.T, metric)
    cell = np.empty(len(points), dtype=int)
    for c in range(len(bounds) - 1):
        cell[order[bounds[c]:bounds[c + 1]]] = c
    return cell


def _level(a, b, metric):
    dots = a @ b.T
    return np.abs(dots) if metric == cappack.PROJECTIVE else dots


def _cell_case(d, metric, count, size, rng):
    """(members, candidates, cos_sep, placed) for the cell screen.

    ``count`` members: uniform points and, per coordinate a cell plane may
    use, an anchor at angle theta / 2 from that plane (theta = arccos
    cos_sep).  ``size`` candidates: points at levels cos_sep +- _BAND / 2
    against each anchor, moved away from the plane (placed[0]) and across it
    (placed[1]), with no other member near them; every seventh member and
    its antipode; points with a zero and a negative zero coordinate on each
    plane; and uniform points.  cos_sep is the median largest level of
    uniform probes, so about half the uniform candidates are dropped."""
    members = geom.uniform_sphere_points(d, count + 200, rng)
    probes = geom.uniform_sphere_points(d, 1000, rng)
    cos_sep = float(np.median(_level(probes, members[:count], metric).max(axis=1)))
    theta = math.acos(cos_sep)
    planes = range(min(d, cappack._CELL_BITS + 1))
    anchors, placed = [], ([], [])
    for j in planes:
        while True:
            a = _unit(rng.standard_normal(d))
            a[j] = 0.0
            a = math.cos(theta / 2) * _unit(a)
            a[j] = math.sin(theta / 2)
            e = np.eye(d)[j]
            pts = [t * a + math.sqrt(1.0 - t * t) * _unit(v - (v @ a) * a)
                   for v in (e, -e)
                   for t in (cos_sep + cappack._BAND / 2, cos_sep - cappack._BAND / 2)]
            # no anchor near another anchor's points
            if not anchors or max(_level(np.array(pts), np.array(anchors), metric).max(),
                                  _level(np.vstack(placed), a[None], metric).max()) \
                    < cos_sep - 1e-3:
                break
        anchors.append(a)
        placed[0].extend(pts[:2])
        placed[1].extend(pts[2:])
    placed = tuple(np.array(p) for p in placed)
    near = np.vstack(placed)
    far = _level(members, near, metric).max(axis=1) < cos_sep - 1e-3
    members = np.vstack([members[far][:count - len(anchors)], anchors])
    zeros = []
    for j in planes:
        for zero in (0.0, -0.0):
            z = _unit(rng.standard_normal(d))
            z[j] = zero
            zeros.append(_unit(z))
    fixed = np.vstack([near, members[::7], -members[::7], zeros])
    cands = np.vstack([fixed, geom.uniform_sphere_points(d, size - len(fixed), rng)])
    return members, cands[rng.permutation(size)], cos_sep, placed


@pytest.mark.parametrize("count,size", [(511, 16384), (512, 2047), (512, 2048),
                                        (1500, 16384)])
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("d", range(2, 8))
def test_cell_screen_keeps_the_screened_filter_bytes(monkeypatch, d, metric,
                                                      count, size):
    assert (sepset_oracle._BAND, sepset_oracle._ROW_BLOCK) == \
        (cappack._BAND, cappack._ROW_BLOCK)
    assert (cappack._CELL_MEMBERS, cappack._CELL_CANDIDATES) == (512, 2048)
    rng = np.random.default_rng(300 + 10 * d + count + size)
    members, cands, cos_sep, placed = _cell_case(d, metric, count, size, rng)
    assert len(members) == count and len(cands) == size
    screens = []
    real = cappack._cell_screen
    monkeypatch.setattr(cappack, "_cell_screen",
                        lambda *args: screens.append(1) or real(*args))
    idx, peak = cappack._filter(cands, members, cos_sep, metric)
    ref_idx, ref_peak = sepset_oracle.screened_filter(cands, members, cos_sep, metric)
    assert idx.dtype == ref_idx.dtype and peak.dtype == ref_peak.dtype
    assert idx.tobytes() == ref_idx.tobytes() and peak.tobytes() == ref_peak.tobytes()
    assert len(screens) == (count >= 512 and size >= 2048)
    # the placed candidates lie in the band, each held by its anchor in its
    # own cell or across a cell plane, and both sides occur
    anchors = members[len(members) - len(placed[0]) // 2:]
    for side, pts in enumerate(placed):
        owner = np.repeat(anchors, 2, axis=0)
        assert np.all(np.abs(np.sum(pts * owner, axis=1) - cos_sep) < cappack._BAND)
        crossed = _cell_of(pts, metric) != _cell_of(owner, metric)
        assert crossed.any() if side else not crossed.all()
    kept = cands[idx]
    for pts in placed:
        assert all((kept == p).all(axis=1).any() for p in pts)
    # the uniform candidates are dropped and kept in about equal numbers
    assert 0.2 < len(idx) / size < 0.8


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
    # a certified set starts with the short greedy phase, any other with the
    # whole one
    ref = (sepset_oracle.streak_points if sep_set.maximal
           else sepset_oracle.greedy_points)(d, 2 * delta, metric, seed)
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
        frames = geom._checked_frames(geom._gram_schmidt(stack))
        for vs, columns in zip(stack, frames):
            ref = frame_oracle.orthonormalize(vs).columns
            assert columns.tobytes() == ref.tobytes()
            assert columns.flags.c_contiguous == ref.flags.c_contiguous
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
        geom._gram_schmidt(stack)
    geom._gram_schmidt(np.delete(stack, 4, axis=0))


def _loop_cap_family(sep_set, k):
    """Frames of the one-member-at-a-time construction: one (d, m - 1) draw
    and one Gram-Schmidt per member, seeded with the set's seed."""
    d = sep_set.points.shape[1]
    m = d - k
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(sep_set.seed, 0x5EED)))
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
            family = cappack.build_cap_family(sep_set, k)
        ref = _loop_cap_family(sep_set, k)
        assert len(family) == len(ref)
        for cyl, frame, x in zip(family, ref, sep_set.points):
            assert cyl.frame.columns.tobytes() == frame.columns.tobytes()
            assert cyl.base.pole.tobytes() == \
                cylinders.CapBase(frame.coords(x), delta).pole.tobytes()


def _bad_slices():
    """One frame matrix per broken invariant, named by it."""
    frame = geom.orthonormalize(np.random.default_rng(8).standard_normal((2, 4))).columns
    nan = frame.copy()
    nan[1, 0] = math.nan
    long = frame.copy()
    long[:, 1] *= 1.0 + 1e-9
    skew = frame.copy()
    skew[:, 1] = (skew[:, 1] + 1e-9 * skew[:, 0]) / math.hypot(1.0, 1e-9)
    return {"nan": nan, "non-unit": long, "non-orthogonal": skew,
            "m > d": np.eye(3)[:2]}


@pytest.mark.parametrize("name", ["nan", "non-unit", "non-orthogonal", "m > d"])
def test_frame_stack_check_raises_as_frame(name):
    bad = _bad_slices()[name]
    with pytest.raises((DimensionMismatch, DomainError)) as one:
        geom.Frame(bad)
    # the other four slices are valid frames of bad's shape where one exists
    good = np.eye(*bad.shape) if bad.shape[1] <= bad.shape[0] else np.zeros(bad.shape)
    stack = np.stack([good, good, bad, good, good])
    with pytest.raises(type(one.value), match=re.escape(str(one.value))):
        geom._checked_frames(stack)


def test_cap_pole_check_raises_as_capbase():
    # a set point of norm 1 + 2e-9 gives a pole of that norm in its frame
    sep_set = cappack.build_separated_set(4, 0.6, cappack.PROJECTIVE, seed=1)
    bad = dataclasses.replace(sep_set, points=sep_set.points * (1.0 + 2e-9))
    pole = np.array([1.0 + 2e-9, 0.0, 0.0])
    with pytest.raises(DomainError, match="cap pole must be a unit vector"):
        cylinders.CapBase(pole, 0.3)
    with pytest.raises(DomainError, match="cap pole must be a unit vector"):
        cappack.build_cap_family(bad, 1)
    poles = np.tile([0.0, 1.0, 0.0], (5, 1))
    poles[3] = pole
    with pytest.raises(DomainError, match="cap pole must be a unit vector"):
        cylinders._checked_caps(poles, 0.3)


def test_cap_family_is_checked_once_per_family(monkeypatch):
    sep_set = cappack.build_separated_set(4, 0.6, cappack.PROJECTIVE, seed=1)
    assert len(sep_set) >= 30
    calls = []

    def counted(module, name):
        check = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda stack, *a: calls.append((name, len(stack)))
                            or check(stack, *a))

    counted(geom, "_checked_frames")
    counted(cylinders, "_checked_caps")
    for k in (1, 2, 3):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # k = d - 1 warns
            family = cappack.build_cap_family(sep_set, k)
        assert calls == [("_checked_frames", len(family)),
                         ("_checked_caps", len(family))]


# sha256 of sets (seed 1), of their greedy prefix (the first n_greedy
# points, the bytes the one-at-a-time greedy phase writes) and of their k =
# 1, 2 cap-family frames and poles, as the one-at-a-time frame construction
# wrote them (numpy 2.4 with OpenBLAS on x86-64).  The oracle grid above stops
# at d = 5; the d = 6 sets are over the hull budget, so they are their greedy
# phase alone, and the d = 5 projective (5, 0.3) set pins hull-inserted
# points after a greedy phase stopped at SHORT_STREAK rejections.  The
# geodesic (6, 0.2) and (5, 0.2) sets and the projective (4, 0.1) set are
# uncertified greedy phases that pass _CELL_MEMBERS members early and run
# the cell screen for most of their proposals; their pins were recorded
# before it came in.
SET_PINS = {
    (6, 0.2, cappack.PROJECTIVE): (
        "c20aa7159cbf8c209175543012a1ea98b326594b706c76b76608c6128ad227f1", 1115,
        ("c20aa7159cbf8c209175543012a1ea98b326594b706c76b76608c6128ad227f1", 1115),
        {1: "fe915ff176755af508938a6ec6c3b841750db9ddc9c0d0419eb4414581adafb9",
         2: "312691d901684a9732ef964fe55ee994d89245e1d70ac8a5cb13ac7480f80fb3"}),
    (6, 0.3, cappack.PROJECTIVE): (
        "2abfb911923d17bccd33812761c4f706db003cb1f8e0938672829c0da85e65d4", 168,
        ("2abfb911923d17bccd33812761c4f706db003cb1f8e0938672829c0da85e65d4", 168),
        {1: "dce9b41c8b58c7bacdd3a576f4a496fb5e63ea215809006290ba7306a0aeea40",
         2: "72ef234f7c04bb16953293e8f0bc1f530a6f1fb1fdfb81b1c600f14540e1c4dd"}),
    (5, 0.3, cappack.PROJECTIVE): (
        "79b537ecb740a1a65334640140a280e67d293c6c8814cb1afeac360f637e472c", 91,
        ("e129d86a4217db283445e66b6011ff38f539fe0c5693eed5f6647220efda3132", 61),
        {1: "9791e3c9ad91ffbe2a8e4c65a0897e40e5d4365f653488076c2bb8b7949e1d47",
         2: "38b10bfe5530c094ef4bfabc27221075d44ca96a75f7d39146318e9dde08698a"}),
    (6, 0.2, cappack.GEODESIC): (
        "5e0dccfa07462a12a29c5971cc8f655a3c7921488b201ccb98f8270d0160a117", 2263,
        ("5e0dccfa07462a12a29c5971cc8f655a3c7921488b201ccb98f8270d0160a117", 2263),
        {1: "d3476d3206b8cef5c39b6c20625be2f2552a8fd71a6a4e1576b6f2cb947b267a",
         2: "fe9d051149129c1e14023fa93ada70a791eb86cc739e90c67376975b057b655d"}),
    (5, 0.2, cappack.GEODESIC): (
        "27dc350192183e78cd24a3be220ed986538b7b623f647cecc4fd0280839b4a2c", 706,
        ("27dc350192183e78cd24a3be220ed986538b7b623f647cecc4fd0280839b4a2c", 706),
        {1: "3e75b1c1c7ec1495c0c41a6b57b6ae4a86fa601c18d59bfc048f386ec0b253f5",
         2: "0bbba3e0573e0d4c0561d1549ef5742360f7c62fe5c0a198a12cf10e9f235ad5"}),
    (4, 0.1, cappack.PROJECTIVE): (
        "8535868a0ea2feed4c52876b286c14316e376be6e1b4a564d4a542235504e338", 787,
        ("8535868a0ea2feed4c52876b286c14316e376be6e1b4a564d4a542235504e338", 787),
        {1: "262d9d05a39242ecf87bbca17abee6156c96d3c61a1906f7415f679d2fed1231",
         2: "cf9aad44f9e5c31d35baf7f537f91d8c7f9aac361095e935a4cbeaedc4fd71be"}),
}


def assert_set_pinned(d, delta, metric=cappack.PROJECTIVE):
    set_pin, size, (greedy_pin, n_greedy), frame_pins = SET_PINS[d, delta, metric]
    sep_set = cappack.build_separated_set(d, 2 * delta, metric, seed=1)
    assert len(sep_set) == size
    assert sep_set.maximal == (size > n_greedy)
    assert hashlib.sha256(sep_set.points[:n_greedy].tobytes()).hexdigest() == greedy_pin
    assert hashlib.sha256(sep_set.points.tobytes()).hexdigest() == set_pin
    for k, pin in frame_pins.items():
        h = hashlib.sha256()
        for cyl in cappack.build_cap_family(sep_set, k):
            h.update(cyl.frame.columns.tobytes())
            h.update(cyl.base.pole.tobytes())
        assert h.hexdigest() == pin, k


@pytest.mark.parametrize("delta", [0.2, 0.3])
def test_d6_sets_and_frames_pinned(delta):
    assert_set_pinned(6, delta)


def test_d5_completed_set_and_frames_pinned():
    assert_set_pinned(5, 0.3)


@pytest.mark.parametrize("d,delta,metric", [(6, 0.2, cappack.GEODESIC),
                                            (5, 0.2, cappack.GEODESIC),
                                            (4, 0.1, cappack.PROJECTIVE)])
def test_cell_screened_sets_and_frames_pinned(d, delta, metric):
    assert_set_pinned(d, delta, metric)


# proposal draws of the seed-1 sets before batched draws came in: 512 rows
# each, the last one holding the greedy phase's stop
SET_DRAWS = {(6, 0.2, cappack.PROJECTIVE): 394, (6, 0.2, cappack.GEODESIC): 876,
             (5, 0.2, cappack.GEODESIC): 351, (4, 0.1, cappack.PROJECTIVE): 255,
             (4, 0.3, cappack.PROJECTIVE): 3}


@pytest.mark.parametrize("d,delta,metric", list(SET_DRAWS))
def test_batched_draws_stop_in_the_block_of_the_stop(monkeypatch, d, delta, metric):
    draws, read = [], []
    real_draw, real_insert = geom.uniform_sphere_points, cappack._insert

    def draw(dim, n, rng):
        draws.append((dim, n, rng))
        return real_draw(dim, n, rng)

    def insert(cands, buf, n, cos_sep, metric, rejects=0, budget=math.inf):
        out = real_insert(cands, buf, n, cos_sep, metric, rejects, budget)
        if budget < math.inf:  # a greedy call, not a completion round
            read.append(out[3])
        return out

    monkeypatch.setattr(geom, "uniform_sphere_points", draw)
    monkeypatch.setattr(cappack, "_insert", insert)
    cappack._cached_set.cache_clear()
    try:
        cappack.build_separated_set(d, 2 * delta, metric, seed=1)
    finally:
        cappack._cached_set.cache_clear()
    assert len(draws) == SET_DRAWS[d, delta, metric]
    assert all(dim == d and n == 512 for dim, n, _ in draws)
    # the rows left unread at the last stop lie in the block that holds it
    assert 0 <= 512 * len(draws) - sum(read) < 512
    # every draw is from the proposal stream, and nothing else reads it: the
    # stream stands where as many fresh draws leave it
    rng = draws[0][2]
    assert all(r is rng for _, _, r in draws)
    fresh = np.random.default_rng(np.random.SeedSequence(entropy=(1, 0x5E7)))
    for _ in draws:
        real_draw(d, 512, fresh)
    assert fresh.bit_generator.state == rng.bit_generator.state


# sha256 and size of the seed-7 projective d = 5 sets (recorded before the
# float32 screens ignored the invalid flag): their float32 screens once
# raised "invalid value encountered in matmul" from a 159 x 5 product with
# one surviving column whose levels were all finite
QUIET_PINS = {
    0.2: ("b6744456d3927de241ae53483f0322f4c49ff64e1bc121a589d3678868cdddda", 355),
    0.1: ("e4caa250ee1e21405f761d883388094ed5daf8fe7adef96dcae8988f2dc38551", 5313)}


@pytest.mark.parametrize("delta", list(QUIET_PINS))
def test_float32_screens_raise_no_warning(delta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sep_set = cappack._cached_set.__wrapped__(5, 2 * delta, cappack.PROJECTIVE, 7)
    points = sep_set.points
    assert (hashlib.sha256(points.tobytes()).hexdigest(), len(points)) == QUIET_PINS[delta]

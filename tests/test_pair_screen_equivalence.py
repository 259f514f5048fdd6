"""The screened pole-separation certificate keeps the exact test's decisions.

``multiplicity.pole_conflicts`` skips the exact test on a row block when one
floor clears every pair of it.  Its degree arrays must equal
``pair_oracle``'s, which runs the exact test on every block.  The instances:
the cap families of criterion 5's grid with their cap radius widened until
poles conflict, random poles in d = 2..7, one pole, one row per block, mixed
antipodal flags, non-finite poles and cos a or sin a outside [0, 1], and
pole pairs whose level sits a few ulps either side of their threshold, alone
(the floor is their threshold) and next to a pole that raises the family's
largest threshold.
"""

import math

import numpy as np
import pytest

from cylpack import cappack, geom, multiplicity
import pair_oracle

WIDEN = (1.0, 1.0 + 1e-9, 1.001, 1.2)


def _same_poles(poles, cos_a, sin_a, antipodal) -> np.ndarray:
    args = [np.asarray(a) for a in (poles, cos_a, sin_a, antipodal)]
    with np.errstate(all="ignore"):
        want = pair_oracle.pole_conflicts(*args)
        got = multiplicity.pole_conflicts(*args)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    return got


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("d, delta", [(4, 0.3), (5, 0.2), (6, 0.2), (6, 0.3)])
def test_cap_families_keep_their_conflict_degrees(monkeypatch, d, delta, k):
    # the certificate's own cos a and sin a, from the cap radius widened
    sep_set = cappack._packing_set(d, k, delta, 1, cappack.PROJECTIVE)
    frames, poles, cap_delta, antipodal = cappack._family_stacks(sep_set, k)
    n = len(frames)
    seen = []
    monkeypatch.setattr(multiplicity, "pole_conflicts",
                        lambda *args: seen.append(args) or pair_oracle.pole_conflicts(*args))
    for widen in WIDEN:
        multiplicity.pole_certificate(
            geom.Ball(np.zeros(d), 1.0), frames, poles,
            np.full(n, math.cos(cap_delta * widen)), np.full(n, antipodal),
            lambda: cappack._cap_cylinders(frames[:1], poles[:1], cap_delta, antipodal)[0])
    monkeypatch.undo()
    tops = [_same_poles(*args).max() for args in seen]
    assert len(tops) == len(WIDEN)
    assert tops[0] == 0 and tops[-1] > 0  # the packing, and conflicts
    # the floor clears every pair of the packing: no block forms a threshold
    monkeypatch.setattr(np, "outer", lambda *args: pytest.fail("a block took the exact test"))
    assert not multiplicity.pole_conflicts(*seen[0]).any()


def _random_poles(rng, n: int, d: int, spread: float):
    poles = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, (n, 1))
    a = rng.uniform(0.0, spread, n)
    return poles, np.cos(a), np.sin(a), rng.random(n) < 0.5


@pytest.mark.parametrize("d", range(2, 8))
def test_random_poles_keep_their_conflict_degrees(rng, d):
    for n in (1, 2, 57, 300):
        for spread in (0.05, 0.4, 1.5):
            _same_poles(*_random_poles(rng, n, d, spread))
    # one-sided and antipodal families alone
    poles, cos_a, sin_a, _ = _random_poles(rng, 200, d, 0.6)
    for flag in (False, True):
        _same_poles(poles, cos_a, sin_a, np.full(200, flag))


@pytest.mark.parametrize("n", [1, 100, 333])
def test_one_row_per_block_keeps_the_degrees(monkeypatch, rng, n):
    # with fewer pairs per block than poles, every block holds one row
    for module in (multiplicity, pair_oracle):
        monkeypatch.setattr(module, "POLE_PAIRS", 64)
    for d in (2, 5):
        _same_poles(*_random_poles(rng, n, d, 0.5))


@pytest.mark.parametrize("spread", [0.5, 0.05])
def test_non_finite_and_out_of_range_inputs_keep_their_degrees(rng, spread):
    # with the narrow spread the floor clears every pair but the non-finite
    # pole's, so only those keep the block from skipping the exact test
    poles, cos_a, sin_a, anti = _random_poles(rng, 40, 4, spread)
    bad_poles = []
    for value in (math.nan, math.inf, -math.inf):
        p = poles.copy()
        p[3, 1] = value
        bad_poles.append(p)
    zero = poles.copy()
    zero[5] = 0.0
    bad_poles.append(zero)
    for p in bad_poles:
        assert _same_poles(p, cos_a, sin_a, anti).max() > 0
    for target in (cos_a, sin_a):
        for value in (-0.3, -1.0, 1.5, math.nan, math.inf, -math.inf):
            changed = target.copy()
            changed[7] = value
            args = (changed, sin_a) if target is cos_a else (cos_a, changed)
            _same_poles(poles, *args, anti)
    # cos a spread over [-1, 1]: products of mixed signs
    a = rng.uniform(0.0, math.pi, 40)
    for anti_flags in (anti, ~anti):
        _same_poles(poles, np.cos(a), np.sin(a), anti_flags)
        _same_poles(poles, np.cos(a), -np.sin(a), anti_flags)


def _level(poles: np.ndarray) -> float:
    """The level of poles 0 and 1 as the certificate forms it."""
    p = poles / np.linalg.norm(poles, axis=1)[:, None]
    return float((p @ p.T)[0, 1])


def _ulps(x: float, k: int) -> list[float]:
    """The 2k + 1 doubles from k below x to k above it."""
    lo = x
    for _ in range(k):
        lo = math.nextafter(lo, -math.inf)
    out = [lo]
    for _ in range(2 * k):
        out.append(math.nextafter(out[-1], math.inf))
    return out


@pytest.mark.parametrize("third", [False, True])
@pytest.mark.parametrize("angle", [0.3, 1.1, math.pi - 0.3])
def test_pole_pairs_at_their_threshold_keep_their_degrees(angle, third):
    # poles 0 and 1 meet at the angle; c and s run over the doubles around
    # the root of threshold = level, and some of them meet it exactly.  Alone
    # the pair's threshold is the floor; pole 2, orthogonal to both and of a
    # smaller half-angle, puts the family's largest threshold above the pair's
    d = 3
    margin = 64.0 * d * multiplicity._U
    poles = np.array([[1.0, 0.0, 0.0], [math.cos(angle), math.sin(angle), 0.0],
                      [0.0, 0.0, 1.0]])[:2 + third]
    level = _level(poles)
    for antipodal in ([False] * 3, [True] * 3, [True, False, False]):
        anti = np.array(antipodal[:len(poles)])
        seen = abs(level) if anti[0] or anti[1] else level
        s0 = math.sin(angle / 2.0)
        decisions, ties = set(), 0
        for c in _ulps(math.sqrt(seen + margin + s0 * s0), 20):
            for s in _ulps(s0, 16):
                ties += (c * c - s * s) - margin == seen
                cos_a = np.array([c, c, 0.999])[:len(poles)]
                sin_a = np.array([s, s, math.sqrt(1.0 - 0.999 ** 2)])[:len(poles)]
                decisions.add(int(_same_poles(poles, cos_a, sin_a, anti)[0]))
        assert decisions == {0, 1} and ties > 0, antipodal

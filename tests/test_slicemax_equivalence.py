"""The searched slice maxima against the searches they replaced.

``slicemax_oracle`` keeps the golden-section level search and the
all-pieces piecewise route verbatim.  The concave search now takes parabolic
steps and the piecewise route interpolates only the pieces beside its top
knots; each bracket must still overlap the oracle's, close to SLICE_GAP, and
take fewer probes.
"""

import math

import numpy as np
import pytest

import slicemax_oracle
import test_slice_max
from conftest import random_polytope
from cylpack import bounds, geom, instances


def _oracle_max(monkeypatch, *args, **kwargs) -> bounds.SliceMax:
    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_golden_search", slicemax_oracle._golden_search)
        return bounds.max_translate_slice(*args, **kwargs)


def _oracle_piecewise(body, slice_frame) -> bounds.SliceMax:
    offsets_frame = geom.complement(slice_frame)
    slice_at = bounds._SliceProbes(geom.slice_kernel(body, slice_frame),
                                   offsets_frame)
    return slicemax_oracle._piecewise_max(slice_at, slice_frame.subspace_dim,
                                          body, offsets_frame)


def _check_against_oracle(new, old):
    assert new.method == old.method == "concave-search"
    assert new.hi - new.lo <= bounds.SLICE_GAP * new.hi
    assert new.lo <= old.hi and old.lo <= new.hi  # the brackets overlap


def _rs_inputs(want_d: int, want_k: int):
    """(vertices, frame) of the benchmark's ``slices`` Rogers-Shephard ops
    with this d and k, seeds 1-3 and input sets 0-5, drawn in the order of
    the workload's mix (``perfbench/workloads.py``)."""
    mix = ((2, 1, 22), (3, 2, 22), (5, 3, 12), (4, 3, 2), (3, 1, 3), (4, 1, 1),
           (4, 2, 1))
    for seed in (1, 2, 3):
        for rep in range(6):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, rep, 0)))
            for d, k, count in mix:
                for _ in range(count):
                    if d == 5:  # the ellipsoid ops' family and body seeds
                        rng.integers(1 << 30, size=2)
                        continue
                    vertices = rng.standard_normal((d + 4, d))
                    frame = rng.standard_normal((k, d))
                    if (d, k) == (want_d, want_k):
                        yield vertices, frame


# --- concave search ---------------------------------------------------------

def test_criterion6_brackets_overlap_the_golden_search(monkeypatch):
    new_probes, old_probes = [], []
    for vertices, frame in _rs_inputs(4, 2):
        body = geom.Polytope(vertices)
        comp = geom.complement(geom.orthonormalize(frame))
        new, old = bounds.max_translate_slice(body, comp), _oracle_max(monkeypatch, body, comp)
        _check_against_oracle(new, old)
        new_probes.append(new.probes)
        old_probes.append(old.probes)
    assert len(new_probes) == 18
    assert np.mean(new_probes) <= 0.5 * np.mean(old_probes), (new_probes, old_probes)


@pytest.mark.parametrize("seed", [0, 1])
def test_d5_k3_brackets_overlap_the_golden_search(seed, monkeypatch):
    gen = np.random.default_rng(5000 + seed)
    body = geom.Polytope(gen.standard_normal((9, 5)))
    comp = geom.complement(geom.orthonormalize(gen.standard_normal((3, 5))))
    new = bounds.max_translate_slice(body, comp)
    _check_against_oracle(new, _oracle_max(monkeypatch, body, comp))
    # the golden search took 4641 and 5136 probes on these two
    assert new.probes <= 1600


@pytest.mark.parametrize("d", [3, 4])
def test_base_cases_overlap_the_golden_search(d, monkeypatch):
    # the restricted cases of test_slice_max: polytopes over every base kind,
    # ellipsoids over box bases
    gen = np.random.default_rng(740 + d)
    poly = geom.Polytope(2.0 * random_polytope(d, gen).vertices)
    cases = [(poly, *case) for case in test_slice_max._cases(
        poly, gen, (None, "disk", "box", "cap"))]
    gen = np.random.default_rng(760 + d)
    body = instances.random_ellipsoid(d, gen)
    cases += [(body, *case) for case in test_slice_max._cases(body, gen, ("box",))]
    searched = 0
    for body, slice_frame, offsets_frame, base in cases:
        new = bounds.max_translate_slice(body, slice_frame, base=base,
                                         offsets_frame=offsets_frame)
        if new.method != "concave-search":
            continue
        old = _oracle_max(monkeypatch, body, slice_frame, base=base,
                          offsets_frame=offsets_frame)
        _check_against_oracle(new, old)
        searched += 1
    assert searched >= 8


# --- piecewise route ----------------------------------------------------------

@pytest.mark.parametrize("d", [3, 4])
def test_piecewise_matches_the_all_pieces_route(d):
    gen = np.random.default_rng(860 + d)
    for _ in range(110):
        body = geom.Polytope(gen.standard_normal((d + int(gen.integers(2, 7)), d)))
        comp = geom.complement(geom.orthonormalize(gen.standard_normal((1, d))))
        new, old = bounds.max_translate_slice(body, comp), _oracle_piecewise(body, comp)
        assert new.method == old.method == "piecewise-polynomial"
        assert abs(new.hi - old.hi) <= 1e-12 * old.hi
        assert new.lo <= new.hi and old.lo <= new.hi
        assert new.probes < old.probes


@pytest.mark.parametrize("d", [3, 4])
def test_piecewise_probes_the_knots_and_two_pieces(d):
    # P knots, m - 1 Lobatto nodes on each piece beside a unique top knot,
    # and the final slice at the maximizer
    m = d - 1
    for vertices, frame in _rs_inputs(d, 1):
        body = geom.Polytope(vertices)
        comp = geom.complement(geom.orthonormalize(frame))
        knots = np.unique(body.vertices @ geom.complement(comp).columns[:, 0])
        values = sorted(geom.affine_slice_volume(body, comp, geom.complement(comp).embed([t]))
                        for t in knots)
        assert values[-2] < values[-1] * (1.0 - bounds.KNOT_TIE)  # a unique top
        out = bounds.max_translate_slice(body, comp)
        assert out.method == "piecewise-polynomial"
        assert out.probes <= len(knots) + 2 * m


def test_piecewise_interpolates_beside_every_tied_top_knot():
    # a concave slice profile V(t) = 1 - (t - 1/2)^2 (so V^(1/2) is concave,
    # as Brunn's theorem makes it), whose knots just below its peak tie once
    # rounded: the maximum lies in the piece beside the second of them
    low = 0.5 - 1e-5
    knots = [0.0, low, low + 1e-13, 1.0]
    body = geom.Polytope(np.array([[knots[0], 0.0, 0.0], [knots[1], 1.0, 0.0],
                                   [knots[2], 0.0, 1.0], [knots[3], -1.0, -1.0]]))
    offsets_frame = geom.Frame(np.eye(3)[:, :1])
    profile = bounds._SliceProbes(lambda point: 1.0 - (point[0] - 0.5) ** 2,
                                  offsets_frame)
    assert profile([knots[1]]) == profile([knots[2]])
    out = bounds._piecewise_max(profile, 2, body, offsets_frame)
    assert out.hi >= 1.0 and out.lo == pytest.approx(1.0, abs=1e-15)
    assert math.isclose(out.offset[0], 0.5, abs_tol=1e-6)

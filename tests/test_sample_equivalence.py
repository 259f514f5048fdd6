"""Chunked polytope rejection sampling agrees with the one-shot oracle.

The oracle (``sample_oracle``) tests each proposal block in one piece.  The
sampler in ``cylpack.geom`` tests it in ``SAMPLE_CHUNK``-row chunks and stops
once n points are accepted; it must return the same bytes and leave the
generator where the oracle leaves it (checked by the next ``rng.random()``
draw), at n on both sides of the chunk size, on ns-family hulls, and on the
thin polytope that must raise SamplingFailure on both sides.
"""

import math
import tracemalloc

import numpy as np
import pytest

import sample_oracle
from conftest import inscribed_hull
from cylpack import geom, instances
from cylpack.errors import SamplingFailure


def _assert_same_draw(body, n, seed):
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    got = geom.sample_in_body(body, n, rng_new)
    want = sample_oracle.sample_in_body(body, n, rng_old)
    assert got.tobytes() == want.tobytes()
    assert rng_new.random() == rng_old.random()


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 20_000])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_matches_oracle_on_gaussian_polytopes(d, n):
    rng = np.random.default_rng([d, n])
    body = geom.Polytope(rng.standard_normal((d + 6, d)))
    _assert_same_draw(body, n, seed=[d, n, 1])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_oracle_on_ns_hulls(seed):
    hull = inscribed_hull(instances.random_ns_family(4, seed))
    _assert_same_draw(hull, 20_000, seed)


def test_thin_polytope_fails_on_both_sides():
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    rot = np.array([[c, -s], [s, c]])
    box = np.array([[0, 0], [1, 0], [1, 1e-5], [0, 1e-5]], float) @ rot.T
    poly = geom.Polytope(box)
    with pytest.raises(SamplingFailure) as new:
        geom.sample_in_body(poly, 4000, np.random.default_rng(0))
    with pytest.raises(SamplingFailure) as old:
        sample_oracle.sample_in_body(poly, 4000, np.random.default_rng(0))
    assert str(new.value) == str(old.value)


def test_ns_hull_sample_memory_is_bounded():
    hull = inscribed_hull(instances.random_ns_family(4, 1))
    assert len(hull.equations) > 200  # built outside the measured window
    tracemalloc.start()
    try:
        geom.sample_in_body(hull, 20_000, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20

"""Slice probes of the concave search: a Rogers-Shephard slice maximum of a
d = 4 polytope over 2-d offsets evaluates few slices, and every bracket
still closes to SLICE_GAP.

The inputs are the d = 4, k = 2 criterion-6 ops of the benchmark's
``slices`` workload (``perfbench/workloads.py``), seeds 1-3 and input sets
0-5, rebuilt here from the same draws: each input set draws its ops in the
order of the workload's mix, and this op comes after 22 (2, 1) and 22
(3, 2) Rogers-Shephard ops, 12 ellipsoid packing ops (two seeds each), and
the (4, 3), (3, 1) and (4, 1) ops.
"""

import numpy as np

from cylpack import bounds, geom

MEAN_PROBES = 125  # mean slice evaluations per call, over the 18 inputs


def _criterion6_inputs():
    for seed in (1, 2, 3):
        for rep in range(6):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, rep, 0)))
            for d, k, count in ((2, 1, 22), (3, 2, 22), (5, 3, 12), (4, 3, 2),
                                (3, 1, 3), (4, 1, 1)):
                for _ in range(count):
                    if d == 5:  # the ellipsoid ops' family and body seeds
                        rng.integers(1 << 30, size=2)
                    else:
                        rng.standard_normal((d + 4, d))
                        rng.standard_normal((k, d))
            yield rng.standard_normal((8, 4)), rng.standard_normal((2, 4))


def test_criterion6_slice_maxima_take_few_probes():
    probes = []
    for vertices, frame in _criterion6_inputs():
        body = geom.Polytope(vertices)
        comp = geom.complement(geom.orthonormalize(frame))
        out = bounds.max_translate_slice(body, comp)
        assert out.method == "concave-search"
        assert out.lo == geom.affine_slice_volume(
            body, comp, geom.complement(comp).embed(out.offset))
        assert out.hi - out.lo <= bounds.SLICE_GAP * out.hi
        probes.append(out.probes)
    assert len(probes) == 18
    assert np.mean(probes) <= MEAN_PROBES, probes

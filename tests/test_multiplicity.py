import numpy as np
import pytest

import cylinder_oracle
from cylpack import cappack, cylinders, geom, instances, multiplicity
from cylpack.errors import DomainError


def strip(width, center=0.0):
    frame = geom.Frame(np.array([[1.0], [0.0]]))
    return cylinders.Cylinder(frame, geom.Polytope(
        np.array([[center - width / 2], [center + width / 2]])))


BALL2 = geom.Ball(np.zeros(2), 1.0)


def test_disjoint_strips_multiplicity_one():
    fam = [strip(0.4, -0.5), strip(0.4, 0.5)]
    rep = multiplicity.estimate_multiplicity(BALL2, fam, 5000, seed=1)
    assert rep.max_mult == 1
    assert rep.min_mult == 0  # the gap is never covered


def test_duplicate_strip_doubles_multiplicity():
    fam = [strip(0.8), strip(0.8)]
    rep = multiplicity.estimate_multiplicity(BALL2, fam, 5000, seed=1)
    assert rep.max_mult == 2


def test_cap_family_multiplicity_one():
    ball4 = geom.Ball(np.zeros(4), 1.0)
    sep = cappack.build_separated_set(4, 0.6, seed=3)
    fam = cappack.build_cap_family(sep, 1)
    rep = multiplicity.estimate_multiplicity(ball4, fam, 20_000, seed=3)
    assert rep.max_mult == 1


def test_verify_packing_partition():
    fam = instances.plank_partition(BALL2, 5)
    res = multiplicity.decide(BALL2, fam, 1, 5000, seed=2)
    assert res.ok and res.witness is None


def test_verify_packing_doubled_partition():
    fam = instances.plank_partition(BALL2, 4, r=2)
    assert multiplicity.decide(BALL2, fam, 2, 5000, seed=2).ok
    bad = multiplicity.decide(BALL2, fam, 1, 5000, seed=2)
    assert not bad.ok
    assert bad.witness is not None
    # the witness really does sit in more than one open cylinder
    w = np.asarray(bad.witness)
    count = sum(cylinder_oracle.contains_points(c, w, strict=True)[0] for c in fam)
    assert count > 1


def test_verify_packing_rejects_uncontained_base():
    fam = [strip(3.0)]
    res = multiplicity.decide(BALL2, fam, 1, 2000, seed=2)
    assert not res.ok and "base" in res.reason


def test_verify_covering_partition():
    fam = instances.plank_partition(BALL2, 5)
    res = multiplicity.decide(BALL2, fam, 1, 5000, seed=2, covering=True)
    assert res.ok
    rep = res.report
    assert rep.coverage_fraction == 1.0 and rep.min_mult >= 1


def test_verify_covering_repeated_partition():
    fam = instances.plank_partition(BALL2, 5, r=3)
    assert multiplicity.decide(BALL2, fam, 3, 5000, seed=2, covering=True).ok


def test_verify_covering_gap_witness():
    fam = instances.plank_partition(BALL2, 5)
    del fam[2]
    res = multiplicity.decide(BALL2, fam, 1, 5000, seed=2, covering=True)
    assert not res.ok
    w = np.asarray(res.witness)
    assert not any(cylinder_oracle.contains_points(c, w)[0] for c in fam)


def test_monotonicity_same_seed():
    fam = [strip(0.4, -0.5)]
    rep1 = multiplicity.estimate_multiplicity(BALL2, fam, 4000, seed=9)
    rep2 = multiplicity.estimate_multiplicity(BALL2, fam + [strip(0.4, 0.5)],
                                              4000, seed=9)
    assert rep2.max_mult >= rep1.max_mult
    assert rep2.coverage_fraction >= rep1.coverage_fraction


def test_reports_reproducible_bit_for_bit():
    fam = instances.plank_partition(BALL2, 3)
    a = multiplicity.estimate_multiplicity(BALL2, fam, 3000, seed=17)
    b = multiplicity.estimate_multiplicity(BALL2, fam, 3000, seed=17)
    assert a == b
    assert a.to_json() == b.to_json()


def test_minimum_sample_count():
    with pytest.raises(DomainError):
        multiplicity.estimate_multiplicity(BALL2, [strip(0.5)], 999, seed=0)


def test_report_invariants():
    fam = instances.plank_partition(BALL2, 4)
    rep = multiplicity.estimate_multiplicity(BALL2, fam, 5000, seed=5)
    assert 0 <= rep.min_mult <= rep.max_mult <= len(fam)
    assert (rep.coverage_fraction == 1.0) == (rep.min_mult >= 1)

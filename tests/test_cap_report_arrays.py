"""``cappack.cap_packing_report`` certifies its family straight from the
frame and pole stacks and gives the bytes of the object path
(``cap_oracle.packing_report``: ``build_cap_packing`` cylinders through
``multiplicity.decide``), certified or sampled.  It builds one cylinder for
the certificate's witness, and the whole family only when it must sample.
"""

import json
import re
import warnings

import pytest

import cap_oracle
from cylpack import cappack, cylinders, multiplicity
from cylpack.errors import DomainError

METRICS = (cappack.PROJECTIVE, cappack.GEODESIC)
GRID = [(d, delta, metric, seed) for d in (4, 5, 6) for delta in (0.2, 0.25, 0.3)
        for metric in METRICS for seed in (1, 2, 3)]


def _bytes(report) -> bytes:
    return json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"),
                      default=lambda o: o.item()).encode()


def _pair(d, k, delta, seed, metric, samples):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # k = d - 1 warns
        return (cappack.cap_packing_report(d, k, delta, seed, metric, samples),
                cap_oracle.packing_report(d, k, delta, seed, metric, samples))


@pytest.mark.parametrize("d, delta, metric, seed", GRID)
def test_report_bytes_match_the_object_path(d, delta, metric, seed):
    for k in range(1, d):
        for samples in (0, 20_000):
            new, old = _pair(d, k, delta, seed, metric, samples)
            assert _bytes(new) == _bytes(old), (k, samples)
            if samples:  # the certified path, not a sampled one
                assert new.packing.certificate == multiplicity.CAP_CERTIFICATE


def test_too_few_samples_raise_as_decide():
    with pytest.raises(DomainError) as old:
        cap_oracle.packing_report(4, 1, 0.3, seed=1, packing_samples=500)
    with pytest.raises(type(old.value), match=re.escape(str(old.value))):
        cappack.cap_packing_report(4, 1, 0.3, seed=1, packing_samples=500)


OPEN = multiplicity.MultiplicityReport(0, 2, None, None, None, None, None,
                                       certificate=multiplicity.CAP_CERTIFICATE)


@pytest.mark.parametrize("open_report", [None, OPEN])
def test_an_open_certificate_samples_as_decide(monkeypatch, open_report):
    monkeypatch.setattr(multiplicity, "pole_certificate", lambda *args: open_report)
    for metric in METRICS:
        for k in (1, 2):
            new, old = _pair(4, k, 0.3, 2, metric, 5_000)
            assert new.packing.samples == 5_000
            assert _bytes(new) == _bytes(old), (metric, k)


def test_report_builds_cylinders_only_to_witness_or_sample(monkeypatch):
    calls = []
    certificate = multiplicity.pole_certificate
    post_init = cylinders.Cylinder.__post_init__
    monkeypatch.setattr(cylinders.Cylinder, "__post_init__",
                        lambda cyl: calls.append("cylinder") or post_init(cyl))

    def counted(*args):
        calls.append("certificate")
        return certificate(*args)

    monkeypatch.setattr(multiplicity, "pole_certificate", counted)
    for samples in (0, 20_000):
        calls.clear()
        rep = cappack.cap_packing_report(5, 2, 0.3, seed=1, packing_samples=samples)
        assert rep.n_cylinders >= 30
        if samples:
            assert rep.packing.witness_max is not None
            assert calls == ["certificate", "cylinder"]
        else:
            assert calls == []
    # an open certificate: the family is built once, to sample
    monkeypatch.setattr(multiplicity, "pole_certificate",
                        lambda *args: calls.append("certificate") or OPEN)
    calls.clear()
    rep = cappack.cap_packing_report(5, 2, 0.3, seed=1, packing_samples=2_000)
    assert rep.packing.samples == 2_000
    assert calls == ["certificate"] + ["cylinder"] * rep.n_cylinders


def test_report_warns_at_k_d_minus_one():
    with pytest.warns(UserWarning, match="degenerates to antipodal plank pairs"):
        cappack.cap_packing_report(4, 3, 0.3, seed=1, packing_samples=2_000)

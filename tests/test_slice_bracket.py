"""A level search of the concave slice search whose warm-start bracket rounds
to a single point starts from the whole chord instead of failing.

The inner chords of a nested search can be an ulp wide; the bracket around
the nearest finished search's maximizer then collapses to (x, x), and the
level search used to index a second probe it never took.
"""

import json

import numpy as np
import pytest

from cylpack import bounds, cli, cylinders, geom, instances


def _rng5_third_draw():
    """The d = 5 polytope and 3-frame whose body slice search hit an
    ulp-wide inner chord (0x1.52cd114daa411p-1 to 0x1.52cd114daa412p-1)."""
    rng = np.random.default_rng(5)
    for _ in range(3):
        poly = geom.Polytope(rng.standard_normal((9, 5)))
        frame = geom.orthonormalize(rng.standard_normal((3, 5)))
    return poly, frame


def _kinked(x):
    """A concave, piecewise-linear g peaking at 0.3, probed as a bracket."""
    g = 1.0 - abs(x - 0.3)
    return g, g + 1e-9, (x,)


@pytest.mark.parametrize("probe", [lambda x: (1.0 - (x - 0.3) ** 2,) * 2 + ((x,),),
                                   _kinked])
@pytest.mark.parametrize("x", [-1.0, 2.0, 0.3, 0.6617207915597892])
def test_one_point_start_searches_the_whole_chord(probe, x):
    want = bounds._golden_search(probe, -1.0, 2.0, 1e-7)
    got = bounds._golden_search(probe, -1.0, 2.0, 1e-7, start=(x, x))
    assert (got[0].hex(), got[1].hex(), got[2]) == (want[0].hex(), want[1].hex(), want[2])


def test_ulp_wide_inner_chord_closes_its_bracket():
    poly, frame = _rng5_third_draw()
    comp = geom.complement(frame)
    out = bounds.max_translate_slice(poly, comp)
    assert out.method == "concave-search"
    assert out.lo == geom.affine_slice_volume(
        poly, comp, geom.complement(comp).embed(out.offset))
    assert out.hi - out.lo <= bounds.SLICE_GAP * out.hi


def test_cli_verify_of_the_ulp_chord_body_reports(tmp_path, capsys):
    # one k = 2 cylinder on the frame, its disk base at the shadow's centroid
    # with half the centroid's distance to the nearest shadow facet
    poly, frame = _rng5_third_draw()
    shadow = geom.project_body(poly, frame)
    eq = shadow.equations
    reach = float(np.min(-(eq[:, -1] + eq[:, :-1] @ shadow.centroid)))
    cyl = cylinders.Cylinder(frame, geom.Ball(shadow.centroid, 0.5 * reach))
    path = tmp_path / "ulp5.json"
    path.write_text(json.dumps(instances.packing_instance(poly, [cyl], 1, {})))
    assert cli.main(["verify", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    (rep,) = report["reports"]
    assert rep["theorem_id"] == "packing_upper_general" and rep["passed"]
    assert "body concave-search, restricted concave-search" in rep["notes"]

"""One geometry through every subsystem, end to end.

The running example is the cylinder pair: two functions on the same
two-dimensional ambient space with the same critical torus, whose
vanishing-cycle classes differ by exactly one square-root torsor unit.
The test walks it through the zeta pipeline, the arc oracle, the
stabilization transport, atlas gluing with pushforward, and the CLI.
"""

import json

from motivic import (ArcContext, EmbeddingDatum, HalfLaurent, Motive,
                     expand_series, fixtures, generator, glue, mot_equal,
                     pullback, pushforward_to_point, stabilize_pullback,
                     upsilon, vanishing_cycle, zeta_function, zeta_truncated)
from motivic.cli import main
from motivic.registry import POINT

ONE = HalfLaurent.const(1)
L = HalfLaurent.L()


def test_full_pipeline_story(tmp_path, capsys):
    # resolution route: the two classes separate by a torsor unit
    reg, plain, twisted = fixtures.cylinder_pair()
    p1 = generator(reg, "Gm", "p1")
    v_plain = vanishing_cycle(plain)
    v_twisted = vanishing_cycle(twisted)
    assert v_plain == Motive.half_power(reg, "Gm", -1)
    assert v_twisted == v_plain.odot(upsilon(reg, p1))
    assert not mot_equal(v_plain, v_twisted)

    # arc oracle confirms the twisted zeta series with no resolution input
    mono = fixtures.x2y().monomial
    ctx = ArcContext(reg, "Gm", ("p1",))
    assert zeta_truncated(mono, 12, ctx) == \
        expand_series(zeta_function(twisted), 12, reg)

    # on the common double cover the torsor trivializes and the two classes
    # become equal
    assert pullback(reg, "sq", v_plain) == pullback(reg, "sq", v_twisted)

    # read as stabilization: transporting the plain class along an embedding
    # carrying the torsor gives the twisted class, and transporting back
    # restores it
    emb = EmbeddingDatum("x2-chart", "x2y-chart", 2, 2, p1)
    assert stabilize_pullback(v_plain, emb) == v_twisted
    assert stabilize_pullback(v_twisted, emb) == v_plain

    # the shipped atlas is exactly these two charts; its glued value is the
    # plain class and its pushforward multiplies by the declared torus class
    fx = fixtures.atlas_cylinder()
    assert fx.atlas.charts[0].mf == v_plain
    assert fx.atlas.charts[1].mf == v_twisted
    glued = glue(fx.atlas)
    assert glued.values["R"] == v_plain
    total = pushforward_to_point(fx.atlas, glued)
    assert total == Motive.coefficient(fx.registry, POINT,
                                       HalfLaurent.power(-1) * (L - ONE))

    # the same story through the CLI, via a job file on disk
    job = fixtures.load_fixture_job("atlas_cylinder")
    path = tmp_path / "story.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    assert main(["glue", "--job", str(path)]) == 0
    out = capsys.readouterr().out
    assert "region R: L^(-1/2)" in out
    assert "pushforward: -L^(-1/2) + L^(1/2)" in out

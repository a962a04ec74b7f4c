"""Figure presets: every field of every curve, and the ids they accept."""

import hashlib

import pytest

from kerrstokes.figures import FIGURE_IDS, figure_preset

# sha256 of repr(figure_preset(fid)).  The golden CSV digests see only the
# spectra, so they miss a change to a field that moves no spectrum (the
# medium, the normalization, a label or a description); these see it.
PRESET_REPR_SHA256 = {
    1: "58184706220751c11320033effb88fad187917aa832f26f8526dce4c54975144",
    2: "16dd62e05626ff405a0ecd65cfe0a27ffb7c569fe3e4bf7770546f94d477d4d6",
    3: "4bcd29841dfcabdda3d832bc0ab569c65ce6c58a604ddfe67feca5b03a280367",
    4: "be8a8000dd3ccfc6119d56f726651b04e41319e1374f445051ab3935e7c8aa8d",
    5: "15af5ae166178cf8024a81b20f23c2bd1ffa4778a67e537386deff6cdb9bb39f",
    6: "550b90772f729b2a9e2a75423677a688c5738dd0bf5162cb12772791bf54c877",
    8: "2a6b4348ba1766e02ee1ba293e504e16e25773d43fd548ef31a03001980e59bf",
    9: "72ec54753e09e7638c70c9654e2361a552851540532455f8accd0464183dd535",
    10: "f01aaf53e70eeb9cb081a04268eec8e61909de6705f163e9b158029b7e63a14d",
    11: "23e57ba7a4808d9a3933ead6d9e04e088540e3802e8e2fa776d1fa55526293c8",
    12: "6c824cf739b1934d1476faeee61b826545029719b824655384fa22043514e319",
}


def test_every_data_figure_is_pinned():
    assert sorted(PRESET_REPR_SHA256) == [fid for fid in FIGURE_IDS if fid != 7]


@pytest.mark.filterwarnings("ignore::kerrstokes.errors.ApproximationWarning")
@pytest.mark.parametrize("figure_id", sorted(PRESET_REPR_SHA256))
def test_preset_repr_is_pinned(figure_id):
    digest = hashlib.sha256(repr(figure_preset(figure_id)).encode()).hexdigest()
    assert digest == PRESET_REPR_SHA256[figure_id]


@pytest.mark.parametrize(
    "figure_id", [0, 13, -1, True, False, 1.0, 7.0, "1", [1], None], ids=repr
)
def test_an_id_that_is_no_data_figure_is_unknown(figure_id):
    with pytest.raises(ValueError, match="unknown figure id"):
        figure_preset(figure_id)


def test_the_schematic_has_no_data():
    with pytest.raises(ValueError, match="figure 7 is a measurement-layout schematic"):
        figure_preset(7)

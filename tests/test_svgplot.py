"""The static SVG line plot behind the regenerated figures."""

import math

import pytest

from rssb.svgplot import line_plot


def test_each_series_is_one_polyline(tmp_path):
    path = tmp_path / "plot.svg"
    line_plot(path, [([0, 1, 2], [1.0, 3.0, 2.0], "a"),
                     ([0, 2], [0.5, 0.5], "b")], title="t")
    svg = path.read_text()
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")
    lines = [line for line in svg.splitlines() if line.startswith("<polyline")]
    assert [line.split('"')[1].count(",") for line in lines] == [3, 2]


@pytest.mark.parametrize("x, y", [
    ([0, 1, 2], [1.0, math.nan, 2.0]),
    ([0, 1, 2], [1.0, math.inf, 2.0]),
    ([0, math.nan, 2], [1.0, 3.0, 2.0]),
    ([0, 1, -math.inf], [1.0, 3.0, 2.0]),
], ids=["nan-y", "inf-y", "nan-x", "inf-x"])
def test_a_point_that_is_not_finite_is_refused(tmp_path, x, y):
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError, match="finite"):
        line_plot(path, [([0, 1], [0.0, 1.0], "ok"), (x, y, "bad")])
    assert not path.exists()

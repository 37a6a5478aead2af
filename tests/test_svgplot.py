import re

import pytest

from waveheat.svgplot import Series, svg_plot


@pytest.mark.parametrize("log, x, y", [
    ("logx", [0.0, 1.0, 10.0], [1.0, 2.0, 3.0]),
    ("logy", [1.0, 2.0, 3.0], [0.0, 1.0, 10.0]),
], ids=["logx", "logy"])
def test_log_axis_drops_nonpositive_points(tmp_path, log, x, y):
    path = tmp_path / "plot.svg"
    svg_plot(path, [Series(x=x, y=y)], **{log: True})
    points = re.search(r'<polyline points="([^"]*)"', path.read_text()).group(1)
    assert len(points.split()) == 2


@pytest.mark.parametrize("log", ["logx", "logy"])
def test_nothing_positive_on_a_log_axis(tmp_path, log):
    with pytest.raises(ValueError, match="nothing to plot"):
        svg_plot(tmp_path / "plot.svg", [Series(x=[-1.0, 0.0], y=[-2.0, 0.0])], **{log: True})

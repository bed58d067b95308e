import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from toruslab.errors import EmptyPlot, InvalidValue, NumericalBlowup
from toruslab.integrators import IntegratorConfig, integrate
from toruslab.phase import MixedPoint
from toruslab.svgplot import PlotStyle, plot_svg, ticks, trajectory_series
from toruslab.systems import (
    HAM_COMPACT,
    HAM_UNIQUE,
    SystemParams,
    build_system,
    canonical_torus,
    nearby_torus,
    torus_point,
)

NS = {"svg": "http://www.w3.org/2000/svg"}


def polylines(doc):
    root = ET.fromstring(doc)
    out = []
    for el in root.findall("svg:polyline", NS):
        pts = [tuple(map(float, pair.split(",")))
               for pair in el.get("points").split()]
        out.append(np.array(pts))
    return out


class TestTicks:
    def test_simple_decade(self):
        assert ticks(0.0, 10.0) == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_negative_range(self):
        tk = ticks(-1.0, 1.0)
        assert 0.0 in tk
        assert tk == sorted(tk)
        assert all(-1.0 <= v <= 1.0 for v in tk)

    def test_degenerate_range(self):
        assert ticks(3.0, 3.0) == [3.0]

    def test_bad_range(self):
        with pytest.raises(InvalidValue):
            ticks(1.0, 0.0)
        with pytest.raises(InvalidValue):
            ticks(0.0, math.inf)


class TestPlot:
    def test_document_shape(self):
        doc = plot_svg([("a", [(0.0, 1.0), (1.0, 2.0)])])
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        assert root.get("width") == "800"
        assert root.get("height") == "600"

    def test_constant_series_is_horizontal(self):
        doc = plot_svg([("flat", [(t, 2.5) for t in range(10)])])
        (line,) = polylines(doc)
        assert len(np.unique(line[:, 1])) == 1

    def test_escaping_height_is_monotone(self):
        sys = build_system(SystemParams(HAM_UNIQUE, n=1, m=0,
                                        omega=(1.0,)))
        p0 = MixedPoint.of(sys.layout, [0.4, 0.0, 0.1, 0.1])
        try:
            traj = integrate(sys, p0, 4.0, IntegratorConfig(h=1e-3))
        except NumericalBlowup as e:
            traj = e.trajectory
        (series,) = trajectory_series(traj, labels=("y",))
        doc = plot_svg([series])
        (line,) = polylines(doc)
        # pixel y decreases as the value climbs
        assert np.all(np.diff(line[:, 1]) <= 0.0)
        assert line[0, 1] - line[-1, 1] > 100.0

    def test_slope_overlay_coincides(self):
        sys = build_system(SystemParams(HAM_COMPACT, n=1, m=0,
                                        omega=(1.0,)))
        spec = nearby_torus(sys, (math.pi / 2,))
        p0 = torus_point(spec, [0.0, 0.0])
        traj = integrate(sys, p0, 200.0,
                         IntegratorConfig(h=1e-2), store_every=10)
        (measured,) = trajectory_series(traj, labels=("y",))
        rate = spec.predicted_frequency[-1]
        overlay = np.stack([traj.times, rate * traj.times], axis=1)
        doc = plot_svg([measured, ("predicted", overlay)])
        a, b = polylines(doc)
        assert a.shape == b.shape
        # the oscillation about the mean slope stays within a pixel or two
        assert np.max(np.abs(a[:, 1] - b[:, 1])) < 3.0

    def test_long_series_thinned(self):
        t = np.linspace(0.0, 1.0, 100000)
        doc = plot_svg([("big", np.stack([t, np.sin(t)], axis=1))])
        (line,) = polylines(doc)
        assert len(line) <= 2001
        assert line[-1, 0] == pytest.approx(780.0, abs=0.01)

    def test_deterministic(self):
        data = [("s", [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)])]
        assert plot_svg(data) == plot_svg(data)

    def test_label_is_escaped(self):
        doc = plot_svg([("u<1>&", [(0.0, 0.0), (1.0, 1.0)])])
        assert "u&lt;1&gt;&amp;" in doc
        ET.fromstring(doc)  # stays well-formed

    def test_title_and_axis_labels(self):
        style = PlotStyle(title="heights", y_label="y")
        doc = plot_svg([("a", [(0.0, 0.0), (1.0, 1.0)])], style)
        texts = [el.text for el in
                 ET.fromstring(doc).findall("svg:text", NS)]
        for want in ("heights", "t", "y"):
            assert want in texts

    def test_empty_rejected(self):
        with pytest.raises(EmptyPlot):
            plot_svg([])
        with pytest.raises(EmptyPlot):
            plot_svg([("a", [])])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidValue):
            plot_svg([("a", [(0.0, math.nan), (1.0, 0.0)])])

    def test_angle_columns_unwrap(self):
        sys = build_system(SystemParams(HAM_UNIQUE, n=1, m=0,
                                        omega=(1.0,)))
        p0 = torus_point(canonical_torus(sys), [0.0])
        traj = integrate(sys, p0, 50.0,
                         IntegratorConfig(h=1e-2), store_every=10)
        (phi,) = trajectory_series(traj, labels=("phi_1",))
        assert phi[1][-1, 1] == pytest.approx(50.0, abs=1e-6)

"""Tests for point-to-segment distances and route-graph segment export."""

import numpy as np
import pytest

from repro.data.imu import court_route_graph
from repro.geometry.segments import route_graph_segments, segment_distances


class TestSegmentDistances:
    def test_point_on_segment_zero(self):
        segments = np.array([[[0.0, 0.0], [10.0, 0.0]]])
        d = segment_distances(np.array([[5.0, 0.0]]), segments)
        assert d[0] == pytest.approx(0.0, abs=1e-12)

    def test_perpendicular_distance(self):
        segments = np.array([[[0.0, 0.0], [10.0, 0.0]]])
        d = segment_distances(np.array([[5.0, 3.0]]), segments)
        assert d[0] == pytest.approx(3.0)

    def test_beyond_endpoint_uses_endpoint(self):
        segments = np.array([[[0.0, 0.0], [10.0, 0.0]]])
        d = segment_distances(np.array([[13.0, 4.0]]), segments)
        assert d[0] == pytest.approx(5.0)

    def test_nearest_of_multiple(self):
        segments = np.array(
            [[[0.0, 0.0], [10.0, 0.0]], [[0.0, 100.0], [10.0, 100.0]]]
        )
        d = segment_distances(np.array([[5.0, 99.0]]), segments)
        assert d[0] == pytest.approx(1.0)

    def test_degenerate_segment_is_point(self):
        segments = np.array([[[2.0, 2.0], [2.0, 2.0]]])
        d = segment_distances(np.array([[5.0, 6.0]]), segments)
        assert d[0] == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            segment_distances(np.zeros((1, 2)), np.zeros((0, 2, 2)))
        with pytest.raises(ValueError):
            segment_distances(np.zeros((1, 2)), np.zeros((3, 2)))

    def test_single_point_must_be_2d(self):
        segments = np.array([[[0.0, 0.0], [10.0, 0.0]]])
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            segment_distances(np.array([5.0, 3.0]), segments)
        assert segment_distances(np.array([[5.0, 3.0]]), segments)[0] == 3.0

    def test_extra_columns_rejected(self):
        segments = np.array([[[0.0, 0.0], [10.0, 0.0]]])
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            segment_distances(np.zeros((4, 3)), segments)

    def test_empty_points(self):
        segments = np.array([[[0.0, 0.0], [10.0, 0.0]]])
        assert segment_distances(np.zeros((0, 2)), segments).shape == (0,)


def _broadcast_reference(points, segments):
    """The former ``(N, S, 2)`` broadcast kernel, kept as the oracle."""
    start = segments[:, 0, :][None, :, :]
    direction = (segments[:, 1, :] - segments[:, 0, :])[None, :, :]
    length_sq = np.sum(direction**2, axis=-1)
    rel = points[:, None, :] - start
    t = np.sum(rel * direction, axis=-1) / np.where(length_sq > 0, length_sq, 1.0)
    t = np.clip(t, 0.0, 1.0)
    nearest = start + t[:, :, None] * direction
    distance = np.linalg.norm(points[:, None, :] - nearest, axis=-1)
    return distance.min(axis=1)


class TestSegmentMajorKernelBitwise:
    @pytest.mark.parametrize("n", [1, 200, 6400])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_broadcast_reference(self, n, seed):
        rng = np.random.default_rng([seed, n])
        scale = 10.0 ** rng.uniform(-2, 3)
        segments = rng.normal(size=(int(rng.integers(2, 24)), 2, 2)) * scale
        segments[::4, 1] = segments[::4, 0]  # zero-length segments
        points = rng.normal(size=(n, 2)) * scale
        # points exactly on endpoints (both ends) and far away
        ends = segments.reshape(-1, 2)
        on = min(n, len(ends))
        points[:on] = ends[:on]
        if n > on:
            far = min(n - on, 50)
            points[on : on + far] = rng.normal(size=(far, 2)) * scale * 1e6
        np.testing.assert_array_equal(
            segment_distances(points, segments),
            _broadcast_reference(points, segments),
            strict=True,
        )

    def test_matches_reference_on_court_route(self):
        route = court_route_graph()
        segments = route_graph_segments(route.nodes, route.adjacency)
        points = np.random.default_rng(7).uniform(-5.0, 60.0, size=(6400, 2))
        assert np.array_equal(
            segment_distances(points, segments),
            _broadcast_reference(points, segments),
        )


class TestRouteGraphSegments:
    def test_each_edge_once(self):
        route = court_route_graph()
        segments = route_graph_segments(route.nodes, route.adjacency)
        n_edges = sum(len(v) for v in route.adjacency.values()) // 2
        assert len(segments) == n_edges

    def test_nodes_have_zero_distance(self):
        route = court_route_graph()
        segments = route_graph_segments(route.nodes, route.adjacency)
        d = segment_distances(route.nodes, segments)
        np.testing.assert_allclose(d, 0.0, atol=1e-9)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            route_graph_segments(np.zeros((2, 2)), {0: [], 1: []})

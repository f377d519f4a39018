"""Distance from points to line-segment sets (route polylines)."""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_2d


def segment_distances(points: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest of a set of segments.

    Parameters
    ----------
    points:
        (N, 2) query points.
    segments:
        (S, 2, 2) array of segments: ``segments[s, 0]`` is one endpoint,
        ``segments[s, 1]`` the other.

    Returns
    -------
    (N,) minimum Euclidean distance to any segment.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be (N, 2), got {points.shape}")
    segments = np.asarray(segments, dtype=float)
    if segments.ndim != 3 or segments.shape[1:] != (2, 2):
        raise ValueError(f"segments must be (S, 2, 2), got {segments.shape}")
    if len(segments) == 0:
        raise ValueError("need at least one segment")
    # Segment-major (S, N) planes, one per coordinate: each point is a
    # column, so no (N, S, 2) temporary is built and the reduction runs
    # over the short segment axis.  Taking the square root after the
    # minimum is exact because sqrt is monotone and correctly rounded.
    start = segments[:, 0, :]
    direction = segments[:, 1, :] - start
    length_sq = np.sum(direction**2, axis=-1)[:, None]  # (S, 1)
    sx, sy = start[:, :1], start[:, 1:]
    dx, dy = direction[:, :1], direction[:, 1:]
    px, py = points[:, 0], points[:, 1]
    t = (px - sx) * dx
    t += (py - sy) * dy
    t /= np.where(length_sq > 0, length_sq, 1.0)
    np.clip(t, 0.0, 1.0, out=t)
    ex = px - (sx + t * dx)
    ey = py - (sy + t * dy)
    ex *= ex
    ey *= ey
    ex += ey
    return np.sqrt(ex.min(axis=0))


def route_graph_segments(nodes: np.ndarray, adjacency: dict) -> np.ndarray:
    """(S, 2, 2) segment array from a route graph (each edge once)."""
    nodes = check_2d(nodes, "nodes")
    segments = []
    for i, neighbors in adjacency.items():
        for j in neighbors:
            if i < j:  # undirected: emit each edge once
                segments.append([nodes[i], nodes[j]])
    if not segments:
        raise ValueError("route graph has no edges")
    return np.array(segments)

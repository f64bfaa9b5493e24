"""Area of the convex hull of a 2D point set."""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, QhullError


def convex_hull_area(points) -> float:
    """Area of the convex hull (qhull); 0 for fewer than 3 points and for
    collinear, duplicate or identical points, on which qhull finds no hull."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 3:
        return 0.0
    try:
        return float(ConvexHull(pts).volume)  # a 2D hull's volume is its area
    except QhullError:
        return 0.0

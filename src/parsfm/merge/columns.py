"""Reconstructions as columns for the merge.

A `Columns` holds the points of one reconstruction as arrays: their ids and
(n, 3) coordinates in `points` order, which gives each point its row, and one
observation table of point row, image and keypoint, grouped by row with each
track in its own order. The cameras stay the dict of (intrinsics, pose).
"""

from __future__ import annotations

import numpy as np

from ..engine.reconstruction import observation_arrays
from .correspond import feature_keys


def _ranges(lo, n):
    """The indices of the ranges [lo, lo + n), one range after the other."""
    return np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)


class Columns:
    """One reconstruction's points and observations as arrays."""

    def __init__(self, recon):
        self.cameras, self.registered_order = recon.cameras, recon.registered_order
        self.pids = np.fromiter(recon.points, np.int64, len(recon.points))
        self.xyz = np.array([xyz for xyz, _ in recon.points.values()], float).reshape(-1, 3)
        self.set_observations(*observation_arrays(recon, recon.points))

    def set_observations(self, row, image, keypoint):
        """Take a new observation table, grouped by row."""
        self.row, self.image, self.keypoint = row, image, keypoint
        self.start = np.searchsorted(row, np.arange(len(self.pids) + 1))
        self._by_pid = self._by_key = None

    def num_cameras(self) -> int:
        return len(self.cameras)

    def rows_of(self, pids):
        """The row of each point id."""
        if self._by_pid is None:
            self._by_pid = np.argsort(self.pids)
        return self._by_pid[np.searchsorted(self.pids, pids, sorter=self._by_pid)]

    def observations(self, rows):
        """The observations of the points at rows (an array), in that order,
        each track in its own: (index into rows, image ids, keypoints)."""
        n = self.start[rows + 1] - self.start[rows]
        at = _ranges(self.start[rows], n)
        return np.repeat(np.arange(len(rows)), n), self.image[at], self.keypoint[at]

    def holders(self, keys):
        """(i, row) for every observation of the feature keys[i]."""
        if self._by_key is None:
            own = feature_keys(self.image, self.keypoint)
            order = np.argsort(own)
            self._by_key = own[order], self.row[order]
        sorted_keys, rows = self._by_key
        lo = np.searchsorted(sorted_keys, keys, "left")
        n = np.searchsorted(sorted_keys, keys, "right") - lo
        return np.repeat(np.arange(len(keys)), n), rows[_ranges(lo, n)]

    def owners(self, keys):
        """The row of the point that owns each feature key, -1 for none: a
        feature in two tracks belongs to the later point, the higher row."""
        out = np.full(len(keys), -1, np.int64)
        np.maximum.at(out, *self.holders(keys))
        return out


def as_columns(recon) -> Columns:
    """recon itself when it is already columns, else its columns."""
    return recon if isinstance(recon, Columns) else Columns(recon)

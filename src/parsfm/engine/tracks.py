"""Feature tracks: transitive closure of pair-wise matches via union-find."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Track:
    """Feature observations of one physical scene point."""

    point_id: int
    observations: list  # (image_id, keypoint_idx), one per image


def build_tracks(pairs) -> list:
    """Tie pair-wise matches into tracks.

    Tracks observing one image twice are inconsistent and dropped, as are
    tracks shorter than two observations. A feature is the key
    image << 32 | keypoint while tracks are built; track ids follow the
    order of the union-find roots.
    """
    parent = {}

    def find(x):
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for pair in pairs:
        a, b = int(pair.image_id_a) << 32, int(pair.image_id_b) << 32
        for ia, ib in pair.matches.tolist():
            ra, rb = find(a | ia), find(b | ib)
            if ra != rb:
                parent[ra] = rb

    groups = {}
    for node in parent:
        groups.setdefault(find(node), []).append(node)
    tracks = []
    for root in sorted(groups):
        obs = [(key >> 32, key & 0xFFFFFFFF) for key in sorted(groups[root])]
        images = {img for img, _ in obs}
        if len(obs) >= 2 and len(images) == len(obs):  # else two keypoints of one image
            tracks.append(Track(len(tracks), obs))
    return tracks

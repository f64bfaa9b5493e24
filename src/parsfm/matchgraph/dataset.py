"""Line-oriented text dataset format.

Sections (any order, one record per line):
  INTRINSICS fx fy cx cy            shared calibrated pinhole model
  IMAGE id width height
  KEYPOINT image_id x y scale       in keypoint-index order per image
  DESC image_id idx v0 .. vD
  MATCH id_a id_b idx_a idx_b

A dataset may carry MATCH records instead of DESC records, in which case
retrieval and verification are bypassed downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry import CameraIntrinsics
from .types import FeatureSet, ImageMeta, MatchPair

_F = "%.17g"


@dataclass
class Dataset:
    metas: dict = field(default_factory=dict)  # image_id -> ImageMeta
    features: dict = field(default_factory=dict)  # image_id -> FeatureSet
    pairs: list = field(default_factory=list)  # list of MatchPair
    intrinsics: dict = field(default_factory=dict)  # image_id -> CameraIntrinsics

    @property
    def has_matches(self) -> bool:
        return bool(self.pairs)

    @property
    def has_descriptors(self) -> bool:
        return any(f.descriptors.size for f in self.features.values())


def write_dataset(path, dataset: Dataset) -> None:
    with open(path, "w") as fh:
        if dataset.intrinsics:
            k = dataset.intrinsics[min(dataset.intrinsics)]
            fh.write(
                "INTRINSICS %s %s %s %s\n"
                % tuple(_F % v for v in (k.focal_x, k.focal_y, k.principal_x, k.principal_y))
            )
        for iid in sorted(dataset.metas):
            m = dataset.metas[iid]
            fh.write(f"IMAGE {iid} {m.width} {m.height}\n")
        for iid in sorted(dataset.features):
            fs = dataset.features[iid]
            for x, y, s in fs.keypoints:
                fh.write(f"KEYPOINT {iid} {_F % x} {_F % y} {_F % s}\n")
        for iid in sorted(dataset.features):
            fs = dataset.features[iid]
            if fs.descriptors.size == 0:
                continue
            for idx, d in enumerate(fs.descriptors):
                fh.write(
                    f"DESC {iid} {idx} " + " ".join(_F % v for v in d) + "\n"
                )
        for pair in sorted(dataset.pairs, key=lambda p: p.key()):
            a, b = pair.image_id_a, pair.image_id_b
            for ia, ib in pair.matches:
                fh.write(f"MATCH {a} {b} {ia} {ib}\n")


def read_dataset(path) -> Dataset:
    metas = {}
    keypoints = {}
    descs = {}
    matches = {}
    shared_k = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tok = line.split()
            if not tok or tok[0].startswith("#"):
                continue
            kind = tok[0]
            if kind == "INTRINSICS":
                shared_k = tuple(float(v) for v in tok[1:5])
            elif kind == "IMAGE":
                iid, w, h = int(tok[1]), int(tok[2]), int(tok[3])
                if iid < 0 or iid in metas:
                    raise ValueError(f"{path}:{lineno}: negative or duplicate IMAGE id {iid}")
                metas[iid] = ImageMeta(iid, w, h)
            elif kind == "KEYPOINT":
                keypoints.setdefault(int(tok[1]), []).append(
                    (float(tok[2]), float(tok[3]), float(tok[4]))
                )
            elif kind == "DESC":
                descs.setdefault(int(tok[1]), {})[int(tok[2])] = [
                    float(v) for v in tok[3:]
                ]
            elif kind == "MATCH":
                a, b = int(tok[1]), int(tok[2])
                ia, ib = int(tok[3]), int(tok[4])
                if a < b:
                    matches.setdefault((a, b), []).append((ia, ib, lineno))
                else:
                    matches.setdefault((b, a), []).append((ib, ia, lineno))
            else:
                raise ValueError(f"unknown record type {kind!r}")

    features = {}
    for iid, kps in keypoints.items():
        kp = np.array(kps, dtype=float)
        dmap = descs.get(iid, {})
        if dmap:
            dim = len(next(iter(dmap.values())))
            desc = np.zeros((len(kp), dim))
            for idx, v in dmap.items():
                desc[idx] = v
        else:
            desc = np.zeros((len(kp), 0))
        features[iid] = FeatureSet(iid, kp, desc)
    # an image without keypoints gets an empty feature set as wide as the rest
    dim = next((len(v) for dmap in descs.values() for v in dmap.values()), 0)
    for iid in sorted(metas.keys() - features.keys()):
        features[iid] = FeatureSet(iid, np.zeros((0, 3)), np.zeros((0, dim)))

    pairs = []
    for (a, b), rows in sorted(matches.items()):
        m = np.array(rows, dtype=int)
        for img, col in ((a, 0), (b, 1)):
            if img not in metas:
                raise ValueError(f"{path}:{m[0, 2]}: MATCH names image {img} with no IMAGE record")
            bad = np.flatnonzero((m[:, col] < 0) | (m[:, col] >= len(keypoints.get(img, ()))))
            if bad.size:
                kp, line = m[bad[0], col], m[bad[0], 2]
                raise ValueError(f"{path}:{line}: MATCH keypoint {kp} not in image {img}")
        pairs.append(MatchPair(a, b, m[:, :2].copy()))

    intrinsics = {}
    if shared_k is not None:
        fx, fy, cx, cy = shared_k
        for iid, m in metas.items():
            intrinsics[iid] = CameraIntrinsics(fx, fy, cx, cy, m.width, m.height)
    return Dataset(metas=metas, features=features, pairs=pairs, intrinsics=intrinsics)

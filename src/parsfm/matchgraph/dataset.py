"""Line-oriented text dataset format.

Sections (any order, one record per line):
  INTRINSICS fx fy cx cy            shared calibrated pinhole model
  IMAGE id width height
  KEYPOINT image_id x y scale       in keypoint-index order per image
  DESC image_id idx v0 .. vD
  MATCH id_a id_b idx_a idx_b

A dataset may carry MATCH records instead of DESC records, in which case
retrieval and verification are bypassed downstream. Every keypoint of an
image with DESC records has one, all of one dimension; IMAGE records need
the INTRINSICS record.
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


def _keypoint_line(path, iid, idx):
    """Line of the KEYPOINT record of keypoint idx of image iid."""
    with open(path) as fh:
        own = (n for n, line in enumerate(fh, 1) if line.split()[:2] == ["KEYPOINT", str(iid)])
        return next(n for k, n in enumerate(own) if k == idx)


def read_dataset(path) -> Dataset:
    """Parse a dataset file. A malformed record raises ValueError starting
    with its 'path:line'."""
    metas = {}
    keypoints = {}
    descs = {}  # image id -> {keypoint index: (values, line)}
    matches = {}
    shared_k = first_image = dim = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tok = line.split()
            if not tok or tok[0].startswith("#"):
                continue
            kind = tok[0]
            record = None
            try:
                if kind == "MATCH" and len(tok) == 5:
                    a, b, ia, ib = int(tok[1]), int(tok[2]), int(tok[3]), int(tok[4])
                    if a < b:
                        matches.setdefault((a, b), []).append((ia, ib, lineno))
                    else:
                        matches.setdefault((b, a), []).append((ib, ia, lineno))
                    continue
                if kind == "KEYPOINT" and len(tok) == 5:
                    keypoints.setdefault(int(tok[1]), []).append(
                        (float(tok[2]), float(tok[3]), float(tok[4]))
                    )
                    continue
                if kind == "INTRINSICS" and len(tok) == 5:
                    shared_k = tuple(float(v) for v in tok[1:])
                    continue
                if kind == "IMAGE" and len(tok) == 4:
                    record = int(tok[1]), int(tok[2]), int(tok[3])
                elif kind == "DESC" and len(tok) > 3:
                    record = int(tok[1]), int(tok[2]), [float(v) for v in tok[3:]]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric field in {kind} record") from None
            if record is None:
                if kind not in ("INTRINSICS", "IMAGE", "KEYPOINT", "DESC", "MATCH"):
                    raise ValueError(f"{path}:{lineno}: unknown record type {kind!r}")
                raise ValueError(f"{path}:{lineno}: {kind} record with {len(tok) - 1} fields")
            iid = record[0]
            if kind == "IMAGE":
                if iid < 0 or iid in metas:
                    raise ValueError(f"{path}:{lineno}: negative or duplicate IMAGE id {iid}")
                metas[iid] = ImageMeta(*record)
                first_image = first_image or lineno
                continue
            dim = len(record[2]) if dim is None else dim
            if len(record[2]) != dim:
                raise ValueError(f"{path}:{lineno}: DESC of dimension {len(record[2])}, not {dim}")
            descs.setdefault(iid, {})[record[1]] = (record[2], lineno)
    if metas and shared_k is None:
        raise ValueError(f"{path}:{first_image}: IMAGE records with no INTRINSICS record")

    features = {}
    for iid, dmap in descs.items():
        n = len(keypoints.get(iid, ()))
        for idx, (_, line) in dmap.items():
            if not 0 <= idx < n:
                raise ValueError(f"{path}:{line}: DESC keypoint {idx} not in image {iid}")
        if len(dmap) < n:
            idx = min(set(range(n)) - dmap.keys())
            line = _keypoint_line(path, iid, idx)
            raise ValueError(f"{path}:{line}: KEYPOINT {idx} of image {iid} has no DESC")
    for iid, kps in keypoints.items():
        desc = np.zeros((len(kps), dim if iid in descs else 0))
        for idx, (v, _) in descs.get(iid, {}).items():
            desc[idx] = v
        features[iid] = FeatureSet(iid, np.array(kps, dtype=float), desc)
    # an image without keypoints gets an empty feature set as wide as the rest
    for iid in sorted(metas.keys() - features.keys()):
        features[iid] = FeatureSet(iid, np.zeros((0, 3)), np.zeros((0, dim or 0)))

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

    intrinsics = {iid: CameraIntrinsics(*shared_k, m.width, m.height) for iid, m in metas.items()}
    return Dataset(metas=metas, features=features, pairs=pairs, intrinsics=intrinsics)

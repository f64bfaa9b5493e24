"""Line-oriented text dataset format.

Records (any order, one per line; blank lines and lines whose first token
starts with '#' are skipped):
  INTRINSICS fx fy cx cy            shared calibrated pinhole model
  IMAGE id width height
  KEYPOINT image_id x y scale       in keypoint-index order per image
  DESC image_id idx v0 .. vD
  MATCH id_a id_b idx_a idx_b

A dataset may carry MATCH records instead of DESC records, in which case
retrieval and verification are bypassed downstream. Every keypoint of an
image with DESC records has one, all of one dimension; IMAGE records need
the INTRINSICS record, of which there is one, and KEYPOINT records the IMAGE
record of their image.

`read_dataset` reads the file once and parses it one tag group at a time
(see `parsfm.textio`), then checks the records as arrays. The first bad
record raises ValueError with its 'path:line'. Each record is first checked
on its own, in file order: its tag, field count and numbers; a non-finite
INTRINSICS value or one CameraIntrinsics rejects, or a second INTRINSICS; a
negative, duplicate or non-positive IMAGE; a DESC of another dimension than
the first, or a repeated one; a MATCH of an image with itself. Then the
records are checked against each other: IMAGE records with no INTRINSICS,
or an IMAGE the principal point lies outside; per image with DESC records,
a DESC keypoint outside the image, then a keypoint with no DESC; per image
with KEYPOINT records, no IMAGE record, then a non-finite value; per pair
in id order, a MATCH image with no IMAGE record or a keypoint outside its
image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..geometry import CameraIntrinsics
from ..textio import field_count, layout, parse_group, parses, read_records
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


_LAYOUTS = {  # DESC records take the layout of the first one
    "INTRINSICS": layout("INTRINSICS", 0, 4),
    "IMAGE": layout("IMAGE", 3),
    "KEYPOINT": layout("KEYPOINT", 1, 3),
    "MATCH": layout("MATCH", 4),
}


def read_dataset(path) -> Dataset:
    """Parse a dataset file. A malformed record raises ValueError starting
    with its 'path:line'."""
    records, rows, errors = _read_records(path)
    shared_k, metas = _record_checks(records, rows, errors)
    if errors:
        line, message = min(errors)
        raise ValueError(f"{path}:{line}: {message}")

    def fail(tag, row, message):
        raise ValueError(f"{path}:{records[tag].line(row)}: {message}")

    intrinsics = {}
    for row, (iid, m) in enumerate(metas.items()):  # in the order of their IMAGE records
        try:
            if shared_k is None:
                raise ValueError("IMAGE records with no INTRINSICS record")
            intrinsics[iid] = CameraIntrinsics(*shared_k, m.width, m.height)
        except ValueError as exc:
            fail("IMAGE", row, exc)

    kp = _grouped(rows.pop("KEYPOINT"))  # per image, in order of its first KEYPOINT
    dim = None if rows["DESC"] is None else rows["DESC"][1].shape[1]
    descs = _descriptors(rows.pop("DESC"), kp, fail)
    features = {}
    finite = np.isfinite(kp.values).all(axis=1)
    for k in kp.first_order:
        iid, start, stop = kp.images[k], kp.starts[k], kp.starts[k + 1]
        if iid not in metas:
            fail("KEYPOINT", kp.row[start], f"KEYPOINT of image {iid} with no IMAGE record")
        if not finite[start:stop].all():
            bad = start + int(np.argmin(finite[start:stop]))
            fail("KEYPOINT", kp.row[bad], "non-finite value in KEYPOINT record")
        desc = descs.get(iid, np.zeros((stop - start, 0)))
        features[iid] = FeatureSet(iid, kp.values[start:stop], desc)
    # an image without keypoints gets an empty feature set as wide as the rest
    for iid in sorted(metas.keys() - features.keys()):
        features[iid] = FeatureSet(iid, np.zeros((0, 3)), np.zeros((0, dim or 0)))

    pairs = _pairs(rows.pop("MATCH"), metas, kp, fail)
    return Dataset(metas=metas, features=features, pairs=pairs, intrinsics=intrinsics)


def _read_records(path):
    """The records of each tag, what is kept of their rows (`_columns`; None
    without any), and the (line, message) of the bad records the parse found."""
    desc_layout = None

    def parse_desc(lines):
        # as wide as the first DESC; one with fewer than 3 fields fails
        width = len(lines[0].split()) - 3
        return parse_group(lines, desc_layout or layout("DESC", 2, max(width, 1)))

    def keep(tag, rows):
        nonlocal desc_layout
        desc_layout = rows.dtype if tag == "DESC" else desc_layout
        return _columns(tag, rows)

    parsers = {tag: partial(parse_group, dtype=dtype) for tag, dtype in _LAYOUTS.items()}
    parsers["DESC"] = parse_desc
    return read_records(path, parsers, lambda tag, text: _bad_record(tag, text, desc_layout),
                        keep, comments=True)


def _columns(tag, rows):
    """A chunk's rows of a tag as the arrays kept of them, so that no array
    of the whole file is made only to be taken apart: the int and the float
    fields, and for a MATCH its image ids low to high and its keypoint
    indices in that order."""
    if tag != "MATCH":
        return tuple(rows[name] for name in rows.dtype.names[1:])
    m = rows["i"]
    swap = m[:, :1] > m[:, 1:2]
    return np.where(swap, m[:, 1::-1], m[:, :2]), np.where(swap, m[:, :1:-1], m[:, 2:])


def _bad_record(tag, text, desc_layout):
    """Why the record `text`, which its group's layout rejects, is bad."""
    tok = text.split()
    if tag == "DESC" and len(tok) > 3:
        own = layout("DESC", 2, len(tok) - 3)
        if parses([text], own):
            return f"DESC of dimension {len(tok) - 3}, not {desc_layout['f'].shape[0]}"
        return "non-numeric field in DESC record"
    if tag == "DESC" or len(tok) - 1 != field_count(_LAYOUTS[tag]):
        return f"{tag} record with {len(tok) - 1} fields"
    return f"non-numeric field in {tag} record"


def _record_checks(records, rows, errors):
    """Add the errors of records that are bad on their own; the shared
    INTRINSICS values and the ImageMeta of each IMAGE record."""

    def bad(tag, row, message):
        errors.append((records[tag].line(row), str(message)))

    shared_k = None
    if rows["INTRINSICS"] is not None:
        for row, k in enumerate(rows["INTRINSICS"][0][:2].tolist()):
            try:
                if not np.isfinite(k).all():
                    raise ValueError("non-finite value in INTRINSICS record")
                CameraIntrinsics(*k, np.inf, np.inf)  # IMAGE records set the bounds
                if row:
                    raise ValueError("repeated INTRINSICS record")
                shared_k = k
            except ValueError as exc:
                bad("INTRINSICS", row, exc)
                break
    metas = {}
    if rows["IMAGE"] is not None:
        for row, (iid, w, h) in enumerate(rows["IMAGE"][0].tolist()):
            try:
                if iid < 0 or iid in metas:
                    raise ValueError(f"negative or duplicate IMAGE id {iid}")
                metas[iid] = ImageMeta(iid, w, h)
            except ValueError as exc:
                bad("IMAGE", row, exc)
                break
    if rows["DESC"] is not None:
        key = rows["DESC"][0]
        order = np.lexsort((key[:, 1], key[:, 0]))
        same = (np.diff(key[order], axis=0) == 0).all(axis=1)
        if same.any():
            row = int(order[1:][same].min())
            bad("DESC", row, "repeated DESC %d %d" % tuple(key[row].tolist()))
    if rows["MATCH"] is not None:
        key = rows["MATCH"][0]
        selfpair = np.flatnonzero(key[:, 0] == key[:, 1])
        if selfpair.size:
            row = int(selfpair[0])
            bad("MATCH", row, f"MATCH of image {key[row, 0]} with itself")
    return shared_k, metas


class _Grouped:
    """Rows grouped by an image id column, stably: `row` maps each grouped
    position to its row, images[k] owns positions starts[k]:starts[k + 1],
    and first_order lists k by the first row of each image."""

    def __init__(self, ids, values):
        n = len(ids)
        if n and (ids[1:] < ids[:-1]).any():
            self.row = np.argsort(ids, kind="stable")
            ids, values = ids[self.row], values[self.row]
        else:
            self.row = np.arange(n)
        self.values = np.ascontiguousarray(values)
        new = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]]) if n else np.zeros(0, int)
        self.images = ids[new].tolist()
        self.starts = np.r_[new, n].tolist()
        self.first_order = np.argsort(self.row[new], kind="stable").tolist()

    def count(self, image_ids):
        """Row count of each of the image ids (0 for one with no rows)."""
        if not self.images:
            return np.zeros_like(image_ids)
        images = np.array(self.images)  # sorted
        k = np.minimum(np.searchsorted(images, image_ids), len(images) - 1)
        return np.where(images[k] == image_ids, np.diff(self.starts)[k], 0)


def _grouped(rows):
    if rows is None:
        return _Grouped(np.zeros(0, np.int64), np.zeros((0, 3)))
    return _Grouped(rows[0][:, 0], rows[1])


def _descriptors(rows, kp, fail):
    """Descriptor arrays by image id, in keypoint order, after the checks
    that every DESC names a keypoint of its image and every keypoint of an
    image with DESC records has one."""
    if rows is None:
        return {}
    key, values = rows
    n = kp.count(key[:, 0])
    outside = (key[:, 1] < 0) | (key[:, 1] >= n)
    desc = _Grouped(key[:, 0], values)
    out = {}
    for k in desc.first_order:  # images in order of their first DESC
        iid, start, stop = desc.images[k], desc.starts[k], desc.starts[k + 1]
        rows_k = desc.row[start:stop]
        if outside[rows_k].any():
            row = int(rows_k[np.argmax(outside[rows_k])])
            fail("DESC", row, f"DESC keypoint {key[row, 1]} not in image {iid}")
        size = int(n[rows_k[0]])
        have = np.zeros(size, bool)
        have[key[rows_k, 1]] = True
        if not have.all():
            idx = int(np.argmin(have))
            fail("KEYPOINT", kp.row[kp.starts[kp.images.index(iid)] + idx],
                 f"KEYPOINT {idx} of image {iid} has no DESC")
        values = desc.values[start:stop]
        order = key[rows_k, 1]
        out[iid] = values if (np.diff(order) > 0).all() else values[np.argsort(order)]
    return out


def _pairs(rows, metas, kp, fail):
    """MatchPairs in key order, each match oriented to its lower image id,
    after the checks that both images have IMAGE records and both keypoints
    exist."""
    if rows is None:
        return []
    key, idx = rows
    step = np.diff(key, axis=0)
    if ((step[:, 0] < 0) | ((step[:, 0] == 0) & (step[:, 1] < 0))).any():
        order = np.lexsort((key[:, 1], key[:, 0]))
        key, idx = key[order], idx[order]
    else:
        order = np.arange(len(idx))
    new = np.flatnonzero(np.r_[True, (key[1:] != key[:-1]).any(axis=1)])
    starts = np.r_[new, len(idx)]
    meta_ids = np.fromiter(metas, np.int64, len(metas))
    known = np.isin(key, meta_ids)
    inside = (idx >= 0) & (idx < kp.count(key))
    bad = np.logical_or.reduceat(~(known & inside).all(axis=1), new)
    for k in np.flatnonzero(bad)[:1].tolist():
        start, stop = starts[k], starts[k + 1]
        for col in (0, 1):
            img = int(key[start, col])
            if not known[start, col]:
                fail("MATCH", int(order[start]), f"MATCH names image {img} with no IMAGE record")
            out = np.flatnonzero(~inside[start:stop, col])
            if out.size:
                at = start + int(out[0])
                fail("MATCH", int(order[at]), f"MATCH keypoint {idx[at, col]} not in image {img}")
    return [
        MatchPair(a, b, idx[start:stop])
        for (a, b), start, stop in zip(key[new].tolist(), new.tolist(), starts[1:].tolist())
    ]

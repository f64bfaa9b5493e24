"""Property tests: projection, rotation kernels, similarity recovery, the
two-view cheirality count, the text formats' round trips over generated
inputs, and the array readers and writer against their line-at-a-time
oracles on written and mutated files."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from parsfm.engine import Reconstruction, Track, read_reconstruction, write_reconstruction
from parsfm.geometry import (
    CameraIntrinsics,
    CameraPose,
    SimilarityTransform,
    angle_axis_to_matrix,
    pinhole,
    umeyama_similarity,
)
from parsfm.geometry.camera import project_rotation
from parsfm.geometry.twoview import _cheirality_counts
from parsfm.matchgraph import FeatureSet, ImageMeta, MatchPair
from parsfm import textio
from parsfm.matchgraph.dataset import Dataset, read_dataset, write_dataset
from parsfm.pipeline.synth import SynthConfig, generate_synthetic

from helpers import (
    cheirality_counts_loop,
    read_dataset_reference,
    read_reconstruction_reference,
    write_reconstruction_reference,
)

SETTINGS = settings(max_examples=40, deadline=None)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def stacks(shape, lo, hi):
    return arrays(np.float64, shape, elements=finite(lo, hi))


def assert_rotations(R):
    eye = np.broadcast_to(np.eye(3), R.shape)
    assert np.abs(R @ R.swapaxes(-1, -2) - eye).max() < 1e-12
    assert np.abs(np.linalg.det(R) - 1.0).max() < 1e-12


@SETTINGS
@given(
    cam=st.integers(1, 20).flatmap(
        lambda n: st.tuples(stacks((n, 2), -100, 100), stacks((n,), 0.01, 500))
    ),
    terms=st.tuples(finite(1, 5000), finite(1, 5000), finite(0, 2000), finite(0, 2000)),
)
def test_pinhole_is_the_written_out_formula(cam, terms):
    xy, z = cam
    fx, fy, cx, cy = terms
    px, depth = pinhole(np.column_stack([xy, z]), fx, fy, cx, cy)
    for k in range(len(z)):
        x, y = float(xy[k, 0]), float(xy[k, 1])
        assert px[k, 0] == fx * x / float(z[k]) + cx
        assert px[k, 1] == fy * y / float(z[k]) + cy
    assert np.array_equal(depth, z)


@SETTINGS
@given(omega=st.integers(1, 8).flatmap(lambda n: stacks((n, 3), -4, 4)))
def test_stacked_angle_axis_equals_single_calls(omega):
    R = angle_axis_to_matrix(omega)
    assert R.shape == (len(omega), 3, 3)
    for k, w in enumerate(omega):
        assert np.abs(R[k] - angle_axis_to_matrix(w)).max() < 1e-12
    assert_rotations(R)


@SETTINGS
@given(M=st.integers(1, 8).flatmap(lambda n: stacks((n, 3, 3), -10, 10)))
def test_stacked_rotation_projection_equals_single_calls(M):
    R = project_rotation(M)
    for k in range(len(M)):
        assert np.abs(R[k] - project_rotation(M[k])).max() < 1e-12
    assert_rotations(R)


@SETTINGS
@given(
    scale=finite(0.1, 10),
    omega=stacks((3,), -3, 3),
    t=stacks((3,), -100, 100),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 20),
)
def test_umeyama_recovers_a_similarity(scale, omega, t, seed, n):
    src = np.random.default_rng(seed).uniform(-10, 10, (n, 3))
    centered = src - src.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    assume(s[1] > 1e-3 * s[0])  # not collinear
    truth = SimilarityTransform(scale, angle_axis_to_matrix(omega), t)
    T, mse = umeyama_similarity(src, truth.apply(src))
    assert abs(T.scale - scale) <= 1e-9 * scale
    assert np.abs(T.rotation - truth.rotation).max() < 1e-9
    assert np.abs(T.translation - t).max() < 1e-9 * max(1.0, np.abs(t).max())
    assert mse < 1e-12 * max(1.0, np.abs(t).max()) ** 2


@SETTINGS
@given(
    omega=stacks((3,), -1.5, 1.5),
    t=stacks((3,), -3, 3),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
)
def test_cheirality_count_equals_dlt_oracle(omega, t, seed, n):
    """Exact two-view matches of points in front of and behind either
    camera, each kept away from both image planes and with rays at least
    0.1 degrees apart, so every depth sign is determined."""
    assume(np.linalg.norm(t) > 0.1)
    R = angle_axis_to_matrix(omega)
    X = np.random.default_rng(seed).uniform([-5, -5, -10], [5, 5, 10], (n, 3))
    Y = X @ R.T + t
    ray2 = X + R.T @ t  # from camera 2's center -R^T t, in camera 1's frame
    sin = np.linalg.norm(np.cross(X, ray2), axis=1) / (
        np.linalg.norm(X, axis=1) * np.linalg.norm(ray2, axis=1))
    keep = (np.abs(X[:, 2]) > 0.5) & (np.abs(Y[:, 2]) > 0.5) & (sin > np.sin(np.deg2rad(0.1)))
    assume(keep.any())
    X, Y = X[keep], Y[keep]
    x1, x2 = X[:, :2] / X[:, 2:], Y[:, :2] / Y[:, 2:]
    # the directions of X at infinity: both rays of a match parallel up to
    # rounding, so neither depth sign is determined and the match never counts
    RX = X @ R.T
    far = np.abs(RX[:, 2]) > 0.5
    x1_far, x2_far = np.vstack([x1, x1[far]]), np.vstack([x2, RX[far, :2] / RX[far, 2:]])
    # (R, -t) mirrors every point through camera 1's center: both depths flip
    for tc, front in ((t, (X[:, 2] > 0) & (Y[:, 2] > 0)), (-t, (X[:, 2] < 0) & (Y[:, 2] < 0))):
        count = _cheirality_counts(R, tc, x1, x2)
        assert count == cheirality_counts_loop(R, tc, x1, x2) == int(front.sum())
        assert _cheirality_counts(R, tc, x1_far, x2_far) == count


@st.composite
def datasets(draw):
    n_images = draw(st.integers(1, 4))
    dim = draw(st.sampled_from([0, 1, 3]))
    width, height = draw(st.integers(1, 5000)), draw(st.integers(1, 5000))
    fx, fy, u, v = draw(st.tuples(finite(1, 5000), finite(1, 5000), finite(0, 1), finite(0, 1)))
    intr = CameraIntrinsics(fx, fy, u * width, v * height, width, height)  # one shared record
    ds = Dataset()
    for i in range(n_images):
        n = draw(st.integers(0, 5))
        ds.metas[i] = ImageMeta(i, width, height)
        kp, desc = draw(stacks((n, 3), -1e4, 1e4)), draw(stacks((n, dim), -1, 1))
        ds.features[i] = FeatureSet(i, kp, desc)
        ds.intrinsics[i] = intr
    for a in range(n_images):
        for b in range(a + 1, n_images):
            na, nb = len(ds.features[a]), len(ds.features[b])
            if na and nb and draw(st.booleans()):
                match = st.tuples(st.integers(0, na - 1), st.integers(0, nb - 1))
                rows = draw(st.lists(match, min_size=1, max_size=6))
                if draw(st.booleans()):  # stored as (b, a): the reader orients it
                    ds.pairs.append(MatchPair(b, a, [r[::-1] for r in rows]))
                else:
                    ds.pairs.append(MatchPair(a, b, rows))
    return ds


@SETTINGS
@given(ds=datasets())
def test_dataset_round_trip(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("ds") / "d.txt"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.metas == ds.metas
    assert back.intrinsics == ds.intrinsics
    # descriptors are as wide as the DESC records: 0 wide without any
    described = any(len(f) for f in ds.features.values())
    assert sorted(back.features) == sorted(ds.features)
    for i, f in ds.features.items():
        assert np.array_equal(back.features[i].keypoints, f.keypoints)
        desc = f.descriptors if described else np.zeros((len(f), 0))
        assert np.array_equal(back.features[i].descriptors, desc)
    assert [p.key() for p in back.pairs] == sorted(p.key() for p in ds.pairs)
    for p in back.pairs:
        orig = next(q for q in ds.pairs if q.key() == p.key())
        assert np.array_equal(p.oriented(p.image_id_a), orig.oriented(p.image_id_a))


@st.composite
def reconstructions(draw):
    intr = CameraIntrinsics(900.0, 900.0, 500.0, 400.0, 1000, 800)
    images = draw(st.lists(st.integers(0, 50), min_size=2, max_size=5, unique=True))
    recon = Reconstruction(recon_id=draw(st.integers(0, 9)))
    for img in images:
        R = angle_axis_to_matrix(draw(stacks((3,), -3, 3)))
        recon.cameras[img] = (intr, CameraPose(R, draw(stacks((3,), -1e3, 1e3))))
        recon.registered_order.append(img)
    for pid in draw(st.lists(st.integers(0, 10**6), max_size=8, unique=True)):
        seen = draw(st.lists(st.sampled_from(images), min_size=2, max_size=len(images),
                             unique=True))
        obs = [(img, draw(st.integers(0, 10**5))) for img in sorted(seen)]
        recon.points[pid] = (draw(stacks((3,), -1e3, 1e3)), Track(pid, obs))
    return recon


@SETTINGS
@given(recon=reconstructions())
def test_reconstruction_round_trip(tmp_path_factory, recon):
    path = tmp_path_factory.mktemp("recon") / "r.txt"
    write_reconstruction(path, recon)
    intrinsics = {img: intr for img, (intr, _) in recon.cameras.items()}
    back = read_reconstruction(path, intrinsics, recon_id=recon.recon_id)
    assert back.recon_id == recon.recon_id
    assert back.registered_order == sorted(recon.cameras)
    for img, (intr, pose) in recon.cameras.items():
        bintr, bpose = back.cameras[img]
        assert bintr == intr
        assert np.abs(bpose.rotation - pose.rotation).max() < 1e-12
        assert np.array_equal(bpose.translation, pose.translation)
    assert sorted(back.points) == sorted(recon.points)
    for pid, (xyz, track) in recon.points.items():
        bxyz, btrack = back.points[pid]
        assert np.array_equal(bxyz, xyz)
        assert btrack == track


def assert_same_arrays(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous and want.flags.c_contiguous
    assert np.array_equal(got, want, equal_nan=True)


def assert_same_dataset(got, want):
    """Equal values, dtypes, C-contiguity and dict orders."""
    assert list(got.metas.items()) == list(want.metas.items())
    assert list(got.intrinsics.items()) == list(want.intrinsics.items())
    assert list(got.features) == list(want.features)
    for iid, f in want.features.items():
        assert got.features[iid].image_id == iid
        assert_same_arrays(got.features[iid].keypoints, f.keypoints)
        assert_same_arrays(got.features[iid].descriptors, f.descriptors)
    assert [(p.image_id_a, p.image_id_b) for p in got.pairs] == [
        (p.image_id_a, p.image_id_b) for p in want.pairs
    ]
    for p, q in zip(got.pairs, want.pairs):
        assert_same_arrays(p.matches, q.matches)


def assert_same_model(got, want):
    """Equal values, dtypes, C-contiguity and dict orders."""
    assert got.recon_id == want.recon_id
    assert got.registered_order == want.registered_order
    assert list(got.cameras) == list(want.cameras)
    for img, (intr, pose) in want.cameras.items():
        assert got.cameras[img][0] is intr
        assert_same_arrays(got.cameras[img][1].rotation, pose.rotation)
        assert_same_arrays(got.cameras[img][1].translation, pose.translation)
    assert list(got.points) == list(want.points)
    for pid, (xyz, track) in want.points.items():
        assert_same_arrays(got.points[pid][0], xyz)
        assert got.points[pid][1] == track
        assert all(type(v) is int for obs in got.points[pid][1].observations for v in obs)


def outcome(read, *args):
    """What a reader returns, or the message of the ValueError it raises."""
    try:
        return read(*args)
    except ValueError as exc:
        return str(exc)


def assert_reads_as_oracle(path, read, oracle, same, *args):
    got, want = outcome(read, path, *args), outcome(oracle, path, *args)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        same(got, want)


# a written file gets one to three mutations; each edits one line, of a tag
# drawn first so that rare records are edited too, or adds a blank line; a
# chunk size of 64 bytes reads about one line per chunk
MUTATIONS = ("delete", "duplicate", "move", "nan", "x", "index", "truncate", "indent", "blank")
CHUNKS = st.sampled_from([64, 256, textio.CHUNK_BYTES])


def mutate(draw, text, blank):
    for _ in range(draw(st.integers(1, 3))):
        text = mutate_line(draw, text, blank)
    return text


def mutate_line(draw, text, blank):
    lines = text.split("\n")[:-1]
    if not lines:
        return draw(st.sampled_from(blank)) + "\n"
    kind = draw(st.sampled_from(MUTATIONS))
    tags = [(line.split() or [""])[0] for line in lines]
    tag = draw(st.sampled_from(sorted(set(tags))))
    k = draw(st.sampled_from([k for k, t in enumerate(tags) if t == tag]))
    line = lines[k]
    if kind == "delete":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(k, line)
    elif kind == "move":
        lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(k))
    elif kind in ("nan", "x", "index"):
        tok = line.split(" ")
        value = {"nan": "nan", "x": "x"}.get(kind) or draw(
            st.sampled_from(["-1", "3", "7", "51", "100000", "-100000"]))
        tok[draw(st.integers(0, len(tok) - 1))] = value
        lines[k] = " ".join(tok)
    elif kind == "truncate":
        lines[k] = line[: draw(st.integers(0, len(line)))]
    elif kind == "indent":
        lines[k] = draw(st.sampled_from([" ", "  ", "\t"])) + line
    else:
        lines.insert(k, draw(st.sampled_from(blank)))
    return "\n".join(lines) + "\n"


def read_in_chunks(chunk, read, *args):
    kept, textio.CHUNK_BYTES = textio.CHUNK_BYTES, chunk
    try:
        return read(*args)
    finally:
        textio.CHUNK_BYTES = kept


@settings(max_examples=300, deadline=None)
@given(ds=datasets(), data=st.data(), chunk=CHUNKS)
def test_mutated_dataset_records_read_as_the_oracle_reads_them(tmp_path_factory, ds, data, chunk):
    path = tmp_path_factory.mktemp("ds") / "d.txt"
    write_dataset(path, ds)
    path.write_text(mutate(data.draw, path.read_text(), ["", "   ", "# note", "#IMAGE 0 1 1"]))
    assert_reads_as_oracle(path, lambda p: read_in_chunks(chunk, read_dataset, p),
                           read_dataset_reference, assert_same_dataset)


@settings(max_examples=300, deadline=None)
@given(recon=reconstructions(), data=st.data(), chunk=CHUNKS)
def test_mutated_model_records_read_as_the_oracle_reads_them(tmp_path_factory, recon, data, chunk):
    path = tmp_path_factory.mktemp("recon") / "r.txt"
    write_reconstruction(path, recon)
    path.write_text(mutate(data.draw, path.read_text(), ["", " \t "]))
    intrinsics = {img: intr for img, (intr, _) in recon.cameras.items()}
    assert_reads_as_oracle(
        path, lambda p, k, r: read_in_chunks(chunk, read_reconstruction, p, k, r),
        read_reconstruction_reference, assert_same_model, intrinsics, recon.recon_id)


SMALL_DATASET = """INTRINSICS 500 500 320 240
IMAGE 0 640 480
IMAGE 1 640 480
IMAGE 2 640 480
KEYPOINT 0 1 2 1
KEYPOINT 0 3 4 1
KEYPOINT 1 5 6 2
KEYPOINT 1 7 8 2
KEYPOINT 2 9 10 3
DESC 0 0 1 0
DESC 0 1 0 1
DESC 1 0 1 1
DESC 1 1 0 0
MATCH 0 1 0 1
MATCH 0 1 1 0
MATCH 2 1 0 1
"""
SMALL_MODEL = "CAMERA 0 1 0 0 0 0 0 0\nCAMERA 3 0.5 0.5 0.5 0.5 1 2 3\nPOINT 4 0 0 5 2 0 1 3 1\n" \
    "POINT 1 1 2 3 1 3 0\nPOINT 9 1 2 3 0 \n"


def single_edits(text):
    """Every file one edit of a line away from text: the line deleted,
    duplicated, moved to the front or the end, indented or cut after each
    character, or one of its fields replaced."""
    lines = text.split("\n")[:-1]
    for k, line in enumerate(lines):
        rest = lines[:k] + lines[k + 1 :]
        yield rest
        yield lines[: k + 1] + lines[k:]
        yield [line] + rest
        yield rest + [line]
        yield lines[:k] + ["\t" + line] + lines[k + 1 :]
        for cut in range(len(line)):
            yield lines[:k] + [line[:cut]] + lines[k + 1 :]
        tok = line.split(" ")
        for f in range(len(tok)):
            for value in ("nan", "inf", "x", "-1", "0", "2", "3", "100000"):
                yield lines[:k] + [" ".join(tok[:f] + [value] + tok[f + 1 :])] + lines[k + 1 :]


def test_records_one_edit_from_a_small_file_read_as_the_oracles_read_them(tmp_path):
    path = tmp_path / "f.txt"
    for n, lines in enumerate(single_edits(SMALL_DATASET)):
        path.write_text("".join(line + "\n" for line in lines))
        assert_reads_as_oracle(path, lambda p: read_in_chunks(64 if n % 2 else 1 << 20,
                                                              read_dataset, p),
                               read_dataset_reference, assert_same_dataset)
    intrinsics = {img: CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480) for img in (0, 3)}
    for n, lines in enumerate(single_edits(SMALL_MODEL)):
        path.write_text("".join(line + "\n" for line in lines))
        assert_reads_as_oracle(
            path, lambda p, k, r: read_in_chunks(64 if n % 2 else 1 << 20,
                                                 read_reconstruction, p, k, r),
            read_reconstruction_reference, assert_same_model, intrinsics, 0)


def test_lines_inside_a_run_of_records_keep_later_line_numbers(tmp_path):
    # a run of one tag is grouped as one block of lines; a blank or comment
    # line inside it must not shift the lines named after it
    path = tmp_path / "d.txt"
    head = ["INTRINSICS 500 500 320 240", "IMAGE 0 640 480"]
    run = [f"KEYPOINT 0 {k} 1 1" for k in range(12)]
    for extra in ("", "# note", "  "):
        for at in range(1, len(run)):
            for bad in range(len(run)):
                lines = list(run)
                lines[bad] = lines[bad].replace(" 1 1", " inf 1")
                lines.insert(at, extra)
                path.write_text("\n".join(head + lines) + "\n")
                assert_reads_as_oracle(path, read_dataset, read_dataset_reference,
                                       assert_same_dataset)


@SETTINGS
@given(recon=reconstructions())
def test_model_records_written_as_the_oracle_writes_them(tmp_path_factory, recon):
    out = tmp_path_factory.mktemp("recon")
    recon.points[10**7] = (np.array([1.5, -0.0, 1e-300]), Track(10**7, []))  # no observations
    write_reconstruction(out / "new.txt", recon)
    write_reconstruction_reference(out / "old.txt", recon)
    assert (out / "new.txt").read_bytes() == (out / "old.txt").read_bytes()


@pytest.mark.parametrize("shuffle", [False, True])
def test_synthetic_block_records_read_as_the_oracles_read_them(tmp_path, shuffle):
    cfg = SynthConfig(image_count=8, point_count=300, pixel_noise=0.5, outlier_rate=0.2,
                      seed=5, emit_descriptors=True)
    ds, gt, _, _ = generate_synthetic(cfg)
    assert ds.pairs and ds.has_descriptors
    path = tmp_path / "d.txt"
    write_dataset(path, ds)
    if shuffle:  # records in any order: every group out of id order
        lines = path.read_text().split("\n")[:-1]
        order = np.random.default_rng(2).permutation(len(lines))
        path.write_text("".join(lines[k] + "\n" for k in order))
    assert_same_dataset(read_dataset(path), read_dataset_reference(path))

    recon = Reconstruction()
    for img in sorted(gt["poses"])[::-1]:
        recon.cameras[img] = (ds.intrinsics[img], gt["poses"][img])
        recon.registered_order.append(img)
    for k in range(50):  # point ids out of order
        pid = k * 7 % 50
        recon.points[pid] = (gt["points"][k], Track(pid, [(0, k), (3, k + 1)]))
    path = tmp_path / "r.txt"
    write_reconstruction(path, recon)
    if shuffle:
        lines = path.read_text().split("\n")[:-1]
        order = np.random.default_rng(3).permutation(len(lines))
        path.write_text("".join(lines[k] + "\n" for k in order))
    assert_same_model(read_reconstruction(path, ds.intrinsics),
                      read_reconstruction_reference(path, ds.intrinsics))


@pytest.mark.parametrize("record, line", [("KEYPOINT 0 1_0 2 1", 3), ("IMAGE 1_0 640 480", 3)])
def test_records_with_digit_underscores_are_rejected(tmp_path, record, line):
    # the one place the array reader differs from its oracle: np.loadtxt
    # rejects a field that int() or float() would read with its underscores
    path = tmp_path / "d.txt"
    path.write_text(f"INTRINSICS 500 500 320 240\nIMAGE 0 640 480\n{record}\n")
    read_dataset_reference(path)
    with pytest.raises(ValueError) as err:
        read_dataset(path)
    assert str(err.value) == f"{path}:{line}: non-numeric field in {record.split()[0]} record"
    model = tmp_path / "r.txt"
    model.write_text("CAMERA 0 1 0 0 0 0 0 0\nPOINT 1_0 0 0 5 2 0 1 1 1\n")
    intrinsics = {0: CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)}
    read_reconstruction_reference(model, intrinsics)
    with pytest.raises(ValueError) as err:
        read_reconstruction(model, intrinsics)
    assert str(err.value) == f"{model}:2: non-numeric field in POINT record"

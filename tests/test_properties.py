"""Property tests: projection, rotation kernels, similarity recovery and the
text formats' round trips over generated inputs."""

import numpy as np
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
from parsfm.matchgraph import FeatureSet, ImageMeta, MatchPair
from parsfm.matchgraph.dataset import Dataset, read_dataset, write_dataset

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

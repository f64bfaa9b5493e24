from .camera import (
    BehindCameraError,
    CameraIntrinsics,
    CameraPose,
    angle_axis_to_matrix,
    matrix_to_quaternion,
    pinhole,
    project,
    project_points,
    quaternion_to_matrix,
)
from .ransac import (
    RANSAC_CONFIDENCE,
    DegenerateGeometryError,
    EstimationFailure,
    adaptive_ransac,
)
from .twoview import estimate_relative_pose, triangulate
from .resection import resect_camera
from .ba import BaOptions, BaReport, solve_bundle
from .similarity import SimilarityTransform, umeyama_similarity

__all__ = [
    "BehindCameraError",
    "CameraIntrinsics",
    "CameraPose",
    "DegenerateGeometryError",
    "EstimationFailure",
    "BaOptions",
    "BaReport",
    "RANSAC_CONFIDENCE",
    "SimilarityTransform",
    "adaptive_ransac",
    "angle_axis_to_matrix",
    "estimate_relative_pose",
    "matrix_to_quaternion",
    "pinhole",
    "project",
    "project_points",
    "quaternion_to_matrix",
    "resect_camera",
    "solve_bundle",
    "triangulate",
    "umeyama_similarity",
]

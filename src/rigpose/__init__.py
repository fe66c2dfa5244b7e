"""rigpose: multi-camera rig ego-motion estimation.

Compares an overlapping layout (two back-to-back stereo pairs feeding one
pose EKF) against a non-overlapping layout (four individually aimed
cameras, each with its own pose and structure filters, fused through the
rig's rigidity constraints), with a Monte Carlo harness for the
quantitative comparison.

The package namespace holds what the `simulate` and `run-tracks`
commands are built from; the submodules hold the rest.
"""

from .ekf import FilterTuning
from .errors import InputError, RigPoseError
from .geometry import (
    CameraRig,
    default_nonoverlap_rig,
    default_overlap_rig,
    read_rig,
    write_rig,
)
from .harness import ExperimentReport, load_config, monte_carlo
from .pipeline import (
    PipelineConfig,
    lowe_pose,
    pose_error_report,
    read_tracks,
    read_truth,
    run_nonoverlap_sequence,
    run_stereo_sequence,
    write_poses,
)
from .simulate import SimConfig

__version__ = "0.1.0"

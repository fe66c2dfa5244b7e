import numpy as np

from reference import scripted_trajectory


def test_scripted_trajectory_is_linear_in_pose_space():
    vel = np.array([0.002, -0.001, 0.0015, 0.0008, -0.0005, 0.0006])
    traj = scripted_trajectory(30, vel)
    for j in range(30):
        np.testing.assert_allclose(traj.x[j, :3], j * vel[:3], atol=1e-15)
        np.testing.assert_allclose(traj.x[j, 3:], j * vel[3:], atol=1e-15)

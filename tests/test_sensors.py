import math

import numpy as np
import pytest

from sentrack.sensors import (
    FovModel,
    MotionModel,
    SensorAction,
    SensorState,
    apply_action,
    detection_probabilities,
    displacement_log_likelihoods,
    propagate_states,
    wrap_angle,
)

SCEN1_FOV = FovModel(rho_max=500.0, theta_max=math.pi / 4, p_d_max=0.99, k_rho=0.5, k_theta=20.0)
OMNI_FOV = FovModel(rho_max=100.0, theta_max=math.pi, p_d_max=0.99, k_rho=0.5, k_theta=20.0)
NORTH = SensorState(0.0, 0.0, 0.0)


def oracle_pd(fov: FovModel, sensor: SensorState, point) -> float:
    """Reference scalar sigmoid detection model, one point at a time."""
    dx, dy = float(point[0]) - sensor.x, float(point[1]) - sensor.y
    rho = math.hypot(dx, dy)
    theta = wrap_angle(math.atan2(dx, dy) - sensor.bearing)
    if rho > fov.rho_max:
        return 0.0
    p_rho = fov.p_d_max / (1.0 + math.exp(fov.k_rho * (rho - fov.rho_max)))
    if fov.omnidirectional:
        return p_rho * fov.p_d_max
    if abs(theta) > fov.theta_max:
        return 0.0
    p_theta = fov.p_d_max / (1.0 + math.exp(fov.k_theta * (abs(theta) - fov.theta_max)))
    return p_rho * p_theta


def pd_rows(fov: FovModel, sensor: SensorState, points) -> np.ndarray:
    """detection_probabilities on the many-row array, checked against one-row calls."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    many = detection_probabilities(fov, sensor, points)
    one = np.array([detection_probabilities(fov, sensor, p[None, :])[0] for p in points])
    assert many.shape == (len(points),)
    assert np.array_equal(one, many)
    return many


def pd_polar(fov: FovModel, rho, theta) -> np.ndarray:
    """Detection probability at ranges and relative bearings from NORTH."""
    rho, theta = np.broadcast_arrays(np.atleast_1d(rho), np.atleast_1d(theta))
    return pd_rows(fov, NORTH, np.column_stack([rho * np.sin(theta), rho * np.cos(theta)]))


class TestRangeBearing:
    def test_due_north(self):
        # bearing 0 from +y: deep in the plateau of a north-facing sensor
        assert pd_rows(SCEN1_FOV, NORTH, [(0, 300)])[0] == pytest.approx(0.9801, abs=1e-4)

    def test_due_east(self):
        # +x lies at bearing +pi/2: outside a 45 degree sector facing north
        assert pd_rows(SCEN1_FOV, NORTH, [(100, 0)])[0] == 0.0
        east = SensorState(0, 0, math.pi / 2)
        assert pd_rows(SCEN1_FOV, east, [(100, 0)])[0] > 0.9

    def test_sensor_heading_subtracts(self):
        east = SensorState(0, 0, math.pi / 2)
        assert pd_rows(SCEN1_FOV, east, [(100, 0)])[0] == pytest.approx(
            pd_rows(SCEN1_FOV, NORTH, [(0, 100)])[0], abs=1e-12
        )

    def test_coincident(self):
        # range 0: the range factor is at its plateau
        p = pd_rows(OMNI_FOV, SensorState(5, 5, 1.0), [(5, 5)])[0]
        assert p == pytest.approx(oracle_pd(OMNI_FOV, SensorState(5, 5, 1.0), (5, 5)), abs=1e-15)
        assert p == pytest.approx(0.99**2, abs=1e-6)

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            sx, sy, b = rng.normal(0, 100, 3)
            targets = rng.normal(0, 300, (5, 2))
            dx, dy = rng.normal(0, 500, 2)
            p1 = pd_rows(SCEN1_FOV, SensorState(sx, sy, b), targets)
            p2 = pd_rows(SCEN1_FOV, SensorState(sx + dx, sy + dy, b), targets + (dx, dy))
            assert np.allclose(p1, p2, rtol=0.0, atol=1e-9)

    def test_rotation_equivariance(self):
        # turning the sensor and the target about it by the same angle
        rng = np.random.default_rng(1)
        for _ in range(50):
            b, delta = rng.uniform(-math.pi, math.pi, 2)
            rho = rng.uniform(0, 600, 5)
            phi = rng.uniform(-math.pi, math.pi, 5)
            before = np.column_stack([rho * np.sin(phi), rho * np.cos(phi)])
            after = np.column_stack([rho * np.sin(phi + delta), rho * np.cos(phi + delta)])
            p1 = pd_rows(SCEN1_FOV, SensorState(0, 0, b), before)
            p2 = pd_rows(SCEN1_FOV, SensorState(0, 0, b + delta), after)
            assert np.allclose(p1, p2, rtol=0.0, atol=1e-9)


class TestDetectionProbability:
    def test_deep_inside_plateau(self):
        assert pd_polar(SCEN1_FOV, 300.0, 0.0)[0] == pytest.approx(0.9801, abs=1e-4)

    def test_range_edge_half(self):
        assert pd_polar(SCEN1_FOV, 500.0, 0.0)[0] == pytest.approx(0.4900, abs=1e-3)

    def test_outside_angular_support(self):
        assert pd_polar(SCEN1_FOV, 100.0, SCEN1_FOV.theta_max + 0.01)[0] == 0.0

    def test_outside_range_support(self):
        assert pd_polar(SCEN1_FOV, 500.1, 0.0)[0] == 0.0

    def test_monotone_in_range_and_bearing(self):
        ps = pd_polar(SCEN1_FOV, np.linspace(0, 500, 60), 0.0)
        assert np.all(ps[:-1] >= ps[1:] - 1e-12)
        ps = pd_polar(SCEN1_FOV, 200.0, np.linspace(0, SCEN1_FOV.theta_max, 60))
        assert np.all(ps[:-1] >= ps[1:] - 1e-12)

    def test_continuous_inside_support(self):
        # no jump bigger than the local sigmoid slope allows on a fine grid
        ps = pd_polar(SCEN1_FOV, np.linspace(400, 500, 2000), 0.0)
        assert np.max(np.abs(np.diff(ps))) < 0.02

    def test_omnidirectional_uses_plateau(self):
        ps = pd_polar(OMNI_FOV, 10.0, np.array([-3.1, -1.0, 0.0, 2.0, 3.1]))
        assert np.allclose(ps, 0.99**2, rtol=0.0, atol=1e-6)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        for fov in (SCEN1_FOV, OMNI_FOV):
            sensor = SensorState(10.0, -20.0, 0.7)
            pts = rng.normal(0, 300, (200, 2))
            vec = pd_rows(fov, sensor, pts)
            for p, pt in zip(vec, pts):
                assert p == pytest.approx(oracle_pd(fov, sensor, pt), abs=1e-12)

    def test_empty_input(self):
        assert detection_probabilities(SCEN1_FOV, NORTH, []).shape == (0,)


class TestMeasurementLikelihood:
    def test_mode_value(self):
        val = displacement_log_likelihoods(np.array([[3.0, 4.0]]), NORTH, (3.0, 4.0), 1.0)
        assert np.exp(val[0]) == pytest.approx(1.0 / (2 * math.pi))

    def test_one_sigma_offset(self):
        sensor = SensorState(10.0, -5.0, 0.3)
        positions = np.array([[10.0, -5.0], [11.0, -5.0], [10.0, -4.0]])
        val = displacement_log_likelihoods(positions, sensor, (0.0, 0.0), 1.0)
        assert val[1] == pytest.approx(val[0] - 0.5)
        assert val[2] == pytest.approx(val[0] - 0.5)

    def test_sigma_scaling(self):
        pos = np.array([[0.0, 0.0]])
        wide = displacement_log_likelihoods(pos, NORTH, (0, 0), 2.0)[0]
        narrow = displacement_log_likelihoods(pos, NORTH, (0, 0), 1.0)[0]
        assert math.exp(wide) == pytest.approx(math.exp(narrow) / 4.0)


class TestApplyAction:
    def test_identity(self):
        s = SensorState(1, 2, 0.3)
        assert apply_action(s, SensorAction()) == s

    def test_move_east(self):
        out = apply_action(SensorState(0, 0, 0), SensorAction(dx=15.0))
        assert (out.x, out.y) == (15.0, 0.0)

    def test_bearing_normalization(self):
        out = apply_action(SensorState(0, 0, math.pi), SensorAction(rotation=math.pi / 2))
        assert out.bearing == pytest.approx(-math.pi / 2)


class TestPropagate:
    MOTION = MotionModel(period=1.0, process_noise_std=0.5, survival_probability=0.99)

    def test_noiseless_shift(self):
        out = propagate_states(MotionModel(1.0, 0.5, 0.99), np.array([[0.0, 0, 1, 2]]), None)
        assert np.allclose(out, [[1, 2, 1, 2]])

    def test_zero_velocity_fixed_point(self):
        out = propagate_states(self.MOTION, np.array([[5.0, 6, 0, 0]]), None)[0]
        assert out[0] == 5 and out[1] == 6

    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(7)
        states = np.tile([0.0, 0.0, 1.0, 2.0], (10_000, 1))
        out = propagate_states(self.MOTION, states, rng)
        # position noise std is q * T^2 / 2 per axis
        se = 0.5 * self.MOTION.process_noise_std / math.sqrt(10_000)
        assert abs(out[:, 0].mean() - 1.0) < 3 * se
        assert abs(out[:, 1].mean() - 2.0) < 3 * se

    def test_deterministic_under_seed(self):
        states = np.tile([0.0, 0.0, 1.0, 2.0], (10, 1))
        a = propagate_states(self.MOTION, states, np.random.default_rng(3))
        b = propagate_states(self.MOTION, states, np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestWrapAngle:
    @pytest.mark.parametrize(
        "angle,expected",
        [(0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi), (1.5 * math.pi, -0.5 * math.pi)],
    )
    def test_values(self, angle, expected):
        assert wrap_angle(angle) == pytest.approx(expected)

    def test_range(self):
        for a in np.linspace(-20, 20, 999):
            w = wrap_angle(a)
            assert -math.pi < w <= math.pi

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sentrack.scenarios import build_scenario_1
from sentrack.sensors import (
    TWO_PI,
    FovModel,
    MotionModel,
    SensorAction,
    SensorState,
    apply_action,
    detection_model,
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


def old_wrap(angle: float) -> float:
    """The wrap before its -pi case was mended: a remainder rounded up to
    2*pi gives -pi."""
    return -((-angle + math.pi) % TWO_PI - math.pi)


def double_wrap(angle: float) -> float:
    """Oracle: the old wrap applied twice, as apply_action and SensorState did."""
    return old_wrap(old_wrap(angle))


def bits(values) -> np.ndarray:
    return np.array(values, dtype=float).view(np.int64)


def old_detection_probabilities(fov: FovModel, sensor: SensorState, positions) -> np.ndarray:
    """Oracle: the model with an (N, 2) displacement array, before x and y
    were handled per axis."""
    d = np.asarray(positions, dtype=float).reshape(-1, 2) - sensor.position
    rho = np.hypot(d[:, 0], d[:, 1])
    inside = rho <= fov.rho_max
    p_rho = fov.p_d_max / (1.0 + np.exp(np.minimum(fov.k_rho * (rho - fov.rho_max), 500.0)))
    if fov.omnidirectional:
        p = p_rho * fov.p_d_max
    else:
        theta = np.abs((sensor.bearing - np.arctan2(d[:, 0], d[:, 1]) + math.pi) % TWO_PI - math.pi)
        inside = inside & (theta <= fov.theta_max)
        p_theta = fov.p_d_max / (
            1.0 + np.exp(np.minimum(fov.k_theta * (theta - fov.theta_max), 500.0))
        )
        p = p_rho * p_theta
    return np.where(inside, p, 0.0)


def old_displacement_log_likelihoods(positions, sensor, measurement, noise_std) -> np.ndarray:
    """Oracle: (N, 2) errors reduced by einsum."""
    err = (positions - sensor.position) - np.asarray(measurement, dtype=float)
    var = noise_std**2
    return -0.5 * np.einsum("ij,ij->i", err, err) / var - math.log(TWO_PI * var)


def old_propagate_states(motion: MotionModel, states, rng) -> np.ndarray:
    """Oracle: the noise added to the (N, 2) position and velocity blocks."""
    t = motion.period
    out = np.array(states, dtype=float, copy=True)
    out[:, 0] += t * states[:, 2]
    out[:, 1] += t * states[:, 3]
    if motion.process_noise_std > 0:
        accel = rng.normal(0.0, motion.process_noise_std, size=(len(out), 2))
        out[:, :2] += 0.5 * t**2 * accel
        out[:, 2:] += t * accel
    return out


def same_bits(got, expected) -> bool:
    return np.array_equal(bits(got), bits(expected))


coords = st.floats(-2000.0, 2000.0, allow_nan=False)
# the two bearings at the seam, then any other
bearings = st.sampled_from([math.pi, math.nextafter(-math.pi, 0)]) | st.floats(-4.0, 4.0)
sensor_states = st.builds(SensorState, coords, coords, bearings)
fovs = st.sampled_from([SCEN1_FOV, OMNI_FOV]) | st.builds(
    FovModel,
    st.floats(1.0, 3000.0),
    st.floats(0.01, math.pi),
    st.floats(0.05, 1.0),
    st.floats(0.01, 5.0),
    st.floats(0.5, 50.0),
)


@st.composite
def point_arrays(draw, columns=2, max_rows=40):
    """(N, columns) coordinates, some rows NaN when the array holds positions."""
    n = draw(st.integers(0, max_rows))
    points = draw(arrays(np.float64, (n, columns), elements=coords))
    if columns == 2:
        points[draw(arrays(np.bool_, n))] = np.nan
    return points


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

    @pytest.mark.parametrize("bearing", [math.pi, math.nextafter(-math.pi, 0)])
    def test_bearing_at_the_seam_matches_scalar(self, bearing):
        # a sensor facing -y: points ahead, just inside and outside the
        # sector's edges, and behind it
        sensor = SensorState(10.0, -20.0, bearing)
        edge = SCEN1_FOV.theta_max
        offsets = [0.0, edge - 1e-9, edge + 1e-9, -edge + 1e-9, -edge - 1e-9, math.pi]
        angles = np.concatenate([np.linspace(-math.pi, math.pi, 721), bearing + np.array(offsets)])
        rho = np.repeat([0.0, 1.0, 250.0, 499.0], len(angles))
        theta = np.tile(angles, 4)
        pts = np.column_stack([sensor.x + rho * np.sin(theta), sensor.y + rho * np.cos(theta)])
        vec = pd_rows(SCEN1_FOV, sensor, pts)
        assert (vec > 0.9).any() and (vec == 0.0).any()
        for p, pt in zip(vec, pts):
            assert p == pytest.approx(oracle_pd(SCEN1_FOV, sensor, pt), abs=1e-12)


class TestPerAxisOracle:
    """The per-axis forms give the bits of the (N, 2) broadcast forms they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(fov=fovs, sensor=sensor_states, points=point_arrays(), seed=st.integers(0, 2**32 - 1))
    def test_detection_probabilities(self, fov, sensor, points, seed):
        # and 100 uniform draws within 1.2 rho_max of the sensor, where the
        # range sigmoid is off its plateau often enough to show every bit
        rng = np.random.default_rng(seed)
        rho, theta = rng.uniform(0.0, 1.2 * fov.rho_max, 100), rng.uniform(-math.pi, math.pi, 100)
        near = np.column_stack([sensor.x + rho * np.sin(theta), sensor.y + rho * np.cos(theta)])
        points = np.concatenate([points, near])
        got = detection_probabilities(fov, sensor, points)
        assert same_bits(got, old_detection_probabilities(fov, sensor, points))

    @settings(max_examples=100, deadline=None)
    @given(fov=fovs, sensor=sensor_states, states=arrays(np.float64, (3, 5, 4), elements=coords))
    def test_detection_probabilities_of_a_strided_view(self, fov, sensor, states):
        view = states[:, :, :2]
        assert not view.flags.c_contiguous
        got = detection_probabilities(fov, sensor, view)
        assert same_bits(got, old_detection_probabilities(fov, sensor, view))

    @settings(max_examples=200, deadline=None)
    @given(
        fov=fovs,
        poses=st.lists(sensor_states, min_size=1, max_size=5),
        points=point_arrays(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_detection_probabilities_of_a_pose_sequence(self, fov, poses, points, seed):
        # one row per pose, each with the bits of that pose's own call; the
        # points include 20 uniform draws near each pose, as above
        rng = np.random.default_rng(seed)
        for sensor in poses:
            rho, theta = rng.uniform(0.0, 1.2 * fov.rho_max, 20), rng.uniform(-math.pi, math.pi, 20)
            near = np.column_stack([sensor.x + rho * np.sin(theta), sensor.y + rho * np.cos(theta)])
            points = np.concatenate([points, near])
        got = detection_probabilities(fov, poses, points)
        assert got.shape == (len(poses), len(points))
        for row, sensor in zip(got, poses):
            assert same_bits(row, old_detection_probabilities(fov, sensor, points))

    @pytest.mark.parametrize("fov", [SCEN1_FOV, OMNI_FOV])
    @pytest.mark.parametrize(
        "points",
        [[], np.zeros((0, 2)), np.array([30.0, 40.0]), [[30.0, 40.0], [-5.0, 7.5]],
         [[np.nan, np.nan], [1.0, 2.0], [np.nan, 3.0]]],
        ids=["empty-list", "empty-array", "one-position", "list", "nan-rows"],
    )
    @pytest.mark.parametrize("bearing", [math.pi, math.nextafter(-math.pi, 0), 0.7])
    def test_detection_probabilities_of_each_input_form(self, fov, points, bearing):
        sensor = SensorState(10.0, -20.0, bearing)
        got = detection_probabilities(fov, sensor, points)
        assert same_bits(got, old_detection_probabilities(fov, sensor, points))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), fov=fovs)
    def test_detection_model_of_each_pose_offsets(self, data, fov):
        # the update's form: (A, K, J) offsets of every pose's particles,
        # each pose's block with the bits of its own call
        a, k, j = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 3)), data.draw(st.integers(1, 6))
        poses = data.draw(st.lists(sensor_states, min_size=a, max_size=a))
        states = data.draw(arrays(np.float64, (k, j, 4), elements=coords))
        xs, ys, bearings = np.array([(p.x, p.y, p.bearing) for p in poses]).T[:, :, None, None]
        got = detection_model(fov, states[:, :, 0] - xs, states[:, :, 1] - ys, bearings)
        assert got.shape == (a, k, j)
        for block, sensor in zip(got, poses):
            want = old_detection_probabilities(fov, sensor, states[:, :, :2])
            assert same_bits(block.ravel(), want)

    @settings(max_examples=300, deadline=None)
    @given(
        sensor=sensor_states,
        positions=point_arrays(),
        measurement=arrays(np.float64, 2, elements=coords),
        noise_std=st.floats(0.1, 50.0),
    )
    def test_displacement_log_likelihoods_of_one_measurement(
        self, sensor, positions, measurement, noise_std
    ):
        dx, dy = positions[:, 0] - sensor.x, positions[:, 1] - sensor.y
        got = displacement_log_likelihoods(dx, dy, measurement, noise_std)
        want = old_displacement_log_likelihoods(positions, sensor, measurement, noise_std)
        assert same_bits(got, want)
        assert same_bits(displacement_log_likelihoods(dx, dy, list(measurement), noise_std), want)

    @settings(max_examples=300, deadline=None)
    @given(sensor=sensor_states, data=st.data(), noise_std=st.floats(0.1, 50.0))
    def test_displacement_log_likelihoods_of_one_measurement_per_row(self, sensor, data, noise_std):
        positions = data.draw(point_arrays())
        measurements = data.draw(arrays(np.float64, positions.shape, elements=coords))
        dx, dy = positions[:, 0] - sensor.x, positions[:, 1] - sensor.y
        got = displacement_log_likelihoods(dx, dy, measurements, noise_std)
        assert same_bits(got, old_displacement_log_likelihoods(positions, sensor, measurements, noise_std))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), noise_std=st.floats(0.1, 50.0))
    def test_displacement_log_likelihoods_with_an_origin_per_pair(self, data, noise_std):
        # the update's form: (G, J) offsets of each pair's particles from its
        # own pose, one (2,) measurement per pair
        g, j = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 6))
        sensors = data.draw(st.lists(sensor_states, min_size=g, max_size=g))
        states = data.draw(arrays(np.float64, (g, j, 4), elements=coords))
        z = data.draw(arrays(np.float64, (g, 2), elements=coords))
        xs, ys = np.array([(s.x, s.y) for s in sensors]).reshape(g, 2).T[:, :, None]
        got = displacement_log_likelihoods(states[:, :, 0] - xs, states[:, :, 1] - ys,
                                           z[:, None, :], noise_std)
        assert got.shape == (g, j)
        for row, sensor, states_row, z_row in zip(got, sensors, states, z):
            want = old_displacement_log_likelihoods(states_row[:, :2], sensor, z_row, noise_std)
            assert same_bits(row, want)

    @settings(max_examples=200, deadline=None)
    @given(
        states=point_arrays(columns=4, max_rows=60),
        period=st.floats(0.01, 10.0),
        noise=st.sampled_from([0.0]) | st.floats(0.01, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_propagate_states(self, states, period, noise, seed):
        motion = MotionModel(period, noise, 0.99)
        rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = propagate_states(motion, states, rng)
        assert same_bits(got, old_propagate_states(motion, states, old_rng))
        assert rng.bit_generator.state == old_rng.bit_generator.state


class TestMeasurementLikelihood:
    def test_mode_value(self):
        val = displacement_log_likelihoods(np.array([3.0]), np.array([4.0]), (3.0, 4.0), 1.0)
        assert np.exp(val[0]) == pytest.approx(1.0 / (2 * math.pi))

    def test_one_sigma_offset(self):
        sensor = SensorState(10.0, -5.0, 0.3)
        positions = np.array([[10.0, -5.0], [11.0, -5.0], [10.0, -4.0]])
        dx, dy = positions[:, 0] - sensor.x, positions[:, 1] - sensor.y
        val = displacement_log_likelihoods(dx, dy, (0.0, 0.0), 1.0)
        assert val[1] == pytest.approx(val[0] - 0.5)
        assert val[2] == pytest.approx(val[0] - 0.5)

    def test_sigma_scaling(self):
        dx = dy = np.array([0.0])
        wide = displacement_log_likelihoods(dx, dy, (0, 0), 2.0)[0]
        narrow = displacement_log_likelihoods(dx, dy, (0, 0), 1.0)[0]
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

    def test_scenario_1_rotation_chains_equal_double_wrap(self):
        # every bearing a scenario 1 sensor can reach in one run, one action
        # per step, is the old double wrap of its unwrapped sum, bit for bit
        scenario = build_scenario_1()
        actions = {a for spec in scenario.sensors for a in spec.actions}
        frontier = {spec.initial_state().bearing for spec in scenario.sensors}
        seen, single_wrap_gives_minus_pi = set(frontier), 0
        for _ in range(scenario.duration):
            reached = set()
            for bearing in frontier:
                for action in actions:
                    total = bearing + action.rotation
                    after = apply_action(SensorState(0.0, 0.0, bearing), action).bearing
                    assert after.hex() == double_wrap(total).hex()
                    single_wrap_gives_minus_pi += old_wrap(total) == -math.pi
                    reached.add(after)
            frontier = reached - seen
            seen |= reached
        assert len(seen) > 400 and single_wrap_gives_minus_pi > 0


class TestPropagate:
    MOTION = MotionModel(period=1.0, process_noise_std=0.5, survival_probability=0.99)

    def test_noiseless_shift(self):
        quiet = MotionModel(1.0, 0.0, 0.99)
        out = propagate_states(quiet, np.array([[0.0, 0, 1, 2]]), np.random.default_rng(0))
        assert np.allclose(out, [[1, 2, 1, 2]])

    def test_zero_velocity_fixed_point(self):
        quiet = MotionModel(1.0, 0.0, 0.99)
        out = propagate_states(quiet, np.array([[5.0, 6, 0, 0]]), np.random.default_rng(0))[0]
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

    def test_remainder_rounded_up_gives_pi(self):
        angle = math.nextafter(math.pi, 4)
        assert old_wrap(angle) == -math.pi
        assert wrap_angle(angle) == math.pi
        assert SensorState(0, 0, angle).bearing == math.pi

    @staticmethod
    def check_against_double_wrap(angles):
        wrapped = [wrap_angle(a) for a in angles]
        assert all(-math.pi < w <= math.pi for w in wrapped)
        assert np.array_equal(bits(wrapped), bits([double_wrap(a) for a in angles]))
        assert np.array_equal(bits(wrapped), bits([wrap_angle(w) for w in wrapped]))

    @pytest.mark.parametrize("center", [0.0, math.pi, TWO_PI, 3 * math.pi])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_ulps_near_multiples_of_pi(self, center, sign):
        below = above = sign * center
        angles = [below]
        for _ in range(3000):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            angles += [below, above]
        self.check_against_double_wrap(angles)

    def test_uniform_draws(self):
        self.check_against_double_wrap(np.random.default_rng(19).uniform(-20, 20, 100_000).tolist())

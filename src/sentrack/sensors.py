"""Sensor geometry, sigmoid field-of-view detection model, and target motion.

Angles are radians everywhere in code; configuration files accept degrees
and convert at load time.  Bearings are measured from the +y axis, i.e.
atan2(dx, dy), matching the measurement convention of relative
(horizontal, vertical) displacement.  Only SensorState wraps a bearing.

Where particle positions meet a point, x and y are handled per axis: an
(N, 2) array minus a 2-vector makes numpy run one 2-element inner loop per
row, several times slower than two 1-D subtractions.  Subtraction, squares,
hypot and arctan2 are elementwise, so both forms give the same bits (the lmb
docstring says which reductions do).
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Normalize an angle to (-pi, pi], idempotently: where the remainder rounds
    up to 2*pi (as for nextafter(pi, 4)) the formula gives -pi, and pi is returned."""
    wrapped = -((-angle + math.pi) % TWO_PI - math.pi)
    return math.pi if wrapped == -math.pi else wrapped


@dataclass(frozen=True)
class SensorState:
    """Planar sensor pose: position in meters, bearing in radians."""

    x: float
    y: float
    bearing: float

    def __post_init__(self):
        object.__setattr__(self, "bearing", wrap_angle(self.bearing))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class FovModel:
    """Sigmoid detection profile over a range/bearing sector.

    Detection probability is the product of two logistic factors, one in
    range and one in absolute bearing, each topping out at p_d_max, and is
    exactly zero outside range rho_max or bearing theta_max.  theta_max of
    pi (or more) means no angular restriction: the bearing factor is then
    held at p_d_max instead of evaluating a sigmoid with a seam at +-pi.
    """

    rho_max: float
    theta_max: float
    p_d_max: float
    k_rho: float
    k_theta: float
    p_d_threshold: float = 0.5

    def __post_init__(self):
        if self.rho_max <= 0:
            raise ValueError("rho_max must be positive")
        if not 0 < self.theta_max <= math.pi:
            raise ValueError("theta_max must be in (0, pi]")
        if not 0 < self.p_d_max <= 1:
            raise ValueError("p_d_max must be in (0, 1]")
        if self.k_rho <= 0 or self.k_theta <= 0:
            raise ValueError("sigmoid sharpness constants must be positive")
        if not 0.0 <= self.p_d_threshold < 1.0:
            raise ValueError("p_d_threshold must be in [0, 1)")

    @property
    def omnidirectional(self) -> bool:
        return self.theta_max >= math.pi - 1e-12

    def support_area(self) -> float:
        """Area of the detection support (sector of half-angle theta_max)."""
        return self.theta_max * self.rho_max**2


@dataclass(frozen=True)
class SensorAction:
    """One control command: planar translation in meters plus rotation in radians."""

    dx: float = 0.0
    dy: float = 0.0
    rotation: float = 0.0

    @property
    def is_zero(self) -> bool:
        return self.dx == 0.0 and self.dy == 0.0 and self.rotation == 0.0


@dataclass(frozen=True)
class MotionModel:
    """Constant-velocity motion with white-noise acceleration.

    process_noise_std is the acceleration noise (m/s^2) of the discrete
    white-noise-acceleration form.  survival_probability scales component
    existence at each prediction.
    """

    period: float = 1.0
    process_noise_std: float = 1.0
    survival_probability: float = 0.99

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.process_noise_std < 0:
            raise ValueError("process_noise_std must be nonnegative")
        if not 0 < self.survival_probability <= 1:
            raise ValueError("survival_probability must be in (0, 1]")


def detection_probabilities(
    fov: FovModel, sensor: SensorState | Sequence[SensorState], positions: np.ndarray
) -> np.ndarray:
    """Sigmoid detection probability at each of N positions, given as (N, 2),
    seen from one SensorState, as (N,), or from each of a sequence of A
    poses, as (A, N).

    The simulated detections, the ideal measurement sets and the active-set
    rule evaluate the model through this function; the filter update, which
    already holds its particles' offsets from each pose, calls
    detection_model on them.  Every step is elementwise, so a pose's row
    has the bits of its own call.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    if isinstance(sensor, SensorState):
        x, y, bearing = sensor.x, sensor.y, sensor.bearing
    else:  # (A, 1) columns, broadcast against the positions
        x, y, bearing = np.array([(s.x, s.y, s.bearing) for s in sensor]).T[:, :, None]
    return detection_model(fov, positions[:, 0] - x, positions[:, 1] - y, bearing)


def detection_model(fov: FovModel, dx: np.ndarray, dy: np.ndarray, bearing) -> np.ndarray:
    """The one detection model: sigmoid detection probability of targets at
    offsets dx = x - x_s and dy = y - y_s from a sensor of the given bearing,
    all broadcast together.  Bearings are atan2(dx, dy) relative to the
    sensor bearing.  Every step is elementwise, so an offset's probability
    has the same bits in any array that holds it.
    """
    rho = np.hypot(dx, dy)
    inside = rho <= fov.rho_max
    p_rho = fov.p_d_max / (1.0 + np.exp(np.minimum(fov.k_rho * (rho - fov.rho_max), 500.0)))
    if fov.omnidirectional:
        p = p_rho * fov.p_d_max
    else:
        # |wrap_angle(bearing offset)|, where -pi and pi give the same value
        theta = np.abs((bearing - np.arctan2(dx, dy) + math.pi) % TWO_PI - math.pi)
        inside = inside & (theta <= fov.theta_max)
        p_theta = fov.p_d_max / (
            1.0 + np.exp(np.minimum(fov.k_theta * (theta - fov.theta_max), 500.0))
        )
        p = p_rho * p_theta
    return np.where(inside, p, 0.0)


def displacement_log_likelihoods(
    dx: np.ndarray, dy: np.ndarray, measurement: np.ndarray, noise_std: float
) -> np.ndarray:
    """Log Gaussian likelihood of a displacement measurement for particles at
    offsets dx = x - x_s and dy = y - y_s from the sensor.  measurement is one
    (2,) displacement or (..., 2), broadcast against the offsets."""
    z = np.asarray(measurement, dtype=float)
    ex, ey = dx - z[..., 0], dy - z[..., 1]
    var = noise_std**2
    return -0.5 * (ex * ex + ey * ey) / var - math.log(TWO_PI * var)


def apply_action(sensor: SensorState, action: SensorAction) -> SensorState:
    """Apply a control command: translate, then rotate (SensorState wraps the bearing)."""
    return SensorState(sensor.x + action.dx, sensor.y + action.dy, sensor.bearing + action.rotation)


def propagate_states(
    motion: MotionModel, states: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized constant-velocity propagation of an (N, 4) state array."""
    t = motion.period
    out = np.array(states, dtype=float, copy=True)
    out[:, 0] += t * states[:, 2]
    out[:, 1] += t * states[:, 3]
    if motion.process_noise_std > 0:
        accel = rng.normal(0.0, motion.process_noise_std, size=(len(out), 2))
        for axis in (0, 1):
            out[:, axis] += 0.5 * t**2 * accel[:, axis]
            out[:, axis + 2] += t * accel[:, axis]
    return out

"""Sensor geometry, sigmoid field-of-view detection model, and target motion.

Angles are radians everywhere in code; configuration files accept degrees
and convert at load time.  Bearings are measured from the +y axis, i.e.
atan2(dx, dy), matching the measurement convention of relative
(horizontal, vertical) displacement.
"""

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    return -((-angle + math.pi) % TWO_PI - math.pi)


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
        if not 0 < self.survival_probability <= 1:
            raise ValueError("survival_probability must be in (0, 1]")


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Vectorized wrap_angle."""
    return -((-np.asarray(angles) + math.pi) % TWO_PI - math.pi)


def detection_probabilities(
    fov: FovModel, sensor: SensorState, positions: np.ndarray
) -> np.ndarray:
    """Sigmoid detection probability at each of N positions, given as (N, 2).

    This is the one detection model: the filter update, the ideal
    measurement sets, the active-set rule and the simulated detections all
    evaluate it.  Bearings are atan2(dx, dy) relative to the sensor bearing.
    """
    d = np.asarray(positions, dtype=float).reshape(-1, 2) - sensor.position
    rho = np.hypot(d[:, 0], d[:, 1])
    inside = rho <= fov.rho_max
    p_rho = fov.p_d_max / (1.0 + np.exp(np.minimum(fov.k_rho * (rho - fov.rho_max), 500.0)))
    if fov.omnidirectional:
        p = p_rho * fov.p_d_max
    else:
        theta = np.abs(wrap_angles(np.arctan2(d[:, 0], d[:, 1]) - sensor.bearing))
        inside = inside & (theta <= fov.theta_max)
        p_theta = fov.p_d_max / (
            1.0 + np.exp(np.minimum(fov.k_theta * (theta - fov.theta_max), 500.0))
        )
        p = p_rho * p_theta
    return np.where(inside, p, 0.0)


def displacement_log_likelihoods(
    positions: np.ndarray, sensor: SensorState, measurement: np.ndarray, noise_std: float
) -> np.ndarray:
    """Log Gaussian displacement likelihood for each particle position."""
    err = (positions - sensor.position) - np.asarray(measurement, dtype=float)
    var = noise_std**2
    return -0.5 * np.einsum("ij,ij->i", err, err) / var - math.log(TWO_PI * var)


def apply_action(sensor: SensorState, action: SensorAction) -> SensorState:
    """Apply a control command: translate, then rotate (bearing renormalized)."""
    return SensorState(
        x=sensor.x + action.dx,
        y=sensor.y + action.dy,
        bearing=wrap_angle(sensor.bearing + action.rotation),
    )


def propagate_states(
    motion: MotionModel, states: np.ndarray, rng: np.random.Generator | None
) -> np.ndarray:
    """Vectorized constant-velocity propagation of an (N, 4) state array."""
    t = motion.period
    out = np.array(states, dtype=float, copy=True)
    out[:, 0] += t * states[:, 2]
    out[:, 1] += t * states[:, 3]
    if rng is not None and motion.process_noise_std > 0:
        accel = rng.normal(0.0, motion.process_noise_std, size=(len(out), 2))
        out[:, :2] += 0.5 * t**2 * accel
        out[:, 2:] += t * accel
    return out

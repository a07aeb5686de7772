"""Scenario construction and human-editable configuration files.

Ground-truth trajectories are generated procedurally from constants
committed here, so results are stable across machines.

Configuration files are YAML.  Angles are in degrees in the file and in
radians in code; they are converted on load.  Bearings and rotations are
measured clockwise from +y.  Distances are in meters.  A key not listed
below, a missing required key, or a value not of its field's type (a
number, an integer, a list or a string; null is none of them) is rejected
with a ValueError that names the key and its section.

  name                 scenario name (default "custom")
  duration             number of steps
  comm_range           communication range
  clutter_mean         mean clutter count per sensor per step
  sensors              list, at least one, of:
    position           [x, y]
    bearing_deg        initial bearing
    fov                {rho_max, theta_max_deg (half-angle), p_d_max,
                        k_rho, k_theta, p_d_threshold (default 0.5)}
    actions            list of {move: [dx, dy], rotate_deg}, both
                       optional; the first must be the stay action (no
                       move, no rotation), which is also the fallback when
                       no action is feasible
  targets              list of {position: [x, y], velocity: [vx, vy],
                        birth (default 1), death (default none)}
  motion, filter, objective, fusion, metric, monte_carlo
                       optional mappings of the fields of MotionModel,
                       FilterConfig, ObjectiveParams, FusionConfig,
                       MetricConfig and MonteCarloConfig; omitted fields
                       keep their defaults.  The step period, in
                       seconds, is motion.period: targets move by it and
                       the filters predict with it.  filter takes no
                       clutter_intensity: each sensor derives it from
                       clutter_mean and its FoV area.
"""

import math
from dataclasses import asdict, dataclass, fields, replace

import yaml

from .control import ObjectiveParams
from .filtering import FilterConfig
from .fusion import FusionConfig
from .sensors import FovModel, MotionModel, SensorAction, SensorState

DEG = math.pi / 180.0


@dataclass(frozen=True)
class TargetSpec:
    """Linear ground-truth trajectory: alive for birth <= step < death."""

    position: tuple
    velocity: tuple
    birth: int = 1
    death: int | None = None


@dataclass(frozen=True)
class SensorSpec:
    position: tuple
    bearing: float
    fov: FovModel
    actions: tuple

    def __post_init__(self):
        if not self.actions or not self.actions[0].is_zero:
            raise ValueError("a sensor's action set must start with the stay action")

    def initial_state(self) -> SensorState:
        return SensorState(self.position[0], self.position[1], self.bearing)


@dataclass(frozen=True)
class MetricConfig:
    ospa_cutoff: float = 100.0
    ospa_order: float = 1.0
    ospa2_window: int = 10

    def __post_init__(self):
        if not self.ospa_cutoff > 0:
            raise ValueError("ospa_cutoff must be positive")
        if not self.ospa_order >= 1:
            raise ValueError("ospa_order must be >= 1")
        if self.ospa2_window < 1:
            raise ValueError("ospa2_window must be >= 1")


@dataclass(frozen=True)
class MonteCarloConfig:
    runs: int = 30
    base_seed: int = 20260810

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be nonnegative")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    duration: int
    comm_range: float
    clutter_mean: float
    sensors: tuple
    targets: tuple
    motion: MotionModel = MotionModel()
    filter: FilterConfig = FilterConfig(clutter_intensity=0.0)
    objective: ObjectiveParams = ObjectiveParams()
    fusion: FusionConfig = FusionConfig()
    metric: MetricConfig = MetricConfig()
    monte_carlo: MonteCarloConfig = MonteCarloConfig()

    def __post_init__(self):
        if not self.sensors:
            raise ValueError("a scenario needs at least one sensor")
        for t in self.targets:
            if t.death is not None and t.death <= t.birth:
                raise ValueError("target death step must exceed its birth step")
        if self.duration < 1 or self.comm_range <= 0:
            raise ValueError("duration and comm_range must be positive")
        if self.clutter_mean < 0:
            raise ValueError("clutter_mean must be nonnegative")

    def filter_for(self, sensor_index: int) -> FilterConfig:
        """Per-sensor filter config with clutter density over that FoV."""
        area = self.sensors[sensor_index].fov.support_area()
        return replace(self.filter, clutter_intensity=self.clutter_mean / area)

    def alive(self, target_index: int, step: int) -> bool:
        t = self.targets[target_index]
        return t.birth <= step and (t.death is None or step < t.death)

    def truth_position(self, target_index: int, step: int):
        t = self.targets[target_index]
        dt = (step - t.birth) * self.motion.period
        return (t.position[0] + t.velocity[0] * dt, t.position[1] + t.velocity[1] * dt)

    def truth_states(self, step: int) -> dict:
        """Alive target index -> (x, y) at the given step."""
        return {
            i: self.truth_position(i, step)
            for i in range(len(self.targets))
            if self.alive(i, step)
        }

    def truth_tracks(self, duration: int | None = None) -> dict:
        """Target index -> {step: (x, y)} over steps 1..duration (default:
        the scenario's), for targets alive in any of them."""
        if duration is None:
            duration = self.duration
        if duration < 1:
            raise ValueError("duration must be >= 1")
        tracks = {}
        for i in range(len(self.targets)):
            track = {
                k: self.truth_position(i, k)
                for k in range(1, duration + 1)
                if self.alive(i, k)
            }
            if track:
                tracks[i] = track
        return tracks


def rotation_actions(step_deg: float) -> tuple:
    """Stay, rotate clockwise, rotate anticlockwise.

    Bearings are measured clockwise from +y, so a positive rotation is
    clockwise.
    """
    step = step_deg * DEG
    return (SensorAction(), SensorAction(rotation=step), SensorAction(rotation=-step))


def compass_actions(step_m: float) -> tuple:
    """Stay plus the eight compass translations of step_m meters."""
    d = step_m / math.sqrt(2.0)
    return (
        SensorAction(),
        SensorAction(dx=step_m),  # east
        SensorAction(dx=d, dy=d),  # north-east
        SensorAction(dy=step_m),  # north
        SensorAction(dx=-d, dy=d),  # north-west
        SensorAction(dx=-step_m),  # west
        SensorAction(dx=-d, dy=-d),  # south-west
        SensorAction(dy=-step_m),  # south
        SensorAction(dx=d, dy=-d),  # south-east
    )


def build_scenario_1() -> ScenarioConfig:
    """Six rotating sensors around a 1000 m x 2000 m region, 11 targets.

    Perimeter sensors face the center of the region; targets radiate
    outward from the central band on linear trajectories, two dying
    prematurely.  Sensors can only rotate (stay / 22.5 degrees clockwise /
    anticlockwise).
    """
    fov = FovModel(
        rho_max=500.0, theta_max=45.0 * DEG, p_d_max=0.99, k_rho=0.5, k_theta=20.0,
        p_d_threshold=0.5,
    )
    actions = rotation_actions(22.5)
    # side sensors watch the initial central cluster; corner sensors face
    # the escape corridors and only acquire targets that come their way
    sensor_rows = [
        ((-390.0, 400.0), 50.0 * DEG),
        ((390.0, 400.0), -50.0 * DEG),
        ((-390.0, 1000.0), 90.0 * DEG),
        ((390.0, 1000.0), -90.0 * DEG),
        ((-390.0, 1600.0), 135.0 * DEG),
        ((390.0, 1600.0), -135.0 * DEG),
    ]
    sensors = tuple(
        SensorSpec(position=p, bearing=b, fov=fov, actions=actions) for p, b in sensor_rows
    )
    # the two western groups move as loose convoys so the premature deaths
    # happen inside an attended field of view
    target_rows = [
        ((-60.0, 1080.0), (-13.0, 2.0), None),
        ((60.0, 950.0), (13.0, -6.0), None),
        ((0.0, 1060.0), (-13.0, 3.0), 30),
        ((-40.0, 1100.0), (-4.0, 11.0), None),
        ((40.0, 1080.0), (9.0, 10.0), None),
        ((0.0, 900.0), (1.0, -14.0), None),
        ((-80.0, 1000.0), (-13.0, 3.0), None),
        ((80.0, 1010.0), (14.0, 4.0), None),
        ((0.0, 1150.0), (-6.0, 12.0), 40),
        ((-30.0, 850.0), (-2.0, -13.0), None),
        ((30.0, 1200.0), (-7.0, 12.0), None),
    ]
    targets = tuple(
        TargetSpec(position=p, velocity=v, birth=1, death=d) for p, v, d in target_rows
    )
    return ScenarioConfig(
        name="scenario-1",
        duration=50,
        comm_range=800.0,
        clutter_mean=5.0,
        sensors=sensors,
        targets=targets,
        motion=MotionModel(period=1.0, process_noise_std=4.0, survival_probability=0.95),
        filter=FilterConfig(
            clutter_intensity=0.0,
            birth_existence=0.1,
            birth_particle_std=10.0,
            birth_velocity_std=10.0,
            association_gate=50.0,
            particle_count=500,
            meas_noise_std=5.0,
            existence_floor=1e-4,
            max_components=80,
        ),
        objective=ObjectiveParams(min_existence=0.7),
        fusion=FusionConfig(merge_distance=25.0, estimate_floor=0.25),
    )


def build_scenario_2() -> ScenarioConfig:
    """Eight translating sensors in an 800 m x 800 m region, 20 targets.

    Two circular groups of ten targets each translate linearly, cross near
    the center of the region around step 43, and separate again.
    Omnidirectional short-range sensors (100 m) move in 15 m compass steps.
    """
    fov = FovModel(
        rho_max=100.0, theta_max=math.pi, p_d_max=0.99, k_rho=0.5, k_theta=20.0,
        p_d_threshold=0.5,
    )
    actions = compass_actions(15.0)
    group_a = (230.0, 270.0)
    group_b = (570.0, 530.0)
    vel_a = (4.0, 3.0)
    vel_b = (-4.0, -3.0)
    radius = 60.0

    def ring(center, velocity):
        rows = []
        for k in range(10):
            ang = 2.0 * math.pi * k / 10.0
            rows.append(
                TargetSpec(
                    position=(center[0] + radius * math.cos(ang), center[1] + radius * math.sin(ang)),
                    velocity=velocity,
                )
            )
        return rows

    def corners(center):
        return [
            (center[0] - 70.0, center[1] - 70.0),
            (center[0] + 70.0, center[1] - 70.0),
            (center[0] - 70.0, center[1] + 70.0),
            (center[0] + 70.0, center[1] + 70.0),
        ]

    sensors = tuple(
        SensorSpec(position=p, bearing=0.0, fov=fov, actions=actions)
        for p in corners(group_a) + corners(group_b)
    )
    targets = tuple(ring(group_a, vel_a) + ring(group_b, vel_b))
    return ScenarioConfig(
        name="scenario-2",
        duration=100,
        comm_range=300.0,
        clutter_mean=5.0,
        sensors=sensors,
        targets=targets,
        motion=MotionModel(period=1.0, process_noise_std=1.0, survival_probability=0.95),
        filter=FilterConfig(
            clutter_intensity=0.0,
            birth_existence=0.1,
            birth_particle_std=8.0,
            birth_velocity_std=8.0,
            association_gate=30.0,
            particle_count=500,
            meas_noise_std=5.0,
            existence_floor=0.01,
            max_components=120,
        ),
        objective=ObjectiveParams(min_existence=0.7),
        fusion=FusionConfig(merge_distance=25.0, estimate_floor=0.25),
    )


# ---------------------------------------------------------------------------
# YAML round trip (angles in degrees in the file)
# ---------------------------------------------------------------------------


_TOP_LEVEL_REQUIRED = ("duration", "comm_range", "clutter_mean", "sensors", "targets")
_TOP_LEVEL_OPTIONAL = ("name", "motion", "filter", "objective", "fusion", "metric", "monte_carlo")


def _checked(d: dict, section: str, optional, required=()) -> dict:
    """d itself, once it is a mapping with every required key and no key
    outside optional and required."""
    if not isinstance(d, dict):
        raise ValueError(f"scenario section {section!r} must be a mapping, not {type(d).__name__}")
    unknown = sorted(set(d) - set(optional) - set(required))
    if unknown:
        keys = ", ".join(repr(k) for k in unknown)
        raise ValueError(f"unknown key {keys} in scenario section {section!r}")
    for key in required:
        if key not in d:
            raise ValueError(f"missing key {key!r} in scenario section {section!r}")
    return d


# a field type -> the values it takes and their name; a bool is no number
_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"), list: (list, "a list"),
          str: (str, "a string")}


def _get(d: dict, key: str, section: str, kind=float, default=None):
    """d[key] (or default when absent) as kind: float, int, list or str."""
    value = d.get(key, default)
    types, name = _KINDS[kind]
    if isinstance(value, types) and not isinstance(value, bool):
        return kind(value)
    raise ValueError(f"{key!r} in scenario section {section!r} must be {name}, not {value!r}")


def _pair(d: dict, key: str, section: str, default=None) -> tuple:
    """d[key] (or default when absent) as two floats: a position, velocity or move."""
    value = d.get(key, default)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return tuple(_get({key: v}, key, section) for v in value)
        except ValueError:
            pass
    raise ValueError(f"{key!r} in scenario section {section!r} must be two numbers, not {value!r}")


def _config(cls, d: dict, section: str, **fixed):
    """A config dataclass from its section, typed by field; the fixed fields cannot be set."""
    kinds = {f.name: f.type for f in fields(cls) if f.name not in fixed}
    given = _checked(d, section, kinds)
    return cls(**fixed, **{key: _get(given, key, section, kinds[key]) for key in given})


def _fov_to_dict(fov: FovModel) -> dict:
    return {
        "rho_max": fov.rho_max,
        "theta_max_deg": fov.theta_max / DEG,
        "p_d_max": fov.p_d_max,
        "k_rho": fov.k_rho,
        "k_theta": fov.k_theta,
        "p_d_threshold": fov.p_d_threshold,
    }


def _fov_from_dict(d: dict, section: str) -> FovModel:
    required = ("rho_max", "theta_max_deg", "p_d_max", "k_rho", "k_theta")
    given = {key: _get(d, key, section) for key in _checked(d, section, ("p_d_threshold",), required)}
    given["theta_max"] = given.pop("theta_max_deg") * DEG
    return FovModel(**given)


def _action_to_dict(a: SensorAction) -> dict:
    return {"move": [a.dx, a.dy], "rotate_deg": a.rotation / DEG}


def _action_from_dict(d: dict, section: str) -> SensorAction:
    dx, dy = _pair(_checked(d, section, ("move", "rotate_deg")), "move", section, (0.0, 0.0))
    return SensorAction(dx=dx, dy=dy, rotation=_get(d, "rotate_deg", section, default=0.0) * DEG)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return {
        "name": cfg.name,
        "duration": cfg.duration,
        "comm_range": cfg.comm_range,
        "clutter_mean": cfg.clutter_mean,
        "motion": asdict(cfg.motion),
        "filter": {k: v for k, v in asdict(cfg.filter).items() if k != "clutter_intensity"},
        "objective": asdict(cfg.objective),
        "fusion": asdict(cfg.fusion),
        "metric": asdict(cfg.metric),
        "monte_carlo": asdict(cfg.monte_carlo),
        "sensors": [
            {
                "position": list(s.position),
                "bearing_deg": s.bearing / DEG,
                "fov": _fov_to_dict(s.fov),
                "actions": [_action_to_dict(a) for a in s.actions],
            }
            for s in cfg.sensors
        ],
        "targets": [
            {
                "position": list(t.position),
                "velocity": list(t.velocity),
                "birth": t.birth,
                "death": t.death,
            }
            for t in cfg.targets
        ],
    }


def scenario_from_dict(d: dict) -> ScenarioConfig:
    _checked(d, "top level", _TOP_LEVEL_OPTIONAL, _TOP_LEVEL_REQUIRED)
    sensors = []
    for i, s in enumerate(_get(d, "sensors", "top level", list)):
        section = f"sensors[{i}]"
        _checked(s, section, (), ("position", "bearing_deg", "fov", "actions"))
        sensors.append(
            SensorSpec(
                position=_pair(s, "position", section),
                bearing=_get(s, "bearing_deg", section) * DEG,
                fov=_fov_from_dict(s["fov"], f"{section}.fov"),
                actions=tuple(
                    _action_from_dict(a, f"{section}.actions[{j}]")
                    for j, a in enumerate(_get(s, "actions", section, list))
                ),
            )
        )
    targets = []
    for i, t in enumerate(_get(d, "targets", "top level", list)):
        section = f"targets[{i}]"
        _checked(t, section, ("birth", "death"), ("position", "velocity"))
        targets.append(
            TargetSpec(
                position=_pair(t, "position", section),
                velocity=_pair(t, "velocity", section),
                birth=_get(t, "birth", section, int, 1),
                death=None if t.get("death") is None else _get(t, "death", section, int),
            )
        )
    return ScenarioConfig(
        name=_get(d, "name", "top level", str, "custom"),
        duration=_get(d, "duration", "top level", int),
        comm_range=_get(d, "comm_range", "top level"),
        clutter_mean=_get(d, "clutter_mean", "top level"),
        sensors=tuple(sensors),
        targets=tuple(targets),
        motion=_config(MotionModel, d.get("motion", {}), "motion"),
        filter=_config(FilterConfig, d.get("filter", {}), "filter", clutter_intensity=0.0),
        objective=_config(ObjectiveParams, d.get("objective", {}), "objective"),
        fusion=_config(FusionConfig, d.get("fusion", {}), "fusion"),
        metric=_config(MetricConfig, d.get("metric", {}), "metric"),
        monte_carlo=_config(MonteCarloConfig, d.get("monte_carlo", {}), "monte_carlo"),
    )


def save_scenario(cfg: ScenarioConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(scenario_to_dict(cfg), fh, sort_keys=False)


def load_scenario(path) -> ScenarioConfig:
    with open(path) as fh:
        try:
            document = yaml.safe_load(fh)
        except yaml.YAMLError as exc:  # its message spans lines; a ValueError's is one
            raise ValueError(f"scenario file {str(path)!r} is not valid YAML: "
                             f"{' '.join(str(exc).split())}") from exc
    return scenario_from_dict(document)

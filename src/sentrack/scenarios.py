"""Scenario construction and human-editable configuration files.

Ground-truth trajectories are generated procedurally from constants
committed here, so results are stable across machines.

Configuration files are YAML.  A section's keys are the fields of its
dataclass, listed below: a field without a default is a required key, an
omitted key keeps the field's default, and a value is read by the field's
annotation (a number, an integer, a list, a string, [x, y] for a pair, a
mapping for a section and a list of them for a tuple of sections; null is
none of them, except for a target's death, and neither .nan nor .inf is a
number, so a fully connected network takes a comm_range larger than the
region).  A key that names no field, a missing required key or a value of
another type is rejected with a ValueError that names the key and its
section.  Four facts are the file's own: angles are in degrees, so the
fields bearing and theta_max are read from bearing_deg and theta_max_deg;
an action is {move: [dx, dy], rotate_deg}; filter takes no
clutter_intensity; and name defaults to "custom".  Bearings and rotations
are measured clockwise from +y and distances are in meters.

  name, duration, comm_range, clutter_mean (mean clutter count per sensor
                       per step), sensors and targets: ScenarioConfig
  sensors              at least one SensorSpec: position, bearing_deg, fov
                       (FovModel: rho_max, theta_max_deg (half-angle),
                       p_d_max, k_rho, k_theta, p_d_threshold), actions
  actions              {move, rotate_deg}, both optional; the first must be
                       the stay action (no move, no rotation), which is
                       also the fallback when no action is feasible
  targets              TargetSpec: position, velocity, birth, death
  motion, filter, objective, fusion, metric, monte_carlo
                       MotionModel, FilterConfig, ObjectiveParams,
                       FusionConfig, MetricConfig and MonteCarloConfig, all
                       optional.  The step period, in seconds, is
                       motion.period: targets move by it and the filters
                       predict with it.  Each sensor derives its filter's
                       clutter_intensity from clutter_mean and its FoV area.
"""

import math
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from typing import get_args

from .control import ObjectiveParams
from .filtering import FilterConfig
from .fusion import FusionConfig
from .sensors import FovModel, MotionModel, SensorAction, SensorState

DEG = math.pi / 180.0


@dataclass(frozen=True)
class TargetSpec:
    """Linear ground-truth trajectory: alive for birth <= step < death."""

    position: tuple[float, float]
    velocity: tuple[float, float]
    birth: int = 1
    death: int | None = None


@dataclass(frozen=True)
class SensorSpec:
    position: tuple[float, float]
    bearing: float
    fov: FovModel
    actions: tuple[SensorAction, ...]

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
    sensors: tuple[SensorSpec, ...]
    targets: tuple[TargetSpec, ...]
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

    def truth_tracks(self, duration: int) -> dict:
        """Target index -> {step: (x, y)} over steps 1..duration, for
        targets alive in any of them."""
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
# YAML round trip: a section's keys are its dataclass's fields
# ---------------------------------------------------------------------------

# the format's own facts, which the fields do not state
_DEGREES = ("bearing", "theta_max")  # radians in code, <name>_deg in the file
_FIXED = {"clutter_intensity": 0.0}  # FilterConfig's: derived per sensor, not settable
_DEFAULTS = {"name": "custom"}  # ScenarioConfig's, for a file that names none


def _checked(d: dict, section: str, optional, required=()) -> dict:
    """d itself, once it is a mapping with every required key and no key
    outside optional and required."""
    if not isinstance(d, dict):
        raise ValueError(f"scenario section {section!r} must be a mapping, not {type(d).__name__}")
    # by repr, since keys of two YAML types (1 and "colour") do not compare
    unknown = sorted(map(repr, set(d) - set(optional) - set(required)))
    if unknown:
        raise ValueError(f"unknown key {', '.join(unknown)} in scenario section {section!r}")
    for key in required:
        if key not in d:
            raise ValueError(f"missing key {key!r} in scenario section {section!r}")
    return d


# a field type -> the values it takes and their name; a bool is no number
_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"), list: (list, "a list"),
          str: (str, "a string")}


def _get(d: dict, key: str, section: str, kind=float, default=None):
    """d[key] (or default when absent) as kind: float, int, list or str.
    NaN and inf are no number here: a range check such as x <= 0 passes them."""
    value = d.get(key, default)
    types, name = _KINDS[kind]
    finite = not isinstance(value, float) or math.isfinite(value)
    if isinstance(value, types) and not isinstance(value, bool) and finite:
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


def _action_to_dict(a: SensorAction) -> dict:
    return {"move": [a.dx, a.dy], "rotate_deg": a.rotation / DEG}


def _action_from_dict(d: dict, section: str) -> SensorAction:
    dx, dy = _pair(_checked(d, section, ("move", "rotate_deg")), "move", section, (0.0, 0.0))
    return SensorAction(dx=dx, dy=dy, rotation=_get(d, "rotate_deg", section, default=0.0) * DEG)


def _key(name: str) -> str:
    return f"{name}_deg" if name in _DEGREES else name


def _value(kind, d: dict, key: str, section: str):
    """d[key] read as a field annotated kind."""
    inner = key if section == "top level" else f"{section}.{key}"
    if kind in _KINDS:
        return _get(d, key, section, kind)
    if kind == tuple[float, float]:
        return _pair(d, key, section)
    if kind == int | None:
        return None if d[key] is None else _get(d, key, section, int)
    if is_dataclass(kind):
        return _read(kind, d[key], inner)
    (item, _) = get_args(kind)  # tuple[item, ...]: a list of sections
    return tuple(_read(item, v, f"{inner}[{i}]") for i, v in enumerate(_get(d, key, section, list)))


def _read(cls, d, section: str):
    """A cls from its section d: one key per field, required when the field
    has no default, each value read by the field's annotation."""
    if cls is SensorAction:
        return _action_from_dict(d, section)
    names = {f.name for f in fields(cls)}
    keyed = {_key(f.name): f for f in fields(cls) if f.name not in _FIXED}
    required = [k for k, f in keyed.items() if f.default is MISSING and k not in _DEFAULTS]
    _checked(d, section, keyed, required)
    values = {name: v for name, v in (_FIXED | _DEFAULTS).items() if name in names}
    for key, f in keyed.items():
        if key in d:
            value = _value(f.type, d, key, section)
            values[f.name] = value * DEG if f.name in _DEGREES else value
    return cls(**values)


def _write(value):
    """The file form of a value, the inverse of _read: a section for a
    dataclass, a list for a tuple, anything else as it is."""
    if isinstance(value, SensorAction):
        return _action_to_dict(value)
    if isinstance(value, tuple):
        return [_write(v) for v in value]
    if not is_dataclass(value):
        return value
    section = {}
    for f in fields(value):
        v = getattr(value, f.name)
        if f.name not in _FIXED:
            section[_key(f.name)] = _write(v / DEG if f.name in _DEGREES else v)
    return section


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return _write(cfg)


def scenario_from_dict(d: dict) -> ScenarioConfig:
    return _read(ScenarioConfig, d, "top level")


def save_scenario(cfg: ScenarioConfig, path) -> None:
    import yaml  # the file forms alone read PyYAML, so building a scenario never imports it

    with open(path, "w") as fh:
        yaml.safe_dump(scenario_to_dict(cfg), fh, sort_keys=False)


def load_scenario(path) -> ScenarioConfig:
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            """safe_load's mapping, but a key written twice is an error; one may override a << merge."""
            keys = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
            for i, key in enumerate(map(self.construct_object, keys)):
                if key in map(self.construct_object, keys[:i]):
                    line = keys[i].start_mark.line + 1
                    raise yaml.YAMLError(f"key {key!r} repeated on line {line}")
            return super().construct_mapping(node, deep)

    with open(path) as fh:
        try:
            document = yaml.load(fh, Loader=UniqueKeyLoader)
        except yaml.YAMLError as exc:  # its message spans lines; a ValueError's is one
            raise ValueError(f"scenario file {str(path)!r} is not valid YAML: "
                             f"{' '.join(str(exc).split())}") from exc
    return scenario_from_dict(document)

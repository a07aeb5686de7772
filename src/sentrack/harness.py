"""Per-timestep simulation pipeline, Monte Carlo orchestration, and export.

Each step runs, per sensor node: prediction of its own posterior from the
previous step, action selection under the chosen control method, action
execution, detection simulation, measurement update, cross-sensor label
association, posterior flooding, update-mode fusion, and estimate
extraction with OSPA scoring.

A step keeps each sensor's particle arrays only until the last stage that
reads them, so a run's peak memory is that of one step:
  * the previous posteriors go once predict has read them (a predicted
    density shares its prior's weights, not its states);
  * the PseudoCache, with every pseudo-posterior's association arrays,
    goes once the commands and the post-action poses are read from it;
  * each predicted density goes right after its own update, leaving a
    PredictedMeans of its labels and mean positions, all that the
    estimate reads of it;
  * the posteriors stay until the next step's predict.

Everything stochastic draws from one per-run generator in a fixed order
(plus per-(step, node) derived streams for the restart initializations of
the neighborhood-descent baseline), so a run is fully determined by its
seed.
"""

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .control import (
    ControlContext,
    PseudoCache,
    dcd_sc_select,
    isc_select,
    run_flooded_descent,
)
from .filtering import predict, update
from .fusion import associate_labels, compute_active_set, fuse_lmb
from .lmb import eap_states, empty_density, label_index, prune, resample_component
from .metrics import ospa, ospa2
from .network import CommLog, build_topology
from .scenarios import MonteCarloConfig, ScenarioConfig
from .sensors import detection_probabilities

METHODS = ("fixed", "isc", "dcd", "fdcd")


@dataclass
class StepRecord:
    step: int
    card_truth: int
    card_est: float  # mean over nodes
    ospa: float
    ospa2: float
    bytes: int
    control_iterations: int
    commands: tuple
    per_sensor_card: list


@dataclass
class RunResult:
    method: str
    run_index: int
    seed: int
    steps: list
    mean_ospa: float
    mean_ospa2: float
    control_seconds_per_sensor: float
    comm_entries: list


@dataclass
class MonteCarloResult:
    method: str
    runs: list

    @property
    def mean_ospa(self) -> float:
        return float(np.mean([r.mean_ospa for r in self.runs]))

    @property
    def mean_ospa2(self) -> float:
        return float(np.mean([r.mean_ospa2 for r in self.runs]))

    @property
    def mean_control_seconds(self) -> float:
        return float(np.mean([r.control_seconds_per_sensor for r in self.runs]))


def _simulate_measurements(scenario, sensor_states, positions, rng):
    """Detections of the truth positions (sigmoid-gated, Gaussian
    displacement noise) plus clutter."""
    per_sensor = []
    for s, state in enumerate(sensor_states):
        fov = scenario.sensors[s].fov
        sigma = scenario.filter.meas_noise_std
        pd = detection_probabilities(fov, state, positions)
        measurements = []
        for pos, p in zip(positions, pd):
            if rng.random() < p:
                z = np.array(pos) - state.position + rng.normal(0.0, sigma, 2)
                measurements.append(z)
        for _ in range(rng.poisson(scenario.clutter_mean)):
            r = fov.rho_max * math.sqrt(rng.random())
            ang = state.bearing + rng.uniform(-fov.theta_max, fov.theta_max)
            measurements.append(np.array([r * math.sin(ang), r * math.cos(ang)]))
        per_sensor.append(measurements)
    return per_sensor


def _select_commands(method, scenario, cache, topology, step, seed, dcd_runs, comm_log):
    """Dispatch one control step; returns (commands, descent iterations)."""
    n = len(scenario.sensors)
    if method == "fixed":
        return [0] * n, 0

    if method == "isc":
        return [isc_select(s, cache, [t for t in range(n) if t != s])[0] for s in range(n)], 0

    if method == "dcd":
        commands = [
            dcd_sc_select(
                s,
                topology.adjacency[s],
                cache,
                runs=dcd_runs,
                rng=np.random.default_rng([seed, step, s]),
            )
            for s in range(n)
        ]
        return commands, 0

    if method == "fdcd":
        commands = [0] * n
        iterations = 0
        for component in topology.components:
            participants = tuple(sorted(component))
            ctx = ControlContext(cache, participants)
            initial = {s: isc_select(s, cache)[0] for s in participants}
            outcome = run_flooded_descent(participants, ctx.n_actions(), ctx.evaluate, initial)
            # each turn floods one pseudo-posterior, which keeps every predicted row;
            # the initial round comes first and the final command flood-out last
            for s in participants + outcome.turns:
                comm_log.record(topology, step, s, len(cache.predicted[s].labels))
            comm_log.record(topology, step, outcome.turns[-1], 0)
            for s, a in zip(participants, outcome.command):
                commands[s] = a
            iterations = max(iterations, outcome.iterations)
        return commands, iterations

    raise ValueError(f"unknown control method {method!r}")


class PredictedMeans(NamedTuple):
    """What the estimate reads of a predicted density once its update is
    done: its labels and (K, 2) mean positions, without its particles."""

    labels: tuple
    means: np.ndarray


def _fuse_and_estimate(scenario, members, posteriors, predicted, sensor_states):
    """Update-mode fusion and estimate extraction for one network component;
    predicted maps each sensor to the PredictedMeans of its prediction."""
    active = {}
    for s in members:
        labels, (pred_rows, post_rows) = label_index((predicted[s], posteriors[s]))
        # a label the sensor did not predict keeps a NaN row: no estimate
        means = np.full((len(labels), 2), np.nan)
        means[pred_rows] = predicted[s].means
        fov, updated = scenario.sensors[s].fov, posteriors[s].mean_positions()
        active[s] = compute_active_set(sensor_states[s], fov, means[post_rows], updated.__getitem__)
    locals_ = {s: posteriors[s] for s in members}
    return eap_states(fuse_lmb(locals_, active, scenario.fusion.estimate_floor))


def _split_histories(histories: list, components) -> list:
    """Split each (members, history) group by this step's components.

    The members of a group that fall into one component stay together.
    When a group spans several components, the first part keeps its history
    and each other part takes a copy, inner dicts included, so a later
    append to one part's history leaves the others unchanged.
    """
    component_of = {s: c for c, component in enumerate(components) for s in component}
    out = []
    for members, history in histories:
        parts = {}
        for s in members:
            parts.setdefault(component_of[s], []).append(s)
        for k, part in enumerate(parts.values()):
            copy = history if k == 0 else {label: dict(track) for label, track in history.items()}
            out.append((part, copy))
    return out


def run_single(
    scenario: ScenarioConfig,
    method: str,
    seed: int,
    run_index: int = 0,
    dcd_runs: int = 1,
    duration: int | None = None,
) -> RunResult:
    """One seeded run of the full pipeline under a control method.

    duration (default: the scenario's) is the number of steps, at least 1.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if dcd_runs < 1:
        raise ValueError("dcd_runs must be >= 1")
    if duration is None:
        duration = scenario.duration
    if duration < 1:
        raise ValueError("duration must be >= 1")
    rng = np.random.default_rng(seed)
    n = len(scenario.sensors)
    sensor_states = [spec.initial_state() for spec in scenario.sensors]
    fovs = {s: scenario.sensors[s].fov for s in range(n)}
    action_sets = {s: list(scenario.sensors[s].actions) for s in range(n)}
    filter_cfgs = {s: scenario.filter_for(s) for s in range(n)}
    posteriors = {s: empty_density(0, "posterior") for s in range(n)}
    truth_tracks = scenario.truth_tracks(duration)
    # (members, estimate history) of each group of sensors that have shared
    # a component at every step so far: their histories are one and the same
    histories = [(list(range(n)), {})]
    comm_log = CommLog()
    control_seconds = 0.0
    records = []
    # rebuilt after each move: step k's control reads the one built after step k-1's
    topology = build_topology({s: (st.x, st.y) for s, st in enumerate(sensor_states)},
                              scenario.comm_range)

    for step in range(1, duration + 1):
        truth = scenario.truth_states(step)
        truth_positions = [truth[i] for i in sorted(truth)]

        predicted = {
            s: predict(posteriors[s], scenario.motion, rng) for s in range(n)
        }
        del posteriors  # predict has read them: their particles go now

        t0 = time.perf_counter()
        cache = PseudoCache(
            predicted,
            {s: sensor_states[s] for s in range(n)},
            fovs,
            action_sets,
            filter_cfgs,
            scenario.objective,
        )
        commands, iterations = _select_commands(
            method, scenario, cache, topology, step, seed, dcd_runs, comm_log
        )
        control_seconds += time.perf_counter() - t0

        sensor_states = [cache.after[s][commands[s]] for s in range(n)]
        del cache  # the pseudo-posteriors and their association arrays
        topology = build_topology({s: (st.x, st.y) for s, st in enumerate(sensor_states)},
                                  scenario.comm_range)

        measurements = _simulate_measurements(scenario, sensor_states, truth_positions, rng)

        # each density lives in its dict slot, so a stage's input goes as
        # soon as the next stage returns
        posteriors = {}
        for s in range(n):
            cfg = filter_cfgs[s]
            posteriors[s] = update(
                predicted[s], measurements[s], sensor_states[s], fovs[s], cfg, rng, origin=s
            )
            # the estimate reads only the predicted labels and means
            predicted[s] = PredictedMeans(predicted[s].labels, predicted[s].mean_positions())
            # rows the update passed through keep their particles
            posteriors[s] = resample_component(posteriors[s], cfg.particle_count, rng)
            posteriors[s] = prune(posteriors[s], cfg.existence_floor, cfg.max_components)

        posteriors = associate_labels(
            posteriors, scenario.fusion.merge_distance, current_step=step
        )

        for s in range(n):
            comm_log.record(topology, step, s, len(posteriors[s].labels))

        ospa_sum = 0.0
        card_sum = 0.0
        estimates_of = {}
        for component in topology.components:
            members = sorted(component)
            estimates = _fuse_and_estimate(scenario, members, posteriors, predicted, sensor_states)
            est_positions = [state[:2] for _label, state in estimates]
            step_ospa = ospa(
                truth_positions,
                est_positions,
                scenario.metric.ospa_cutoff,
                scenario.metric.ospa_order,
            )
            for s in members:
                estimates_of[s] = estimates
                ospa_sum += step_ospa
                card_sum += len(estimates)

        # every member of a group appends the same estimates, so each
        # history is scored once, for all of its members
        histories = _split_histories(histories, topology.components)
        ospa2_of = {}
        for members, history in histories:
            for label, state in estimates_of[members[0]]:
                history.setdefault(label, {})[step] = tuple(state[:2])
            step_ospa2 = ospa2(
                truth_tracks,
                history,
                scenario.metric.ospa_cutoff,
                scenario.metric.ospa_order,
                min(scenario.metric.ospa2_window, step),
                step,
            )
            ospa2_of.update(dict.fromkeys(members, step_ospa2))

        ospa2_sum = 0.0
        for s in estimates_of:  # in the order the sums above add the sensors
            ospa2_sum += ospa2_of[s]

        records.append(
            StepRecord(
                step=step,
                card_truth=len(truth),
                card_est=card_sum / n,
                ospa=ospa_sum / n,
                ospa2=ospa2_sum / n,
                bytes=comm_log.bytes_in_step(step),
                control_iterations=iterations,
                commands=tuple(commands),
                per_sensor_card=[len(posteriors[s].labels) for s in range(n)],
            )
        )

    return RunResult(
        method=method,
        run_index=run_index,
        seed=seed,
        steps=records,
        mean_ospa=float(np.mean([r.ospa for r in records])),
        mean_ospa2=float(np.mean([r.ospa2 for r in records])),
        control_seconds_per_sensor=control_seconds / (n * duration),
        comm_entries=comm_log.entries,
    )


def monte_carlo(
    scenario: ScenarioConfig,
    method: str,
    runs: int,
    base_seed: int,
    dcd_runs: int = 1,
    duration: int | None = None,
) -> MonteCarloResult:
    """Independent seeded runs (seed = base_seed + i) with aggregate means."""
    MonteCarloConfig(runs, base_seed)  # rejects runs below 1 and a negative seed
    results = [
        run_single(scenario, method, base_seed + i, i, dcd_runs, duration)
        for i in range(runs)
    ]
    return MonteCarloResult(method=method, runs=results)


# ---------------------------------------------------------------------------
# CSV / JSON export
# ---------------------------------------------------------------------------


def export_results(results: list, out_dir) -> dict:
    """Write the run, timestep, cardinality-trace and comm-log CSVs.

    Each CSV is one (header, rows) table, floats by repr, and one csv.writer
    loop writes all four; the cardinality trace is the per-step mean
    estimated count over the runs.  Wall-clock timings go to a JSON sidecar
    so the CSVs stay byte-identical across repeated invocations.  Returns
    the mapping of logical name -> written path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "runs": out / "runs.csv",
        "timesteps": out / "timesteps.csv",
        "cardinality": out / "cardinality_trace.csv",
        "comm": out / "comm_log.csv",
        "timings": out / "timings.json",
    }
    runs = [r for mc in results for r in mc.runs]
    tables = {
        "runs": (
            "method,run,seed,mean_ospa,mean_ospa2",
            [(r.method, r.run_index, r.seed, repr(r.mean_ospa), repr(r.mean_ospa2)) for r in runs],
        ),
        "timesteps": (
            "method,run,step,card_truth,card_est,ospa,ospa2,bytes,control_iterations",
            [(r.method, r.run_index, rec.step, rec.card_truth, repr(rec.card_est), repr(rec.ospa),
              repr(rec.ospa2), rec.bytes, rec.control_iterations) for r in runs for rec in r.steps],
        ),
        "cardinality": (
            "method,step,card_truth,card_est_mean",
            [(mc.method, rec.step, rec.card_truth,
              repr(float(np.mean([r.steps[i].card_est for r in mc.runs]))))
             for mc in results for i, rec in enumerate(mc.runs[0].steps)],
        ),
        "comm": (
            "method,run,step,origin,sequence,bytes,rounds",
            [(r.method, r.run_index, e.step, e.origin, e.sequence, e.bytes, e.rounds)
             for r in runs for e in r.comm_entries],
        ),
    }
    for name, (header, rows) in tables.items():
        with open(paths[name], "w", newline="") as fh:
            csv.writer(fh).writerows([header.split(","), *rows])

    timings = {
        mc.method: {
            "control_seconds_per_sensor": [r.control_seconds_per_sensor for r in mc.runs],
            "mean_control_seconds_per_sensor": mc.mean_control_seconds,
        }
        for mc in results
    }
    with open(paths["timings"], "w") as fh:
        json.dump(timings, fh, indent=2)
        fh.write("\n")

    return paths

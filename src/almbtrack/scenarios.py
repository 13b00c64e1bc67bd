"""Scenario configuration, ground truth and measurement generation.

Scenarios are plain JSON documents with a fixed schema (unknown keys are
rejected).  The state convention is ``[px, vx, py, vy]`` with
nearly-constant-velocity motion: per axis the process noise enters
through the discrete noise gain ``[T**2/2, T]`` scaled so that
``velocity_noise_std`` is the per-step velocity noise standard
deviation.
"""

import json
import numbers
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from .errors import ConfigurationError, UsageError, check_numbers
from .gaussian import GaussianMixture, MotionModel, SensorModel
from .metrics import OspaParams
from .pipeline import PipelineConfig

BUILTIN_SCENARIOS = ("two-target", "sixteen-target")


@dataclass
class MotionConfig:
    velocity_noise_std: float = 2.23606797749979
    survival_prob: float = 0.99


@dataclass
class SensorConfig:
    position_noise_std: float = 10.0
    detection_prob: float = 0.98
    clutter_rate: float = 50.0


@dataclass
class BirthSite:
    existence: float
    mean: list
    std: list


@dataclass
class TruthScript:
    birth_step: int
    death_step: int
    state: list


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    seed: int = 0
    steps: int = 100
    cycle_time: float = 1.0
    region: list = field(default_factory=lambda: [[-1000.0, 1000.0],
                                                  [-1000.0, 1000.0]])
    motion: MotionConfig = field(default_factory=MotionConfig)
    sensor: SensorConfig = field(default_factory=SensorConfig)
    birth: list = field(default_factory=list)
    truth: list = field(default_factory=list)
    tracker: PipelineConfig = field(default_factory=PipelineConfig)
    ospa: OspaParams = field(default_factory=OspaParams)

    def to_dict(self):
        return asdict(self)


def _build(cls, data, where):
    if not isinstance(data, dict):
        raise ConfigurationError("%s must be an object" % where)
    fields = {f for f in cls.__dataclass_fields__}
    unknown = set(data) - fields
    if unknown:
        raise ConfigurationError(
            "unknown key(s) %s in %s" % (sorted(unknown), where))
    return cls(**data)


def scenario_from_dict(data):
    """Validate a scenario dict; unknown keys anywhere are an error."""
    blocks = {"motion": MotionConfig, "sensor": SensorConfig,
              "tracker": PipelineConfig, "ospa": OspaParams,
              "birth": BirthSite, "truth": TruthScript}
    config = _build(ScenarioConfig, data, "scenario")
    for key, value in data.items():
        if key in ("birth", "truth"):
            if not isinstance(value, list):
                raise ConfigurationError("%s must be a list" % key)
            value = [_build(blocks[key], item, "%s[%d]" % (key, i))
                     for i, item in enumerate(value)]
        elif key in blocks:
            value = _build(blocks[key], value, key)
        setattr(config, key, value)
    _validate(config)
    return config


def _finite(where, value, shape):
    # ``value`` as a float array of ``shape`` with finite real entries.
    arr = np.asarray(value, dtype=object)
    if arr.shape != shape:
        raise ConfigurationError("%s must have shape %s, got %r"
                                 % (where, shape, value))
    entries = {"[%d]" % i: v for i, v in enumerate(arr.flat)}
    check_numbers(where, entries, [(entries, "finite", np.isfinite)])
    return arr.astype(float)


def _validate(config):
    check_numbers("scenario", vars(config), [
        (("steps",), "an integer >= 1",
         lambda v: isinstance(v, numbers.Integral) and v >= 1),
        (("seed",), "an integer >= 0",
         lambda v: isinstance(v, numbers.Integral) and v >= 0),
        (("cycle_time",), "in (0, inf)", lambda v: 0.0 < v < np.inf)])
    region = _finite("region", config.region, (2, 2))
    if np.any(region[:, 0] >= region[:, 1]):
        raise ConfigurationError("region must be two nonempty intervals")
    if not 0.0 < region_area(config) < np.inf:
        raise ConfigurationError("region area must be in (0, inf), got %r"
                                 % region_area(config))
    for i, script in enumerate(config.truth):
        check_numbers("truth[%d]" % i, vars(script), [
            (("birth_step", "death_step"), "an integer",
             lambda v: isinstance(v, numbers.Integral))])
        _finite("truth[%d] state" % i, script.state, (4,))
        if not 1 <= script.birth_step <= script.death_step <= config.steps:
            raise ConfigurationError("truth lifetime outside scenario")
    for i, site in enumerate(config.birth):
        check_numbers("birth[%d]" % i, vars(site), [
            (("existence",), "in (0, 1)", lambda v: 0.0 < v < 1.0)])
        _finite("birth[%d] mean" % i, site.mean, (4,))
        std = _finite("birth[%d] std" % i, site.std, (4,))
        if np.any(std < 0.0):
            raise ConfigurationError("birth[%d] std must be >= 0, got %r"
                                     % (i, site.std))
    # The tracker and ospa blocks check themselves on construction.
    check_numbers("motion", vars(config.motion), [
        (("velocity_noise_std",), "in [0, inf)", lambda v: 0.0 <= v < np.inf),
        (("survival_prob",), "in [0, 1]", lambda v: 0.0 <= v <= 1.0)])
    check_numbers("sensor", vars(config.sensor), [
        (("position_noise_std",), "in (0, inf)", lambda v: 0.0 < v < np.inf),
        (("detection_prob",), "in [0, 1]", lambda v: 0.0 <= v <= 1.0),
        (("clutter_rate",), "in [0, inf)", lambda v: 0.0 <= v < np.inf)])


def load_scenario(path):
    """Read a scenario JSON file; a file that cannot be read, decoded as
    UTF-8 or parsed is a ``ConfigurationError``."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as err:
        raise ConfigurationError("invalid scenario JSON: %s" % err) from None
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigurationError("cannot read scenario %s: %s"
                                 % (path, err)) from None
    return scenario_from_dict(data)


def builtin_scenario(name):
    """Load one of the shipped scenarios by name."""
    if name not in BUILTIN_SCENARIOS:
        raise UsageError("unknown builtin scenario %r (known: %s)"
                         % (name, ", ".join(BUILTIN_SCENARIOS)))
    ref = resources.files("almbtrack.data") / (name.replace("-", "_") + ".json")
    return scenario_from_dict(json.loads(ref.read_text()))


def transition_matrix(cycle_time):
    T = float(cycle_time)
    F1 = np.array([[1.0, T], [0.0, 1.0]])
    return np.kron(np.eye(2), F1)


def make_motion(config):
    T = float(config.cycle_time)
    sv = float(config.motion.velocity_noise_std)
    # White-noise-acceleration gain [T**2/2, T], scaled so the per-step
    # velocity noise standard deviation equals sv.
    Q1 = sv ** 2 * np.array([[T * T / 4.0, T / 2.0], [T / 2.0, 1.0]])
    Q = np.kron(np.eye(2), Q1)
    return MotionModel(transition_matrix(T), Q, config.motion.survival_prob)


def region_area(config):
    (x0, x1), (y0, y1) = np.asarray(config.region, dtype=float).tolist()
    return (x1 - x0) * (y1 - y0)


def make_sensor(config):
    H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    R = config.sensor.position_noise_std ** 2 * np.eye(2)
    clutter_density = config.sensor.clutter_rate / region_area(config)
    return SensorModel(H, R, config.sensor.detection_prob, clutter_density)


def make_birth_model(config):
    """One ``(existence, mixture)`` pair per birth site, in scenario
    order."""
    births = []
    for site in config.birth:
        cov = np.diag(np.asarray(site.std, dtype=float) ** 2)
        births.append((site.existence,
                       GaussianMixture([1.0], [site.mean], [cov])))
    return births


def make_pipeline_config(config):
    return config.tracker


def make_ospa_params(config):
    return config.ospa


@dataclass(eq=False)
class TruthTrack:
    """Noise-free track: states for scans ``birth_step..death_step``."""

    track_id: int
    birth_step: int
    death_step: int
    states: np.ndarray

    def alive(self, k):
        return self.birth_step <= k <= self.death_step

    def state(self, k):
        return self.states[k - self.birth_step]


def generate_truth(config):
    """Propagate every truth script through the noise-free motion model."""
    F = transition_matrix(config.cycle_time)
    tracks = []
    for tid, script in enumerate(config.truth):
        x = np.asarray(script.state, dtype=float)
        states = [x]
        for _ in range(script.birth_step, script.death_step):
            states.append(F @ states[-1])
        tracks.append(TruthTrack(tid, script.birth_step, script.death_step,
                                 np.asarray(states)))
    return tracks


def truth_positions(tracks, k):
    """Labeled truth positions at scan ``k``."""
    return [(t.track_id, t.state(k)[[0, 2]]) for t in tracks if t.alive(k)]


def truth_cardinality(tracks, steps):
    return np.array([sum(1 for t in tracks if t.alive(k))
                     for k in range(1, steps + 1)])


def generate_measurements(tracks, config, rng):
    """Draw one scan-by-scan measurement sequence.

    Detections are Bernoulli per alive track with Gaussian position
    noise; clutter is Poisson over the region.  Each scan's measurements
    are randomly permuted so detection order carries no information.
    """
    sensor = make_sensor(config)
    region = np.asarray(config.region, dtype=float)
    noise = config.sensor.position_noise_std
    out = []
    for k in range(1, config.steps + 1):
        scan = []
        for track in tracks:
            if track.alive(k) and rng.random() < config.sensor.detection_prob:
                z = sensor.H @ track.state(k) + noise * rng.standard_normal(2)
                scan.append(z)
        n_clutter = rng.poisson(config.sensor.clutter_rate)
        for _ in range(n_clutter):
            scan.append(region[:, 0] + (region[:, 1] - region[:, 0]) *
                        rng.random(2))
        if scan:
            order = rng.permutation(len(scan))
            scan = [scan[i] for i in order]
        out.append(scan)
    return out

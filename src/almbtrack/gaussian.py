"""Gaussian-mixture machinery for linear-Gaussian single-object models.

All multi-object filters in this package represent each track's spatial
density as a weighted Gaussian mixture and share the Kalman prediction,
Kalman update, likelihood evaluation and mixture-reduction routines
defined here.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError, UsageError

_LOG_2PI = float(np.log(2.0 * np.pi))

# Serial numbers let callers group mixtures that share provenance without
# relying on object ids, which the allocator may reuse.
_UID = itertools.count()


def _symmetrize(P):
    return 0.5 * (P + P.T)


@dataclass(eq=False)
class GaussianComponent:
    """One weighted Gaussian: nonnegative weight, mean vector, covariance.

    The covariance is symmetrized on construction; positive definiteness
    is only enforced where a factorization is actually taken.
    """

    weight: float
    mean: np.ndarray
    covariance: np.ndarray
    _innovation_terms: list = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.weight = float(self.weight)
        self.mean = np.asarray(self.mean, dtype=float).reshape(-1)
        self.covariance = _symmetrize(np.asarray(self.covariance, dtype=float))
        if self.weight < 0.0:
            raise ConfigurationError("component weight must be nonnegative")
        n = self.mean.size
        if self.covariance.shape != (n, n):
            raise ConfigurationError(
                "covariance shape %s does not match mean dimension %d"
                % (self.covariance.shape, n)
            )

    def reweighted(self, weight):
        """The same Gaussian under a new weight, sharing its arrays."""
        if weight < 0.0:
            raise ConfigurationError("component weight must be nonnegative")
        out = object.__new__(GaussianComponent)
        out.__dict__.update(self.__dict__, weight=float(weight))
        return out


@dataclass(eq=False)
class GaussianMixture:
    """Finite Gaussian mixture over a single state space.

    Components all share one state dimension.  Weights are kept as given;
    most operations normalize explicitly where their contract says so.
    """

    components: list
    uid: int = field(default=None, repr=False)

    def __post_init__(self):
        if not self.components:
            raise UsageError("mixture must contain at least one component")
        dim = self.components[0].mean.size
        for c in self.components:
            if c.mean.size != dim:
                raise ConfigurationError("mixed state dimensions in one mixture")
        if self.uid is None:
            self.uid = next(_UID)

    @property
    def dim(self):
        return self.components[0].mean.size

    def weights(self):
        return np.array([c.weight for c in self.components])

    def total_weight(self):
        return float(sum(c.weight for c in self.components))

    def normalized(self):
        tot = self.total_weight()
        if tot <= 0.0:
            raise NumericalError("mixture weight sum is not positive",
                                 {"total": tot})
        return GaussianMixture(
            [c.reweighted(c.weight / tot) for c in self.components])

    def scaled(self, factor):
        return GaussianMixture(
            [c.reweighted(c.weight * factor) for c in self.components])


@dataclass(eq=False)
class MotionModel:
    """Linear motion model x' = F x + w, w ~ N(0, Q), with survival
    probability used by the multi-object predictors."""

    F: np.ndarray
    Q: np.ndarray
    survival_prob: float

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=float)
        self.Q = _symmetrize(np.asarray(self.Q, dtype=float))
        self.survival_prob = float(self.survival_prob)
        n = self.F.shape[0]
        if self.F.shape != (n, n) or self.Q.shape != (n, n):
            raise ConfigurationError("F and Q must be square and same size")
        if not 0.0 <= self.survival_prob <= 1.0:
            raise ConfigurationError("survival probability outside [0, 1]")


@dataclass(eq=False)
class SensorModel:
    """Linear measurement model z = H x + v, v ~ N(0, R), plus the
    detection and clutter description used by the update steps.

    ``clutter_density`` is the clutter spatial density evaluated at a
    measurement, i.e. lambda_c times the (uniform) clutter pdf.
    """

    H: np.ndarray
    R: np.ndarray
    detection_prob: float
    clutter_density: float

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        self.R = _symmetrize(np.asarray(self.R, dtype=float))
        self.detection_prob = float(self.detection_prob)
        self.clutter_density = float(self.clutter_density)
        if self.H.ndim != 2:
            raise ConfigurationError("H must be a matrix")
        m = self.H.shape[0]
        if self.R.shape != (m, m):
            raise ConfigurationError("R shape does not match H rows")
        if not 0.0 <= self.detection_prob <= 1.0:
            raise ConfigurationError("detection probability outside [0, 1]")
        if self.clutter_density < 0.0:
            raise ConfigurationError("clutter density must be nonnegative")

    @property
    def meas_dim(self):
        return self.H.shape[0]

    def log_clutter(self):
        # Floor keeps log-domain association weights finite when the
        # scenario declares a clutter-free sensor.
        return float(np.log(max(self.clutter_density, 1e-300)))


def gm_predict(gm, model):
    """Kalman-predict every component through the motion model.

    Weights are unchanged; each component maps to
    ``N(F m, F P F' + Q)``.
    """
    if model.F.shape[1] != gm.dim:
        raise ConfigurationError("motion model dimension does not match mixture")
    out = []
    for c in gm.components:
        mean = model.F @ c.mean
        cov = model.F @ c.covariance @ model.F.T + model.Q
        out.append(GaussianComponent(c.weight, mean, cov))
    return GaussianMixture(out)


def _innovation(c, sensor, factor=False):
    # [sensor, z_pred, S, chol(S) if factor] of one component, kept with
    # it (its arrays are never modified in place) for the next caller.
    terms = c._innovation_terms
    if terms is None or terms[0] is not sensor:
        S = _symmetrize(sensor.H @ c.covariance @ sensor.H.T + sensor.R)
        terms = c._innovation_terms = [sensor, sensor.H @ c.mean, S, None]
    if factor and terms[3] is None:
        try:
            terms[3] = np.linalg.cholesky(terms[2])
        except np.linalg.LinAlgError:
            raise NumericalError(
                "singular or indefinite innovation covariance",
                {"matrix": terms[2], "what": "innovation covariance"},
            ) from None
    return terms


def gm_kalman_update_log(gm, z, sensor):
    """Kalman-update a normalized mixture against one measurement.

    Returns ``(posterior, log_likelihood)`` where the posterior is the
    normalized updated mixture and the log likelihood is
    ``log sum_i w_i N(z; H m_i, H P_i H' + R)``.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    if sensor.H.shape[1] != gm.dim:
        raise ConfigurationError("sensor model dimension does not match mixture")
    if z.size != sensor.meas_dim:
        raise ConfigurationError("measurement dimension does not match H")
    log_w = np.empty(len(gm.components))
    updated = []
    for i, c in enumerate(gm.components):
        _, z_pred, S, L = _innovation(c, sensor, factor=True)
        K = np.linalg.solve(S, sensor.H @ c.covariance).T
        mean = c.mean + K @ (z - z_pred)
        cov = (np.eye(gm.dim) - K @ sensor.H) @ c.covariance
        # log N(z; z_pred, S) via the Cholesky factor L of S.
        y = np.linalg.solve(L, z - z_pred)
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        log_w[i] = np.log(max(c.weight, 1e-300)) + -0.5 * (
            z.size * _LOG_2PI + logdet + float(y @ y))
        updated.append((mean, cov))
    top = float(np.max(log_w))
    log_lik = top + float(np.log(np.sum(np.exp(log_w - top))))
    w = np.exp(log_w - log_lik)
    post = GaussianMixture(
        [GaussianComponent(w[i], m, P) for i, (m, P) in enumerate(updated)])
    return post, log_lik


def _merge_components(parts):
    w = sum(c.weight for c in parts)
    mean = sum(c.weight * c.mean for c in parts) / w
    P = np.zeros_like(parts[0].covariance)
    for c in parts:
        d = c.mean - mean
        P += c.weight * (c.covariance + np.outer(d, d))
    return GaussianComponent(w, mean, P / w)


def gm_reduce(gm, prune_threshold=1e-5, merge_threshold=4.0, max_components=20):
    """Prune, merge and cap a mixture, then renormalize.

    Components below ``prune_threshold`` (on the normalized weights) are
    dropped; surviving components within squared Mahalanobis distance
    ``merge_threshold`` of the current heaviest component are moment-matched
    into one; at most ``max_components`` heaviest results are kept.  If
    pruning removes everything the single heaviest original component is
    returned with weight one.  Merging preserves the mixture mean exactly.
    """
    norm = gm.normalized()
    keep = [c for c in norm.components if c.weight >= prune_threshold]
    if not keep:
        best = max(norm.components, key=lambda c: c.weight)
        return GaussianMixture([best.reweighted(1.0)])
    merged = []
    pool = list(keep)
    while pool:
        i_best = int(np.argmax([c.weight for c in pool]))
        head = pool[i_best]
        P_inv = np.linalg.inv(head.covariance)
        group, rest = [], []
        for c in pool:
            d = c.mean - head.mean
            if float(d @ P_inv @ d) <= merge_threshold:
                group.append(c)
            else:
                rest.append(c)
        merged.append(_merge_components(group))
        pool = rest
    merged.sort(key=lambda c: -c.weight)
    if max_components is not None and np.isfinite(max_components):
        merged = merged[: int(max_components)]
    return GaussianMixture(merged).normalized()


def mahalanobis_sq(z, gm, sensor):
    """Squared Mahalanobis distance of ``z`` from the mixture: the
    minimum over components of the distance to the component's predicted
    measurement under its innovation covariance.  A measurement passes a
    gate when any component covers it; gating on a single representative
    component starves the low-weight alternatives that exist precisely
    to recover from association mistakes."""
    z = np.asarray(z, dtype=float).reshape(-1)
    best = np.inf
    for c in gm.components:
        _, z_pred, _, L = _innovation(c, sensor, factor=True)
        y = np.linalg.solve(L, z - z_pred)
        best = min(best, float(y @ y))
    return best


def gate_mask(measurements, gm, sensor, gate_sq):
    """Boolean mask of the measurements inside the mixture's gate
    (within ``gate_sq`` of any component)."""
    if not len(measurements):
        return np.zeros(0, dtype=bool)
    Z = np.asarray(measurements, dtype=float)
    mask = np.zeros(len(Z), dtype=bool)
    for c in gm.components:
        rest = ~mask
        if not rest.any():
            break
        _, z_pred, _, L = _innovation(c, sensor, factor=True)
        y = np.linalg.solve(L, (Z[rest] - z_pred).T)
        mask[rest] = np.einsum("ij,ij->j", y, y) < gate_sq
    return mask


def predicted_measurement(gm, sensor):
    """Predicted measurement and innovation covariance of the
    highest-weight component (lowest index on ties)."""
    idx = int(np.argmax(gm.weights()))
    return tuple(_innovation(gm.components[idx], sensor)[1:3])


def map_point(gm):
    """Mean of the highest-weight component (lowest index on ties)."""
    idx = int(np.argmax(gm.weights()))
    return np.array(gm.components[idx].mean)

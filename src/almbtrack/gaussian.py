"""Gaussian-mixture machinery for linear-Gaussian single-object models.

All multi-object filters in this package represent each track's spatial
density as a weighted Gaussian mixture and share the Kalman prediction,
Kalman update, likelihood evaluation and mixture-reduction routines
defined here.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError, UsageError

_LOG_2PI = float(np.log(2.0 * np.pi))


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
    _innovation_terms: dict = field(default=None, init=False, repr=False)

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
        self._innovation_terms = {}

    def reweighted(self, weight):
        """The same Gaussian under a new weight, sharing its arrays."""
        if weight < 0.0:
            raise ConfigurationError("component weight must be nonnegative")
        return _component(float(weight), self.mean, self.covariance,
                          self._innovation_terms)


def _component(weight, mean, covariance, terms=None):
    # A component from a float weight and valid arrays, unchecked.
    out = object.__new__(GaussianComponent)
    out.__dict__.update(weight=weight, mean=mean, covariance=covariance,
                        _innovation_terms={} if terms is None else terms)
    return out


@dataclass(eq=False)
class GaussianMixture:
    """Finite Gaussian mixture over a single state space.

    Components all share one state dimension.  Weights are kept as given;
    most operations normalize explicitly where their contract says so.
    """

    components: list

    def __post_init__(self):
        if not self.components:
            raise UsageError("mixture must contain at least one component")
        dim = self.components[0].mean.size
        if any(c.mean.size != dim for c in self.components):
            raise ConfigurationError("mixed state dimensions in one mixture")

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


def _lacks(t, sensor, table=None, factor=True):
    return (t.get("sensor") is not sensor or "S" not in t
            or (factor and "L" not in t)
            or (table is not None and t.get("table") != table))


def innovation_terms(components, sensor, Z=None, factor=True):
    """Fill the innovation terms each component lacks for ``sensor``.

    The terms live in the dict ``_innovation_terms``, which reweighted
    copies share: ``z_pred = H m`` and ``S = H P H' + R``; with
    ``factor`` the Cholesky factor ``L`` (None if ``S`` has none, and
    readers raise), the gain ``K``, ``cov = (I - K H) P`` (symmetrized)
    and ``logdet`` of ``S``; given ``Z``, ``d2[j] = |L^-1 (Z[j] -
    z_pred)|^2``, keyed by the bytes of ``Z`` (``table``) and of its rows
    (``rows``).  Each term comes from one stacked call whose slices run
    the routine of a single component: the same bits in any company.
    """
    table = None
    if Z is not None and len(Z):
        Z = np.asarray(Z, dtype=float).reshape(len(Z), -1)
        table = Z.tobytes()
    todo = {}
    for c in components:
        t = c._innovation_terms
        if t.get("sensor") is not sensor:
            t.clear()
            t["sensor"] = sensor
        todo[id(t)] = (t, c)
    H = sensor.H
    new = [(t, c) for t, c in todo.values() if _lacks(t, sensor, factor=factor)]
    if new:
        P = np.array([c.covariance for _, c in new])
        z_pred = np.matmul(H, np.array([c.mean for _, c in new])[..., None])
        S = np.matmul(np.matmul(H, P), H.T) + sensor.R
        S = 0.5 * (S + S.swapaxes(-1, -2))
        _store(new, z_pred=z_pred[..., 0], S=S)
        if factor:
            _store(new, L=_cholesky(S))
            ok = [i for i, (t, _) in enumerate(new) if t["L"] is not None]
            new, P, S = [new[i] for i in ok], P[ok], S[ok]
    if new and factor:
        K = np.linalg.solve(S, np.matmul(H, P)).swapaxes(-1, -2)
        cov = np.matmul(np.eye(P.shape[-1]) - np.matmul(K, H), P)
        L = np.array([t["L"] for t, _ in new])
        _store(new, K=K, cov=0.5 * (cov + cov.swapaxes(-1, -2)),
               logdet=2.0 * np.sum(np.log(np.diagonal(L, 0, -2, -1)), -1))
    new = [(t, c) for t, c in todo.values() if table is not None
           and t.get("L") is not None and t.get("table") != table]
    if new:
        # One right-hand side per slice: that is the bits of a solve per
        # measurement, which a solve with many columns need not be.
        L = np.array([t["L"] for t, _ in new])[:, None]
        r = Z - np.array([t["z_pred"] for t, _ in new])[:, None]
        y = np.linalg.solve(L, r[..., None])
        rows = {z.tobytes(): j for j, z in enumerate(Z)}
        _store(new, d2=np.matmul(y.swapaxes(-1, -2), y)[..., 0, 0],
               table=[table] * len(new), rows=[rows] * len(new))


def _store(pairs, **terms):
    for i, (t, _) in enumerate(pairs):
        t.update((name, values[i]) for name, values in terms.items())


def _cholesky(S):
    # Cholesky factors of a stack of matrices, None for those without.
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return [_cholesky(Si) for Si in S] if S.ndim > 2 else None


def _read(c, sensor, Z=None, table=None):
    # One component's terms, filled on demand, with S factored.
    t = c._innovation_terms
    if _lacks(t, sensor, table):
        innovation_terms([c], sensor, Z)
    if t["L"] is None:
        raise NumericalError(
            "singular or indefinite innovation covariance",
            {"matrix": t["S"], "what": "innovation covariance"})
    return t


def _row(c, sensor, z, key):
    # (terms, j) with d2[j] the squared whitened residual of the
    # measurement z, whose bytes are ``key``.
    t = c._innovation_terms
    if t.get("sensor") is not sensor or key not in t.get("rows", ()):
        return _read(c, sensor, [z], key), 0
    return _read(c, sensor), t["rows"][key]


def gm_kalman_update_log(gm, z, sensor):
    """Kalman-update a normalized mixture against one measurement.

    Returns ``(posterior, log_likelihood)`` where the posterior is the
    normalized updated mixture and the log likelihood is
    ``log sum_i w_i N(z; H m_i, H P_i H' + R)``.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    key = z.tobytes()
    if sensor.H.shape[1] != gm.dim:
        raise ConfigurationError("sensor model dimension does not match mixture")
    if z.size != sensor.meas_dim:
        raise ConfigurationError("measurement dimension does not match H")
    log_w = np.empty(len(gm.components))
    updated = []
    for i, c in enumerate(gm.components):
        t, j = _row(c, sensor, z, key)
        mean = c.mean + t["K"] @ (z - t["z_pred"])
        # log N(z; z_pred, S) via the Cholesky factor L of S.
        log_w[i] = np.log(max(c.weight, 1e-300)) + -0.5 * (
            z.size * _LOG_2PI + t["logdet"] + float(t["d2"][j]))
        updated.append((mean, t["cov"]))
    top = float(np.max(log_w))
    log_lik = top + float(np.log(np.sum(np.exp(log_w - top))))
    w = np.exp(log_w - log_lik)
    post = GaussianMixture([_component(float(w[i]), m, P)
                            for i, (m, P) in enumerate(updated)])
    return post, log_lik


def _merge_components(parts):
    w = sum(c.weight for c in parts)
    mean = sum(c.weight * c.mean for c in parts) / w
    P = np.zeros_like(parts[0].covariance)
    for c in parts:
        d = c.mean - mean
        P += c.weight * (c.covariance + np.outer(d, d))
    return GaussianComponent(w, mean, P / w)


def gm_reduce(gm, prune_threshold, merge_threshold, max_components):
    """Prune, merge and cap a mixture, then renormalize.

    Components below ``prune_threshold`` (on the normalized weights) are
    dropped; surviving components within squared Mahalanobis distance
    ``merge_threshold`` of the current heaviest component are moment-matched
    into one; at most ``max_components`` heaviest results are kept.  If
    pruning removes everything the single heaviest original component is
    returned with weight one.  Merging preserves the mixture mean exactly.
    A one-component mixture merges with itself: it is only normalized.
    """
    if len(gm.components) == 1:
        return gm.normalized()
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
        try:
            P_inv = np.linalg.inv(head.covariance)
        except np.linalg.LinAlgError:
            raise NumericalError(
                "singular component covariance",
                {"matrix": head.covariance,
                 "what": "component covariance"}) from None
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
    key = z.tobytes()
    best = np.inf
    for c in gm.components:
        t, j = _row(c, sensor, z, key)
        best = min(best, float(t["d2"][j]))
    return best


def gate_mask(measurements, gm, sensor, gate_sq):
    """Boolean mask of the measurements inside the mixture's gate
    (within ``gate_sq`` of any component)."""
    if not len(measurements):
        return np.zeros(0, dtype=bool)
    Z = np.asarray(measurements, dtype=float).reshape(len(measurements), -1)
    table = Z.tobytes()
    mask = np.zeros(len(Z), dtype=bool)
    for c in gm.components:
        if mask.all():
            break
        mask |= _read(c, sensor, Z, table)["d2"] < gate_sq
    return mask


def predicted_measurement(gm, sensor):
    """Predicted measurement and innovation covariance of the
    highest-weight component (lowest index on ties)."""
    c = gm.components[int(np.argmax(gm.weights()))]
    innovation_terms([c], sensor, factor=False)
    return c._innovation_terms["z_pred"], c._innovation_terms["S"]


def map_point(gm):
    """Mean of the highest-weight component (lowest index on ties)."""
    idx = int(np.argmax(gm.weights()))
    return np.array(gm.components[idx].mean)

"""Gaussian-mixture machinery for linear-Gaussian single-object models.

All multi-object filters in this package represent each track's spatial
density as a weighted Gaussian mixture and share the Kalman prediction,
Kalman update, likelihood evaluation, mixture-averaging and
mixture-reduction routines defined here.

``gm_predict``, ``predicted_measurement``, ``gate_mask`` and
``innovation_terms`` take a list of mixtures and make one stacked pass
over its components; the Kalman update is one routine,
``kalman_updates``, over a whole mixture table, and
``gm_kalman_update_log`` is its view of one (mixture, measurement) pair.
Each slice runs the routine of a single component, so a mixture gets
the same bits in any company.
A covariance is symmetrized once, where it is formed: on input, in the
prediction ``F P F' + Q`` and in the innovation terms.  Mixtures built
from covariances that are stored or symmetrized already skip the public
constructor's checks and its symmetrize.  Only this module reads or
writes a mixture's innovation terms: ``innovation_terms`` fills them for
one measurement table, the gate and the Kalman update read them whole,
by position in that table, and ``mixture_average`` carries its parts'
terms over to their average.  A call for another table fills them anew.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, NumericalError, UsageError,
                     check_numbers)

_LOG_2PI = float(np.log(2.0 * np.pi))


def _symmetrize(P):
    # The symmetric part of a matrix, or of each in a stack.
    S = P + P.swapaxes(-1, -2)
    S *= 0.5
    return S


class GaussianMixture:
    """Finite Gaussian mixture over one state space, in three arrays:

    - ``w``: the (n,) nonnegative component weights, kept as given (most
      operations normalize explicitly where their contract says so);
    - ``m``: the (n, d) component means;
    - ``P``: the (n, d, d) component covariances, symmetrized on
      construction (positive definiteness is only enforced where a
      factorization is actually taken).

    Every weight, mean and covariance entry must be finite; anything
    else is a ``ConfigurationError`` that names the field.  A mixture is
    never modified, except that ``innovation_terms`` keeps the innovation
    terms of all its components for one sensor and one measurement table
    in ``_terms``, one ``d2`` column per row of that table.
    """

    def __init__(self, w, m, P):
        w = np.asarray(w, dtype=float)
        m = np.asarray(m, dtype=float)
        P = np.asarray(P, dtype=float)
        if not w.size:
            raise UsageError("mixture must contain at least one component")
        if m.ndim != 2 or w.shape != m.shape[:1] or \
                P.shape != m.shape + m.shape[1:]:
            raise ConfigurationError(
                "mixture of weights %s, means %s and covariances %s"
                % (w.shape, m.shape, P.shape))
        _check_model("mixture", {"w": w, "m": m, "P": P}, ("w", "m", "P"), [])
        if min(w.tolist()) < 0.0:
            raise ConfigurationError("component weight must be nonnegative")
        self.w, self.m, self.P = w, m, _symmetrize(P)
        self._terms = None

    @property
    def dim(self):
        return self.m.shape[1]

    def total_weight(self):
        return float(sum(self.w.tolist()))

    def normalized(self):
        tot = self.total_weight()
        if not 0.0 < tot < np.inf:
            raise NumericalError("mixture weight sum is not positive and "
                                 "finite", {"total": tot})
        # The innovation terms do not depend on the weights: share them.
        out = _mixture(self.w / tot, self.m, self.P)
        out._terms = self._terms
        return out


def _mixture(w, m, P):
    # A mixture of float arrays the library formed itself, of matching
    # shapes, nonnegative weights and symmetric covariances: without the
    # constructor's checks and its second symmetrize.
    gm = GaussianMixture.__new__(GaussianMixture)
    gm.w, gm.m, gm.P, gm._terms = w, m, P, None
    return gm


def _check_model(where, values, matrices, rules):
    # ``check_numbers`` of a model's or a mixture's settings, after a
    # check that its arrays hold finite entries only.
    for name in matrices:
        if not np.isfinite(values[name]).all():
            raise ConfigurationError("%s %s must be finite, got %r"
                                     % (where, name, values[name]))
    check_numbers(where, values, rules)


@dataclass(eq=False)
class MotionModel:
    """Linear motion model x' = F x + w, w ~ N(0, Q), with survival
    probability used by the multi-object predictors.  ``F`` and ``Q``
    must be finite and ``survival_prob`` in [0, 1]; anything else is a
    ``ConfigurationError``."""

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
        _check_model("motion", vars(self), ("F", "Q"), [
            (("survival_prob",), "in [0, 1]", lambda v: 0.0 <= v <= 1.0)])


@dataclass(eq=False)
class SensorModel:
    """Linear measurement model z = H x + v, v ~ N(0, R), plus the
    detection and clutter description used by the update steps.

    ``clutter_density`` is the clutter spatial density evaluated at a
    measurement, i.e. lambda_c times the (uniform) clutter pdf.  ``H`` and
    ``R`` must be finite, ``detection_prob`` in [0, 1] and
    ``clutter_density`` in [0, inf); anything else is a
    ``ConfigurationError``.
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
        _check_model("sensor", vars(self), ("H", "R"), [
            (("detection_prob",), "in [0, 1]", lambda v: 0.0 <= v <= 1.0),
            (("clutter_density",), "in [0, inf)",
             lambda v: 0.0 <= v < np.inf)])

    @property
    def meas_dim(self):
        return self.H.shape[0]

    def log_clutter(self):
        # Floor keeps log-domain association weights finite when the
        # scenario declares a clutter-free sensor.
        return float(np.log(max(self.clutter_density, 1e-300)))


def gm_predict(mixtures, model):
    """Kalman-predict every component of each mixture through the motion
    model, in one stacked pass; returns the predicted mixtures in order.

    Weights are unchanged; each component maps to
    ``N(F m, F P F' + Q)``.
    """
    if not mixtures:
        return []
    m = np.concatenate([gm.m for gm in mixtures])
    F = model.F
    if F.shape[1] != m.shape[-1]:
        raise ConfigurationError("motion model dimension does not match mixture")
    m = np.matmul(F, m[..., None])[..., 0]
    P = np.concatenate([gm.P for gm in mixtures])
    P = _symmetrize(np.matmul(np.matmul(F, P), F.T) + model.Q)
    out, a = [], 0
    for gm in mixtures:
        b = a + len(gm.w)
        out.append(_mixture(gm.w, m[a:b], P[a:b]))
        a = b
    return out


def _predicted(m, P, sensor):
    # Stacked predicted measurements H m and innovation covariances
    # H P H' + R (symmetrized).
    H = sensor.H
    S = np.matmul(np.matmul(H, P), H.T) + sensor.R
    return np.matmul(H, m[..., None])[..., 0], _symmetrize(S)


def innovation_terms(mixtures, sensor, Z):
    """Fill the innovation terms of each mixture that lacks them for
    ``sensor`` and the measurements ``Z``.

    The terms live in the dict ``_terms`` of the mixture, stacked over its
    components, one row each: ``z_pred = H m``, the gain ``K``, ``cov =
    (I - K H) P`` (symmetrized), ``logdet`` of ``S = H P H' + R`` and
    ``d2[i, j] = |L_i^-1 (Z[j] - z_pred_i)|^2`` with ``L_i`` the Cholesky
    factor of ``S_i``, and the bytes of ``Z`` (``table``): column ``j``
    of ``d2`` is row ``j`` of ``Z``.  Terms held for another sensor or
    table are replaced.  A component whose ``S`` has no Cholesky factor
    raises ``NumericalError`` here, and no mixture of the call keeps new
    terms.  The terms of all mixtures that lack them come from one
    stacked pass, whose slices run the routine of a single component:
    the same bits in any company.
    """
    Z = np.asarray(Z, dtype=float).reshape(len(Z), -1)
    table = Z.tobytes()
    new = [gm for gm in {id(gm): gm for gm in mixtures}.values()
           if gm._terms is None or gm._terms["sensor"] is not sensor
           or gm._terms["table"] != table]
    if not new:
        return
    P = np.concatenate([gm.P for gm in new])
    z_pred, S = _predicted(np.concatenate([gm.m for gm in new]), P, sensor)
    L, H = _cholesky(S), sensor.H
    K = np.linalg.solve(S, np.matmul(H, P)).swapaxes(-1, -2)
    cov = _symmetrize(np.matmul(np.eye(P.shape[-1]) - np.matmul(K, H), P))
    logdet = 2.0 * np.sum(np.log(np.diagonal(L, 0, -2, -1)), -1)
    # One right-hand side per slice: that is the bits of a solve per
    # measurement, which a solve with many columns need not be.
    y = np.linalg.solve(L[:, None], (Z - z_pred[:, None])[..., None])
    # A measurement too far for a finite distance is outside every gate.
    with np.errstate(over="ignore"):
        d2 = np.matmul(y.swapaxes(-1, -2), y)[..., 0, 0]
    a = 0
    for gm in new:
        b = a + len(gm.w)
        gm._terms = dict(sensor=sensor, table=table, z_pred=z_pred[a:b],
                         K=K[a:b], cov=cov[a:b], logdet=logdet[a:b],
                         d2=d2[a:b])
        a = b


def _cholesky(S):
    # Cholesky factors of a stack of matrices; raises for the first
    # without one.
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        for Si in S:
            try:
                np.linalg.cholesky(Si)
            except np.linalg.LinAlgError:
                raise NumericalError(
                    "singular or indefinite innovation covariance",
                    {"matrix": Si, "what": "innovation covariance"}) from None
        raise


def mixture_average(parts, total):
    """The sum of ``w / total`` times each normalized mixture ``gm`` of
    the ``(w, gm)`` ``parts``, its components the parts' in order.  The
    covariances are the parts' stored ones, symmetric already.  Where
    every part holds innovation terms for one sensor and one measurement
    table, the average holds them too: one part's are shared as they
    are, several parts' are concatenated in order."""
    weights, mixtures = zip(*parts)
    out = _mixture(
        np.concatenate([gm.w * (w / (total * gm.total_weight()))
                        for w, gm in zip(weights, mixtures)]),
        np.concatenate([gm.m for gm in mixtures]),
        np.concatenate([gm.P for gm in mixtures]))
    terms = [gm._terms for gm in mixtures]
    first = terms[0]
    if first is None or not all(
            t is not None and t["sensor"] is first["sensor"]
            and t["table"] == first["table"] for t in terms):
        return out
    out._terms = first if len(terms) == 1 else dict(first, **{
        name: np.concatenate([t[name] for t in terms]) for name in (
            "z_pred", "K", "cov", "logdet", "d2")})
    return out


def gm_kalman_update_log(gm, z, sensor):
    """``kalman_updates([gm], sensor, [z], inf)`` on its one pair:
    ``(posterior, log_likelihood)``.  A measurement at no finite distance
    from ``gm``, such as one whose distance overflows, raises
    ``NumericalError``."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if sensor.H.shape[1] != gm.dim:
        raise ConfigurationError("sensor model dimension does not match mixture")
    if z.size != sensor.meas_dim:
        raise ConfigurationError("measurement dimension does not match H")
    log_lik, posteriors = kalman_updates([gm], sensor, z[None], np.inf)
    if not posteriors:
        raise NumericalError("measurement at no finite distance from the "
                             "mixture", {"measurement": z})
    return posteriors[0], float(log_lik[0, 0])


def kalman_updates(mixtures, sensor, Z, gate_sq):
    """Gate and Kalman-update every pair of a mixture of ``mixtures`` and
    a row of ``Z``, stacked over all pairs; a pair is gated where the
    ``d2`` of some component is below ``gate_sq``.

    Returns ``(log_lik, posteriors)``: the (k, M) log likelihoods ``log
    sum_i w_i N(z; H m_i, H P_i H' + R)``, ``-inf`` for the pairs not
    gated, and the normalized posterior mixtures of the gated pairs in
    row-major order, each pair with the bits of a call on it alone.
    Every mixture's terms are read whole, column ``j`` for row ``j`` of
    ``Z``: those held for exactly ``Z`` as they are, the others from one
    ``innovation_terms`` fill for ``Z``.
    """
    log_lik = np.full((len(mixtures), len(Z)), -np.inf)
    if not log_lik.size:
        return log_lik, []
    Z = np.asarray(Z, dtype=float).reshape(len(Z), -1)
    innovation_terms(mixtures, sensor, Z)
    terms = [gm._terms for gm in mixtures]
    d2 = np.concatenate([t["d2"] for t in terms])
    n = np.array([len(gm.w) for gm in mixtures])
    start = np.cumsum(n) - n
    a, j = np.nonzero(np.minimum.reduceat(d2, start) < gate_sq)
    if not a.size:
        return log_lik, []
    w = np.concatenate([gm.w for gm in mixtures])
    m = np.concatenate([gm.m for gm in mixtures])
    z_pred, K, cov, logdet = (np.concatenate([t[name] for t in terms])
                              for name in ("z_pred", "K", "cov", "logdet"))
    posteriors = [None] * a.size
    for size in set(n[a].tolist()):
        # The pairs of mixtures of this many components, one block of
        # rows each, one row per (component, measurement).  A pair's
        # log-sum-exp reduces one contiguous row of ``size``, which gives
        # the bits of np.sum over that mixture's components.
        p = np.flatnonzero(n[a] == size)
        rows = (start[a[p], None] + np.arange(size)).ravel()
        zj = np.repeat(j[p], size)
        lw = np.log(np.maximum(w[rows], 1e-300)) + -0.5 * (
            Z.shape[-1] * _LOG_2PI + logdet[rows] + d2[rows, zj])
        lw = lw.reshape(-1, size)
        top = lw.max(1)
        lik = top + np.log(np.sum(np.exp(lw - top[:, None]), 1))
        log_lik[a[p], j[p]] = lik
        pw = np.exp(lw - lik[:, None]).ravel()
        dz = Z[zj] - z_pred[rows]
        mean = m[rows] + np.matmul(K[rows], dz[..., None])[..., 0]
        P = cov[rows]
        for q, e in enumerate(p.tolist()):
            b = slice(q * size, (q + 1) * size)
            posteriors[e] = _mixture(pw[b], mean[b], P[b])
    return log_lik, posteriors


def _merge(parts):
    # Moment match of (weight, mean, covariance) parts, summed in order.
    w = sum(c[0] for c in parts)
    mean = sum(c[0] * c[1] for c in parts) / w
    P = np.zeros_like(parts[0][2])
    for cw, cm, cP in parts:
        d = cm - mean
        P += cw * (cP + np.outer(d, d))
    return w, mean, P / w


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
    norm = gm.normalized()
    if len(gm.w) == 1:
        return norm
    pool = [c for c in zip(norm.w.tolist(), norm.m, norm.P)
            if c[0] >= prune_threshold]
    if not pool:
        best = int(np.argmax(norm.w))
        return _mixture(np.ones(1), norm.m[best:best + 1],
                        norm.P[best:best + 1])
    merged = []
    while pool:
        _, mean, P = pool[int(np.argmax([c[0] for c in pool]))]
        try:
            P_inv = np.linalg.inv(P)
        except np.linalg.LinAlgError:
            raise NumericalError(
                "singular component covariance",
                {"matrix": P, "what": "component covariance"}) from None
        group, rest = [], []
        for c in pool:
            d = c[1] - mean
            (group if float(d @ P_inv @ d) <= merge_threshold
             else rest).append(c)
        merged.append(_merge(group))
        pool = rest
    merged.sort(key=lambda c: -c[0])
    # Stored covariances plus exactly symmetric d d' terms: symmetric.
    w, m, P = zip(*merged[: int(max_components)])
    return _mixture(np.array(w), np.array(m), np.array(P)).normalized()


def mahalanobis_sq(z, gm, sensor):
    """Squared Mahalanobis distance of ``z`` from the mixture: the
    minimum over components of the distance to the component's predicted
    measurement under its innovation covariance.  A measurement passes a
    gate when any component covers it; gating on a single representative
    component starves the low-weight alternatives that exist precisely
    to recover from association mistakes."""
    innovation_terms([gm], sensor, np.asarray(z, dtype=float)[None])
    return min([np.inf] + gm._terms["d2"][:, 0].tolist())


def gate_mask(measurements, mixtures, sensor, gate_sq):
    """Boolean (M,) mask of the measurements inside the gate of any
    mixture of ``mixtures`` (within ``gate_sq`` of any component); all
    False for an empty list."""
    if not (len(measurements) and mixtures):
        return np.zeros(len(measurements), dtype=bool)
    innovation_terms(mixtures, sensor, measurements)
    return (np.concatenate([gm._terms["d2"] for gm in mixtures])
            < gate_sq).any(0)


def predicted_measurement(mixtures, sensor):
    """Predicted measurement and innovation covariance of the
    highest-weight component (lowest index on ties) of each mixture,
    stacked: ``(z_pred, S)`` of shapes (k, dz) and (k, dz, dz)."""
    if not mixtures:
        d = sensor.H.shape[1]
        return _predicted(np.zeros((0, d)), np.zeros((0, d, d)), sensor)
    top = [int(np.argmax(gm.w)) for gm in mixtures]
    return _predicted(np.array([gm.m[i] for gm, i in zip(mixtures, top)]),
                      np.array([gm.P[i] for gm, i in zip(mixtures, top)]),
                      sensor)


def map_point(gm):
    """Mean of the highest-weight component (lowest index on ties)."""
    return np.array(gm.m[int(np.argmax(gm.w))])

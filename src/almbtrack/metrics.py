"""Multi-object performance metrics.

``ospa`` is the optimal sub-pattern assignment distance between two
unlabeled point sets.  ``ospat`` scores labeled track estimates against
labeled ground truth over a whole scenario: a global correspondence
between truth identities and estimate labels is fixed first (stage 1),
then each scan is scored with an OSPA whose base distance adds a label
penalty ``alpha`` to pairs outside the correspondence (stage 2).
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConfigurationError, check_numbers


@dataclass(frozen=True)
class OspaParams:
    """Order ``p``, cutoff ``c`` and label penalty ``alpha`` (stage 2);
    ``p``, ``c`` and ``c ** p`` must be finite.  All three are stored as
    floats, so that powers such as ``c ** p`` are floats too."""

    p: float = 1.0
    c: float = 300.0
    alpha: float = 100.0

    def __post_init__(self):
        check_numbers("ospa", vars(self), [
            (("p",), "in [1, inf)", lambda v: 1.0 <= v < np.inf),
            (("c",), "in (0, inf)", lambda v: 0.0 < v < np.inf),
            (("alpha",), "in [0, c]", lambda v: 0.0 <= v <= self.c)])
        for name in ("p", "c", "alpha"):
            object.__setattr__(self, name, float(getattr(self, name)))
        try:
            self.c ** self.p
        except OverflowError:
            raise ConfigurationError("ospa c ** p must be finite, got %r ** %r"
                                     % (self.c, self.p)) from None


def _bounded(value, params):
    """``value``, a multiple of ``c ** p``, unless it overflows: then the
    order is too large for the number of points or scans scored."""
    if not np.isfinite(value):
        raise ConfigurationError("ospa p = %r is too large: a sum of c ** p "
                                 "terms overflows" % params.p)
    return value


def _positions(points):
    if len(points) == 0:
        return np.zeros((0, 2))
    return np.asarray([np.asarray(p, dtype=float).reshape(-1) for p in points])


def _distances(x, y):
    """Euclidean distance matrix of the points ``x`` against ``y``.  Each
    entry is one dot product, so it has the bits of ``np.linalg.norm``
    of that pair's difference."""
    X, Y = _positions(x), _positions(y)
    if len(X) == 0 or len(Y) == 0:
        return np.zeros((len(X), len(Y)))
    # A far pair may overflow to inf: every caller cuts it to c.
    with np.errstate(over="ignore"):
        d = X[:, None, :] - Y[None, :, :]
        return np.sqrt(np.matmul(d[..., None, :], d[..., None])[..., 0, 0])


def _ospa_from_matrix(dist, n, m, params):
    """OSPA value given the cutoff base-distance matrix of the smaller
    set against the larger."""
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return float(params.c)
    big = max(n, m)
    _bounded(params.c ** params.p * big, params)
    rows, cols = linear_sum_assignment(dist ** params.p)
    cost = float((dist[rows, cols] ** params.p).sum())
    total = cost + (params.c ** params.p) * (big - min(n, m))
    return float((total / big) ** (1.0 / params.p))


def ospa(x, y, params=None):
    """OSPA distance between two sets of position vectors."""
    params = params or OspaParams()
    dist = _distances(x, y)
    return _ospa_from_matrix(np.minimum(dist, params.c), *dist.shape, params)


def _stage1_correspondence(scans, n_truth, n_est, params):
    """The estimate column matched to each truth row (-1 for none), the
    correspondence minimizing accumulated distance over the whole
    scenario; ``scans`` holds each scan's truth rows, estimate columns
    and distance matrix.

    Scans where both members of a candidate pair exist contribute the
    cutoff distance; scans where exactly one exists contribute the full
    cutoff, so short-lived spurious tracks cannot beat a track that
    covers the truth for most of its life.
    """
    partner = np.full(n_truth, -1)
    if not n_truth or not n_est:
        return partner
    cut = params.c ** params.p
    # Above every sum the scans accumulate.
    big = _bounded(cut * 2.0 * (len(scans) + 1), params)
    acc = np.zeros((n_truth, n_est))
    co = np.zeros_like(acc, dtype=bool)
    for rows, cols, dist in scans:
        t_here = np.zeros(n_truth, dtype=bool)
        e_here = np.zeros(n_est, dtype=bool)
        t_here[rows] = True
        e_here[cols] = True
        # Scans covered by exactly one side cost the full cutoff.
        acc += cut * (t_here[:, None] ^ e_here[None, :])
        pairs = np.ix_(rows, cols)
        acc[pairs] += np.minimum(dist, params.c) ** params.p
        co[pairs] = True
    # Pairs that never coexist carry no identity information.
    rows, cols = linear_sum_assignment(np.where(co, acc, big))
    kept = co[rows, cols]
    partner[rows[kept]] = cols[kept]
    return partner


def ospat(truth_steps, estimate_steps, params=None):
    """Labeled tracking error per scan.

    ``truth_steps`` and ``estimate_steps`` are equal-length sequences;
    each entry lists ``(identity, position)`` pairs for one scan.
    Returns an array with one OSPA-with-label-penalty value per scan,
    using the scenario-wide stage-1 correspondence.
    """
    params = params or OspaParams()
    if len(truth_steps) != len(estimate_steps):
        raise ConfigurationError("truth and estimate sequences differ in length")
    # Identities and labels numbered in order of first appearance.
    t_index, e_index = {}, {}
    scans = [([t_index.setdefault(t, len(t_index)) for t, _ in t_step],
              [e_index.setdefault(e, len(e_index)) for e, _ in e_step],
              _distances([p for _, p in t_step], [p for _, p in e_step]))
             for t_step, e_step in zip(truth_steps, estimate_steps)]
    partner = _stage1_correspondence(scans, len(t_index), len(e_index),
                                     params)
    out = np.zeros(len(scans))
    for k, (rows, cols, base) in enumerate(scans):
        mismatch = np.where(partner[rows][:, None] == np.array(cols, int),
                            0.0, params.alpha)
        # A far pair's power may overflow to inf: it is cut to c.
        with np.errstate(over="ignore"):
            dist = np.minimum((base ** params.p + mismatch ** params.p)
                              ** (1.0 / params.p), params.c)
        out[k] = _ospa_from_matrix(dist, len(rows), len(cols), params)
    return out

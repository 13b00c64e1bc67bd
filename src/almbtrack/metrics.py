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
    """Order ``p``, cutoff ``c`` and label penalty ``alpha`` (stage 2)."""

    p: float = 1.0
    c: float = 300.0
    alpha: float = 100.0

    def __post_init__(self):
        check_numbers("ospa", vars(self), [
            (("p",), ">= 1", lambda v: v >= 1.0),
            (("c",), "> 0", lambda v: v > 0.0),
            (("alpha",), "in [0, c]", lambda v: 0.0 <= v <= self.c)])


def _positions(points):
    if len(points) == 0:
        return np.zeros((0, 2))
    return np.asarray([np.asarray(p, dtype=float).reshape(-1) for p in points])


def _ospa_from_matrix(dist, n, m, params):
    """OSPA value given the cutoff base-distance matrix of the smaller
    set against the larger."""
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return float(params.c)
    rows, cols = linear_sum_assignment(dist ** params.p)
    cost = float((dist[rows, cols] ** params.p).sum())
    big = max(n, m)
    total = cost + (params.c ** params.p) * (big - min(n, m))
    return float((total / big) ** (1.0 / params.p))


def ospa(x, y, params=None):
    """OSPA distance between two sets of position vectors."""
    params = params or OspaParams()
    X = _positions(x)
    Y = _positions(y)
    n, m = X.shape[0], Y.shape[0]
    if n == 0 or m == 0:
        return _ospa_from_matrix(None, n, m, params)
    dist = np.minimum(np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=2),
                      params.c)
    return _ospa_from_matrix(dist, n, m, params)


def _stage1_correspondence(truth_steps, estimate_steps, params):
    """Truth-id to estimate-label correspondence minimizing accumulated
    distance over the whole scenario.

    Scans where both members of a candidate pair exist contribute the
    cutoff distance; scans where exactly one exists contribute the full
    cutoff, so short-lived spurious tracks cannot beat a track that
    covers the truth for most of its life.
    """
    # Identities and labels in order of first appearance.
    truth_ids = list(dict.fromkeys(t for step in truth_steps for t, _ in step))
    est_labels = list(dict.fromkeys(e for step in estimate_steps
                                    for e, _ in step))
    if not truth_ids or not est_labels:
        return {}
    t_index = {tid: i for i, tid in enumerate(truth_ids)}
    e_index = {lab: j for j, lab in enumerate(est_labels)}
    cut = params.c ** params.p
    acc = np.zeros((len(truth_ids), len(est_labels)))
    co = np.zeros_like(acc, dtype=bool)
    for t_step, e_step in zip(truth_steps, estimate_steps):
        t_here = np.zeros(len(truth_ids), dtype=bool)
        e_here = np.zeros(len(est_labels), dtype=bool)
        for tid, _ in t_step:
            t_here[t_index[tid]] = True
        for lab, _ in e_step:
            e_here[e_index[lab]] = True
        # Scans covered by exactly one side cost the full cutoff.
        acc += cut * (t_here[:, None] ^ e_here[None, :])
        for tid, tpos in t_step:
            tpos = np.asarray(tpos, dtype=float)
            for lab, epos in e_step:
                d = min(float(np.linalg.norm(tpos - np.asarray(epos,
                                                               dtype=float))),
                        params.c)
                acc[t_index[tid], e_index[lab]] += d ** params.p
                co[t_index[tid], e_index[lab]] = True
    # Pairs that never coexist carry no identity information.
    big = cut * 2.0 * (len(truth_steps) + 1)
    cost = np.where(co, acc, big)
    rows, cols = linear_sum_assignment(cost)
    return {truth_ids[i]: est_labels[j]
            for i, j in zip(rows, cols) if co[i, j]}


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
    matching = _stage1_correspondence(truth_steps, estimate_steps, params)
    out = np.zeros(len(truth_steps))
    for k, (t_step, e_step) in enumerate(zip(truth_steps, estimate_steps)):
        n, m = len(t_step), len(e_step)
        if n == 0 or m == 0:
            out[k] = _ospa_from_matrix(None, n, m, params)
            continue
        dist = np.zeros((n, m))
        for i, (tid, tpos) in enumerate(t_step):
            tpos = np.asarray(tpos, dtype=float)
            for j, (lab, epos) in enumerate(e_step):
                base = float(np.linalg.norm(tpos - np.asarray(epos,
                                                              dtype=float)))
                mismatch = 0.0 if matching.get(tid) == lab else params.alpha
                dist[i, j] = min((base ** params.p +
                                  mismatch ** params.p) ** (1.0 / params.p),
                                 params.c)
        out[k] = _ospa_from_matrix(dist, n, m, params)
    return out

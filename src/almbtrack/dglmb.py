"""delta-GLMB filter recursion.

Prediction expands each hypothesis over survival subsets; the update
expands each hypothesis over ranked association maps.
All weight arithmetic runs in the log domain.  Hypotheses that end up
with the same label set and the same per-label spatial densities (same
mixture provenance, or numerically indistinguishable after their Kalman
chains converged) are merged by summing weights.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assignment import ranked_assignments
from .densities import (DglmbDensity, Hypothesis, expansion,
                        top_weighted_subsets)
from .errors import NumericalError
from .gaussian import gm_kalman_update_log, gm_predict, mahalanobis_sq


@dataclass(eq=False)
class UpdateOutput:
    """Posterior density plus association bookkeeping.

    ``labels`` fixes the row order of ``assoc_marginals``; entry (i, j)
    is the posterior probability that label i exists and generated
    measurement j.
    """

    posterior: DglmbDensity
    assoc_marginals: np.ndarray
    labels: tuple


def _dedup(entries):
    """Merge entries with identical label sets and spatial provenance.

    ``entries`` are tuples ``(labels, log_w, spatial, extra)``; weights of
    merged entries add up, the first occurrence keeps its ``extra``.
    """
    merged = {}
    order = []
    for labels, log_w, spatial, extra in entries:
        key = (labels, tuple(spatial[lab].uid for lab in labels))
        if key in merged:
            prev = merged[key]
            merged[key] = (labels, np.logaddexp(prev[1], log_w), spatial, prev[3])
        else:
            merged[key] = (labels, log_w, spatial, extra)
            order.append(key)
    return [merged[key] for key in order]


_CONSOLIDATE_ATOL = 1e-2


def _signature(labels, spatial):
    """Flat vector of all component weights, means and covariances, in
    label then component order."""
    parts = []
    for lab in labels:
        for c in spatial[lab].components:
            parts.append((c.weight,))
            parts.append(c.mean)
            parts.append(c.covariance.ravel())
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)


def _consolidate(entries):
    """Merge entries whose label sets match and whose spatial densities
    coincide within ``_CONSOLIDATE_ATOL`` elementwise.

    Association histories whose Kalman chains have converged are one
    hypothesis for every future purpose; keeping them apart only burns
    cap slots that should hold genuinely distinct alternatives.  The
    heaviest entry of a cluster is the representative.
    """
    entries = sorted(entries, key=lambda e: (-(e[1]), e[0]))
    kept = []
    buckets = {}
    for labels, log_w, spatial, extra in entries:
        sig = _signature(labels, spatial)
        key = (labels, sig.size)
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = [np.empty((8, sig.size)), 0, []]
        buf, count, indices = bucket
        hit = -1
        if count:
            close = np.abs(buf[:count] - sig).max(axis=1) <= _CONSOLIDATE_ATOL \
                if sig.size else np.ones(count, dtype=bool)
            where = np.flatnonzero(close)
            if where.size:
                hit = int(where[0])
        if hit >= 0:
            idx = indices[hit]
            prev = kept[idx]
            kept[idx] = (labels, np.logaddexp(prev[1], log_w), prev[2],
                         prev[3])
            continue
        if count == buf.shape[0]:
            bucket[0] = buf = np.vstack([buf, np.empty_like(buf)])
        buf[count] = sig
        bucket[1] = count + 1
        indices.append(len(kept))
        kept.append((labels, log_w, spatial, extra))
    return kept


def _finalize(entries, cap):
    """Consolidate, cap and normalize log-weighted hypothesis entries;
    returns the kept entries and their weights."""
    entries = [e for e in _dedup(entries) if np.isfinite(e[1])]
    if not entries:
        raise NumericalError("all hypothesis weights vanished",
                             {"hypotheses": 0})
    entries = _consolidate(entries)
    # Sort by weight, breaking ties by label set for reproducibility.
    entries.sort(key=lambda e: (-(e[1]), e[0]))
    entries = entries[: int(cap)]
    log_ws = np.array([e[1] for e in entries])
    top = log_ws.max()
    log_total = top + np.log(np.sum(np.exp(log_ws - top)))
    return entries, np.exp(log_ws - log_total)


def entry_density(label_space, entries, w):
    """The delta-GLMB density of finalized entries and their weights."""
    return DglmbDensity(label_space, [Hypothesis(e[0], float(wi), e[2])
                                      for e, wi in zip(entries, w)])


def _per_hypothesis_quota(weights, cap):
    return [int(math.ceil(cap * w)) + 1 for w in weights]


def dglmb_predict(d, motion, cap):
    """Predict a delta-GLMB density one scan ahead.

    Each hypothesis spawns children over subsets of surviving labels
    (weight factor ``p_S**|L| (1-p_S)**(|I|-|L|)``) whose spatial
    densities are Kalman-predicted.  ``cap`` bounds the number of
    retained children.  Births join the pipeline as groups of their own.
    """
    p_s = motion.survival_prob
    d = d.normalized()

    predicted = {}

    def predict_gm(gm):
        if gm.uid not in predicted:
            predicted[gm.uid] = gm_predict(gm, motion)
        return predicted[gm.uid]

    quotas = _per_hypothesis_quota([h.weight for h in d.hypotheses], cap)
    entries = []
    for hyp, quota in zip(d.hypotheses, quotas):
        labels = hyp.labels
        log_w = math.log(hyp.weight) if hyp.weight > 0 else -np.inf
        if p_s >= 1.0:
            subsets = [(tuple(range(len(labels))), 0.0)]
        elif p_s <= 0.0:
            subsets = [((), 0.0)]
        else:
            lo = math.log(p_s) - math.log1p(-p_s)
            # top_weighted_subsets reports weights relative to the best
            # subset; shift back to absolute log p_S**|L| (1-p_S)**(|I|-|L|).
            offset = len(labels) * (math.log1p(-p_s) + max(lo, 0.0))
            subsets = [(s, lw + offset) for s, lw in
                       top_weighted_subsets([lo] * len(labels), quota)]
        for subset, log_surv in subsets:
            # Labels and subsets are sorted, so the survivors are too.
            kept = tuple(labels[i] for i in subset)
            spatial = {lab: predict_gm(hyp.spatial[lab]) for lab in kept}
            entries.append((kept, log_w + log_surv, spatial, None))
    return entry_density(d.label_space, *_finalize(entries, cap))


def dglmb_update(d, measurements, sensor, cap, gate_sq):
    """Measurement-update a delta-GLMB density.

    Per hypothesis an association cost matrix is built from the log
    factors: miss ``1 - p_D``, assignment ``p_D g(z|track) / kappa(z)``;
    pairs outside the ``gate_sq`` Mahalanobis gate are forbidden.  Ranked
    assignments expand each hypothesis into children whose weights are
    globally renormalized; ``cap`` keeps the heaviest children.  The
    innovation terms are those the gate pass cached on each component,
    filled on first use where it did not run.

    Returns an :class:`UpdateOutput` carrying the posterior, the
    track-to-measurement association marginals of the retained children
    and the label row order.
    """
    d = d.normalized()
    Z = [np.asarray(z, dtype=float).reshape(-1) for z in measurements]
    m = len(Z)
    log_pd, log_qd, log_kappa = _log_factors(sensor)

    cache = {}

    def measurement_factor(gm, j):
        key = (gm.uid, j)
        if key not in cache:
            cache[key] = _association(gm, Z[j], sensor, gate_sq, log_pd,
                                      log_kappa)
        return cache[key]

    quotas = _per_hypothesis_quota([h.weight for h in d.hypotheses], cap)
    entries = []
    for hyp, quota in zip(d.hypotheses, quotas):
        labels = hyp.labels
        n = len(labels)
        log_w = math.log(hyp.weight) if hyp.weight > 0 else -np.inf
        cost = np.full((n, m + n), np.inf)
        for i, lab in enumerate(labels):
            gm = hyp.spatial[lab]
            for j in range(m):
                _, log_eta = measurement_factor(gm, j)
                cost[i, j] = -log_eta
            cost[i, m + i] = -log_qd
        for theta, score in ranked_assignments(cost, quota):
            spatial = {}
            for i, lab in enumerate(labels):
                if theta[i] == 0:
                    spatial[lab] = hyp.spatial[lab]
                else:
                    spatial[lab] = cache[(hyp.spatial[lab].uid, theta[i] - 1)][0]
            entries.append((labels, log_w - score, spatial,
                            dict(zip(labels, theta))))
    entries, w = _finalize(entries, cap)
    marginals = np.zeros((len(d.label_space), m))
    row = {lab: i for i, lab in enumerate(d.label_space)}
    for (labels, _, _, theta), wi in zip(entries, w):
        for lab in labels:
            j = theta[lab]
            if j > 0:
                marginals[row[lab], j - 1] += wi
    return UpdateOutput(entry_density(d.label_space, entries, w), marginals,
                        d.label_space)


def _log_factors(sensor):
    # log p_D, log (1 - p_D) and log clutter density.
    p_d = sensor.detection_prob
    return (math.log(p_d) if p_d > 0 else -np.inf,
            math.log1p(-p_d) if p_d < 1.0 else -np.inf, sensor.log_clutter())


def _association(gm, z, sensor, gate_sq, log_pd, log_kappa):
    # (posterior mixture, log eta) of assigning measurement z to gm;
    # (None, -inf) outside the gate.
    if mahalanobis_sq(z, gm, sensor) >= gate_sq:
        return None, -np.inf
    post, log_lik = gm_kalman_update_log(gm, z, sensor)
    return post, log_pd + log_lik - log_kappa


def one_track_update(track, measurements, sensor, cap, gate_sq):
    """The finalized entries and weights of ``dglmb_update`` on the
    expansion of a one-track LMB density, in closed form.

    The absent hypothesis has one child.  The present one has its miss
    and its gated measurements, ranked by (cost, theta) and cut at its
    quota as ``ranked_assignments`` ranks a one-row cost matrix; above 16
    measurements that is Murty's algorithm, which alone would put a miss
    after a measurement of bit-equal cost.  Each entry's extra is theta.
    """
    subsets, w = expansion([track.existence], cap)
    w = w / w.sum()  # DglmbDensity.normalized
    log_pd, log_qd, log_kappa = _log_factors(sensor)
    options = [(-log_qd, 0, track.spatial)]
    for j, z in enumerate(measurements):
        post, log_eta = _association(track.spatial, z, sensor, gate_sq,
                                     log_pd, log_kappa)
        options.append((-log_eta, j + 1, post))
    options.sort(key=lambda o: o[:2])  # forbidden (infinite) costs last
    label, entries = track.label, []
    for subset, wi, quota in zip(subsets, w, _per_hypothesis_quota(w, cap)):
        log_w = math.log(wi) if wi > 0 else -np.inf
        entries += [((label,), log_w - score, {label: gm}, theta)
                    for score, theta, gm in options[:quota]
                    if np.isfinite(score)] if subset else [((), log_w, {}, 0)]
    return _finalize(entries, cap)


def dglmb_prune(d, weight_threshold, cap):
    """Drop hypotheses at or below ``weight_threshold``, keep the ``cap``
    heaviest, renormalize.  The heaviest hypothesis always survives."""
    hyps = sorted(d.hypotheses, key=lambda h: (-h.weight, h.labels))
    kept = [h for h in hyps if h.weight > weight_threshold]
    if not kept:
        kept = hyps[:1]
    kept = kept[: int(cap)]
    tot = sum(h.weight for h in kept)
    return DglmbDensity(
        d.label_space,
        [Hypothesis(h.labels, h.weight / tot, h.spatial) for h in kept])

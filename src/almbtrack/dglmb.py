"""delta-GLMB filter recursion.

Prediction expands each hypothesis over survival subsets; the update
expands each hypothesis over ranked association maps.  The Gaussian work
is stacked over the density's mixture table: the prediction predicts the
table's used mixtures in one pass, and the update gates and
Kalman-updates every (table mixture, measurement) pair in one pass, from
which each hypothesis's cost matrix is read (Vo, Vo & Hoang, "An
efficient implementation of the generalized labeled multi-Bernoulli
filter", IEEE TSP 2017).
All weight arithmetic runs in the log domain.  Hypotheses that end up
with the same label set and the same per-label spatial densities (same
mixture provenance, or numerically indistinguishable after their Kalman
chains converged) are merged by summing weights.  Children are rows of
mixture-table positions, as in ``DglmbDensity``, with log weights.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assignment import ranked_assignments
from .densities import (DglmbDensity, _bernoulli_log_odds,
                        top_weighted_subsets)
from .errors import NumericalError
from .gaussian import (gm_kalman_update_log, gm_predict, kalman_updates,
                       mahalanobis_sq)


@dataclass(eq=False)
class UpdateOutput:
    """Posterior density plus association bookkeeping.

    Row i of ``assoc_marginals`` is ``posterior.label_space[i]``; entry
    (i, j) is the posterior probability that label i exists and
    generated measurement j.
    """

    posterior: DglmbDensity
    assoc_marginals: np.ndarray


def _ranking(rows, values):
    """Stable order of ``rows`` by descending ``values``, ties broken by
    label set as tuples of sorted labels compare."""
    keys = [-v for v in values]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    if any(keys[a] == keys[b] for a, b in zip(order, order[1:])):
        keys = [(key, [k for k, i in enumerate(row) if i >= 0])
                for key, row in zip(keys, rows)]
        order.sort(key=keys.__getitem__)
    return order


def _dedup(rows, log_w):
    """The positions of the first of each distinct row, in order, and
    their log weights merged by ``logaddexp`` in row order."""
    first, merged = {}, {}
    for e, (key, lw) in enumerate(zip(map(tuple, rows), log_w)):
        e = first.setdefault(key, e)
        merged[e] = np.logaddexp(merged[e], lw) if e in merged else lw
    return list(merged), list(merged.values())


_CONSOLIDATE_ATOL = 1e-2


def _signatures(mixtures):
    """One row per mixture, all of one shape: the component weights,
    means and covariances, in component order."""
    k = len(mixtures)
    return np.concatenate([np.array([gm.w for gm in mixtures])[..., None],
                           np.array([gm.m for gm in mixtures]),
                           np.array([gm.P for gm in mixtures]).reshape(
                               k, len(mixtures[0].w), -1)], 2).reshape(k, -1)


def _close(mixtures, shared):
    """``(k, k)`` mask of the pairs of ``mixtures``, all of one shape,
    whose signatures are within ``_CONSOLIDATE_ATOL`` elementwise (on the
    diagonal only where ``shared``); the first mean entry screens."""
    x = np.array([gm.m[0, 0] for gm in mixtures])
    near = np.abs(x[:, None] - x) <= _CONSOLIDATE_ATOL
    near.flat[::len(x) + 1] = shared  # unless nan or inf, close to itself
    a, b = np.nonzero(near)
    if a.size:
        S = _signatures(mixtures)
        near[a, b] = np.abs(S[a] - S[b]).max(axis=1) <= _CONSOLIDATE_ATOL
    return near


def _consolidate(rows, log_w, mixtures):
    """Merge rows whose label sets match and whose spatial densities
    coincide within ``_CONSOLIDATE_ATOL`` elementwise: association
    histories whose Kalman chains converged are one hypothesis for every
    future purpose.  Rows are visited heaviest first; each joins the first
    representative of its bucket (label set and signature size) that it
    is close to, label by label (by whole signatures where a label's
    mixtures differ in shape), or becomes one.  Returns the
    representatives, in visiting order, and their merged log weights."""
    order = _ranking(rows, log_w)
    log_w = list(log_w)
    shapes = [gm.m.shape for gm in mixtures]
    # The signature sizes, which one label set fixes where all shapes
    # agree; position -1 reads the trailing 0.
    sizes = [c * (1 + d + d * d) for c, d in shapes] + [0]
    buckets, rep, agree = {}, {}, len(set(shapes)) < 2
    for e in order:
        buckets.setdefault((tuple(i >= 0 for i in rows[e]), agree or sum(
            sizes[i] for i in rows[e])), []).append(e)
    for members in (m for m in buckets.values() if len(m) > 1):
        close = np.ones((len(members), len(members)), dtype=bool)
        for k in (k for k, i in enumerate(rows[members[0]]) if i >= 0):
            slot = {}
            inverse = [slot.setdefault(rows[e][k], len(slot))
                       for e in members]
            if len({shapes[i] for i in slot}) > 1:
                S = np.array([np.concatenate([_signatures([mixtures[i]])[0]
                                              for i in rows[e] if i >= 0])
                              for e in members])
                close = np.abs(S[:, None] - S).max(-1) <= _CONSOLIDATE_ATOL
                break
            mixture_close = _close([mixtures[i] for i in slot], [
                inverse.count(g) > 1 for g in range(len(slot))])
            close &= mixture_close if len(slot) == len(members) else \
                mixture_close[np.ix_(inverse, inverse)]
        # Row-major pairs: a row's earlier members are settled before it.
        for a, b in zip(*np.nonzero(close)):
            i, j = members[a], members[b]
            if b < a and i not in rep and j not in rep:
                rep[i] = j
                log_w[j] = np.logaddexp(log_w[j], log_w[i])
    kept = [e for e in order if e not in rep]
    return kept, [log_w[e] for e in kept]


def _finalize(rows, log_w, mixtures, cap):
    """Consolidate, cap and normalize log-weighted rows (lists of table
    positions); returns the kept rows' positions and their weights."""
    keep, log_w = _dedup(rows, log_w)
    finite = [(e, lw) for e, lw in zip(keep, log_w) if math.isfinite(lw)]
    if not finite:
        raise NumericalError("all hypothesis weights vanished",
                             {"hypotheses": 0})
    keep, log_w = zip(*finite)
    kept, log_w = _consolidate([rows[e] for e in keep], log_w, mixtures)
    keep = [keep[e] for e in kept]
    # Sort by weight, breaking ties by label set for reproducibility; the
    # rows are in that order already unless some merged.
    if len(keep) < len(finite):
        order = _ranking([rows[e] for e in keep], log_w)
        keep, log_w = [keep[e] for e in order], [log_w[e] for e in order]
    return keep[: int(cap)], _normalized(log_w[: int(cap)])


def _normalized(log_w):
    # exp(log_w) over its log-sum-exp, taken from the largest entry.
    log_w = np.array(log_w)
    top = log_w.max()
    return np.exp(log_w - (top + np.log(np.sum(np.exp(log_w - top)))))


def _per_hypothesis_quota(weights, cap):
    return [int(math.ceil(cap * w)) + 1 for w in weights]


def _log_weights(w):
    return [math.log(x) if x > 0 else -math.inf for x in w]


def _survival_subsets(size, quota, p_s):
    # The quota's best survivor subsets L of |I| = size labels and their
    # log p_S**|L| (1-p_S)**(|I|-|L|).
    if p_s >= 1.0:
        return [(tuple(range(size)), 0.0)]
    if p_s <= 0.0:
        return [((), 0.0)]
    lo = math.log(p_s) - math.log1p(-p_s)
    # top_weighted_subsets reports weights relative to the best subset;
    # shift back to absolute log p_S**|L| (1-p_S)**(|I|-|L|).
    offset = size * (math.log1p(-p_s) + max(lo, 0.0))
    return [(s, lw + offset) for s, lw in
            top_weighted_subsets([lo] * size, quota)]


def dglmb_predict(d, motion, cap):
    """Predict a delta-GLMB density one scan ahead.

    Each hypothesis spawns children over subsets of surviving labels
    (weight factor ``p_S**|L| (1-p_S)**(|I|-|L|)``) whose spatial
    densities are Kalman-predicted.  ``cap`` bounds the number of
    retained children.  Births join the pipeline as groups of their own.
    """
    d = d.normalized()
    subsets, rows, log_w = {}, [], []
    for row, lw, quota in zip(d.hypotheses.tolist(),
                              _log_weights(d.w.tolist()),
                              _per_hypothesis_quota(d.w.tolist(), cap)):
        labels = [k for k, i in enumerate(row) if i >= 0]
        key = (len(labels), quota)
        if key not in subsets:
            subsets[key] = _survival_subsets(*key, motion.survival_prob)
        for subset, log_surv in subsets[key]:
            rows.append([-1] * len(row))
            for r in subset:
                rows[-1][labels[r]] = row[labels[r]]
            log_w.append(lw + log_surv)
    # Predict the mixtures the children use, in a table of their own.
    used = list(dict.fromkeys(i for row in rows for i in row if i >= 0))
    mixtures = gm_predict([d.mixtures[i] for i in used], motion)
    slot = {i: p for p, i in enumerate(used)}
    rows = [[slot.get(i, -1) for i in row] for row in rows]
    keep, w = _finalize(rows, log_w, mixtures, cap)
    return DglmbDensity(d.label_space, mixtures, np.array(
        [rows[e] for e in keep], dtype=int), w)


def dglmb_update(d, measurements, sensor, cap, gate_sq):
    """Measurement-update a delta-GLMB density.

    Per hypothesis an association cost matrix is built from the log
    factors: miss ``1 - p_D``, assignment ``p_D g(z|track) / kappa(z)``;
    pairs outside the ``gate_sq`` Mahalanobis gate are forbidden.  Ranked
    assignments expand each hypothesis into children whose weights are
    globally renormalized; ``cap`` keeps the heaviest children.  Every
    (table mixture, measurement) pair is gated and updated in one stacked
    ``kalman_updates`` pass, which reads the innovation terms the gate
    pass cached on the table and fills them, in one stacked call, for the
    mixtures that hold none covering ``measurements``.

    Returns an :class:`UpdateOutput` carrying the posterior and the
    track-to-measurement association marginals of the retained children.
    """
    d = d.normalized()
    m = len(measurements)
    log_pd, log_qd, log_kappa = _log_factors(sensor)
    log_lik, posteriors = kalman_updates(d.mixtures, sensor, measurements,
                                         gate_sq)
    # Each mixture's cost and posterior table position per measurement;
    # a last position, its own, for a miss.  A pair outside the gate keeps
    # the mixture at an infinite cost.
    gated = np.isfinite(log_lik)
    child = np.repeat(np.arange(len(d.mixtures))[:, None], m + 1, 1)
    child[:, :m][gated] = len(d.mixtures) + np.arange(len(posteriors))
    cost, child = (-(log_pd + log_lik - log_kappa)).tolist(), child.tolist()
    mixtures = list(d.mixtures) + posteriors
    rows, thetas, log_w = [], [], []
    for row, lw, quota in zip(d.hypotheses.tolist(),
                              _log_weights(d.w.tolist()),
                              _per_hypothesis_quota(d.w.tolist(), cap)):
        cols = [k for k, i in enumerate(row) if i >= 0]
        matrix = np.array([cost[row[k]] + [np.inf] * r + [-log_qd] + [
            np.inf] * (len(cols) - r - 1) for r, k in enumerate(cols)],
            dtype=float).reshape(len(cols), m + len(cols))
        for theta, score in ranked_assignments(matrix, quota):
            rows.append(list(row))
            for k, j in zip(cols, theta):
                rows[-1][k] = child[row[k]][j - 1]
            thetas.append(list(zip(cols, theta)))
            log_w.append(lw - score)
    keep, w = _finalize(rows, log_w, mixtures, cap)
    marginals = np.zeros((len(d.label_space), m))
    for e, wi in zip(keep, w.tolist()):
        for k, j in thetas[e]:
            if j:
                marginals[k, j - 1] += wi
    return UpdateOutput(DglmbDensity(
        d.label_space, mixtures, np.array([rows[e] for e in keep], dtype=int),
        w), marginals)


def _log_factors(sensor):
    # log p_D, log (1 - p_D) and log clutter density.
    p_d = sensor.detection_prob
    return (math.log(p_d) if p_d > 0 else -np.inf,
            math.log1p(-p_d) if p_d < 1.0 else -np.inf, sensor.log_clutter())


def _bernoulli_expansion(existence):
    """``expansion([existence], cap)``, for any cap of 2 or more, then
    normalized again as ``DglmbDensity.normalized`` does: whether each
    label subset holds the track, and its weight, best first.  The absent
    subset alone where the existence is 0."""
    lo = _bernoulli_log_odds(existence)
    if lo == -math.inf:
        return [False], [1.0]
    # The weights relative to the best subset's, as expansion's
    # exponentials give them; then its normalization, then the density's.
    w = [1.0, float(np.exp(-abs(lo)))]
    for _ in range(2):
        tot = w[0] + w[1]
        w = [w[0] / tot, w[1] / tot]
    return [lo > 0.0, lo <= 0.0], w


def one_track_update(existence, gm, measurements, sensor, cap, gate_sq):
    """``dglmb_update`` on the expansion of the one-track LMB density of
    ``existence`` and mixture ``gm``, in closed form: ``(mixtures, index,
    theta, w)`` of the kept children, with ``index`` of one label column
    and ``theta`` a list.

    The absent hypothesis has one child.  The present one has its miss
    and its gated measurements, ranked by (cost, theta) and cut at its
    quota as ``ranked_assignments`` ranks a one-row cost matrix; above 16
    measurements that is Murty's algorithm, which alone would put a miss
    after a measurement of bit-equal cost.  Where the present hypothesis
    has at most one option, as with nothing in the gate (the Bernoulli
    missed-detection posterior, existence r (1 - p_D) / (1 - r p_D) and
    ``gm`` unchanged: Ristic, Vo, Vo & Farina, "A tutorial on Bernoulli
    filters", IEEE TSP 2013) or with p_D = 1 and one gated measurement, no
    two children share a label set, and ``_finalize`` is a sort.
    """
    present, w = _bernoulli_expansion(existence)
    log_pd, log_qd, log_kappa = _log_factors(sensor)
    options = [(-log_qd, 0, gm)]
    for j, z in enumerate(measurements):
        if mahalanobis_sq(z, gm, sensor) >= gate_sq:
            continue
        post, log_lik = gm_kalman_update_log(gm, z, sensor)
        options.append((-(log_pd + log_lik - log_kappa), j + 1, post))
    # Forbidden (infinite) costs would rank last; none is kept.
    options = sorted((o for o in options if math.isfinite(o[0])),
                     key=lambda o: o[:2])
    mixtures, rows = [post for _, _, post in options], []
    for there, log_w, quota in zip(present, _log_weights(w),
                                   _per_hypothesis_quota(w, cap)):
        # (table position, theta, log weight) of each child.
        rows += [(p, theta, log_w - score) for p, (score, theta, _)
                 in enumerate(options[:quota])] if there else [(-1, 0, log_w)]
    if len(options) > 1:
        keep, w = _finalize([row[:1] for row in rows],
                            [row[2] for row in rows], mixtures, cap)
        rows = [rows[e] for e in keep]
    else:
        # One child per hypothesis: no two rows share a label set, so
        # _finalize keeps the finite rows, heaviest first and the absent
        # row first on a tie.
        rows = sorted((row for row in rows if math.isfinite(row[2])),
                      key=lambda row: (-row[2], row[0] >= 0))
        if not rows:
            raise NumericalError("all hypothesis weights vanished",
                                 {"hypotheses": 0})
        rows = rows[: int(cap)]
        w = _normalized([row[2] for row in rows])
    return (mixtures, np.array([row[:1] for row in rows], dtype=int),
            [row[1] for row in rows], w)


def dglmb_prune(d, weight_threshold, cap):
    """Drop hypotheses at or below ``weight_threshold``, keep the ``cap``
    heaviest, renormalize.  The heaviest hypothesis always survives."""
    w = d.w.tolist()
    order = _ranking(d.hypotheses.tolist(), w)
    kept = ([h for h in order if w[h] > weight_threshold] or order[:1])[
        : int(cap)]
    tot = sum(w[h] for h in kept)
    return DglmbDensity(d.label_space, d.mixtures, d.hypotheses[kept],
                        np.array([w[h] / tot for h in kept]))

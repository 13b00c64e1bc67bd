"""delta-GLMB filter recursion.

Prediction expands each hypothesis over survival subsets; the update
expands each hypothesis over ranked association maps.  The Gaussian work
is stacked over the density's mixture table: the prediction predicts the
table in one pass, and the update gates and Kalman-updates every (table
mixture, measurement) pair in one pass, from which each hypothesis's
cost matrix is read (Vo, Vo & Hoang, "An efficient implementation of the
generalized labeled multi-Bernoulli filter", IEEE TSP 2017).
A recursion's children are one (children x labels) int array of
mixture-table positions, as in ``DglmbDensity``, and a log-weight vector,
from expansion to ``_finalize``: the prediction writes them through one
boolean subset mask per label count, the update gathers them from the
(mixture, map) table of posterior positions.  The update ranks the maps
of all hypotheses of one label count in one ``ranked_stack`` call, the
empty hypothesis with those of one label; a problem of more than
``ENUMERATE_LIMIT`` cells goes alone to Murty's algorithm
(``ranked_assignments``).
All weight arithmetic runs in the log domain.  Hypotheses that end up
with the same label set and the same per-label spatial densities (same
mixture provenance, or numerically indistinguishable after their Kalman
chains converged) are merged by summing weights.  Equal rows are found
by one rule, ``row_groups``, which also serves the pipeline's label
drops (``dglmb_drop_labels``) and marginals.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assignment import ENUMERATE_LIMIT, ranked_assignments, ranked_stack
from .densities import (DglmbDensity, bernoulli_expansion, segment_sums,
                        top_weighted_subsets)
from .errors import NumericalError
from .gaussian import (gm_kalman_update_log, gm_predict, kalman_updates,
                       mahalanobis_sq)


@dataclass(eq=False)
class UpdateOutput:
    """Posterior density plus association bookkeeping.

    Row i of ``assoc_marginals`` is ``posterior.label_space[i]``; entry
    (i, j) is the posterior probability that label i exists and
    generated measurement j of the update's table, 0 where no mixture
    of the prior gates j.
    """

    posterior: DglmbDensity
    assoc_marginals: np.ndarray


def _ranking(rows, values):
    """Stable order of the rows of the int array ``rows`` by descending
    ``values``; where values tie, by label set as tuples of sorted labels
    compare."""
    order = (-values).argsort(kind="stable")
    ranked = values[order]
    if not np.count_nonzero(ranked[1:] == ranked[:-1]):
        return order
    # A label set's sorted columns, padded with -1 (which sorts first), so
    # a prefix ranks before its extensions.
    width = rows.shape[1]
    cols = np.where(rows >= 0, np.arange(width), width)
    cols.sort(1)
    cols[cols == width] = -1
    return np.lexsort((*cols.T[::-1], -values))


def row_groups(keys):
    """Equal rows of the 2-D ``keys``: each row's group, groups numbered
    in order of first appearance, and the first row of each group."""
    # A dict of the rows' bytes.  Against a stable sort of the rows as
    # void scalars, timed on 2-1,000 rows of 1 and 16 columns: the dict
    # takes 2 us at 3 rows (the sort 9 us) and loses only from about 50
    # rows, by 10 us at 100 rows.  A recursion of the sixteen-target
    # scenario holds at most 140 rows.
    raw, step, seen = keys.tobytes(), keys[:1].nbytes, {}
    group, first = [], []
    for e in range(len(keys)):
        g = seen.setdefault(raw[e * step:(e + 1) * step], len(seen))
        if g == len(first):
            first.append(e)
        group.append(g)
    return np.array(group, dtype=int), np.array(first, dtype=int)


def _dedup(rows, log_w):
    """The positions of the first of each distinct row of the int array
    ``rows``, in order, and their log weights merged by ``logaddexp`` in
    row order."""
    log_w = np.asarray(log_w, dtype=float)
    group, first = row_groups(rows)
    if len(first) == len(rows):
        return first, log_w
    merged = np.full(len(first), -np.inf)
    np.logaddexp.at(merged, group, log_w)
    return first, merged


def dglmb_drop_labels(d, doomed):
    """Drop the labels in ``doomed`` from the delta-GLMB density ``d``:
    rows that then coincide merge by ``_dedup``, their weights added from
    the floored log weights and renormalized."""
    columns = [k for k, lab in enumerate(d.label_space) if lab not in doomed]
    index = d.hypotheses[:, columns]
    first, log_w = _dedup(index, np.log(np.maximum(d.w, 1e-300)))
    weights = np.exp(log_w)
    return DglmbDensity(tuple(d.label_space[k] for k in columns),
                        d.mixtures, index[first],
                        weights / np.cumsum(weights)[-1])


_CONSOLIDATE_ATOL = 1e-2


def _spread(lead):
    """Whether the sorted ``lead`` (first mean entries of a bucket's first
    present label) are pairwise farther apart than ``_CONSOLIDATE_ATOL``,
    so that no two of the bucket's rows can merge."""
    return all(y - x > _CONSOLIDATE_ATOL for x, y in zip(lead, lead[1:]))


# Below this many rows ``_apart`` proves nearly every call of the
# benchmark's runs apart for less than the array screen's fixed cost:
# timed on their recorded ``_consolidate`` inputs, 16 us against 37 us
# at 3 rows and 27 against 69 at 7.  At 8-19 rows it proves about a third
# apart, and 8 and 12 rows, the most common, take 60 us longer with it.
_FEW_ROWS = 8


def _apart(rows, mixtures):
    """Whether no two of a few ``rows`` (lists of table positions) can
    merge: in each bucket of one label set and signature size, every
    label's mixtures are of one shape and the first present label's first
    mean entries are ``_spread``."""
    buckets = {}
    for row in rows:
        held = [i for i in row if i >= 0]
        shapes = tuple(mixtures[i].m.shape for i in held)
        buckets.setdefault((tuple(i >= 0 for i in row), sum(
            c * (1 + d + d * d) for c, d in shapes)), []).append(
                (shapes, mixtures[held[0]].m[0, 0] if held else 0.0))
    return all(len({shapes for shapes, _ in members}) < 2 and _spread(
        sorted(x for _, x in members)) for members in buckets.values())


def _consolidate(rows, log_w, mixtures):
    """Merge rows whose label sets match and whose spatial densities
    coincide within ``_CONSOLIDATE_ATOL`` elementwise: association
    histories whose Kalman chains converged are one hypothesis for every
    future purpose.  Rows are visited heaviest first; each joins the first
    representative of its bucket (label set and signature size) whose
    signature (every label's component weights, means and covariances,
    concatenated in label and component order) it is close to, or
    becomes one.  Returns the representatives' positions in ``rows``, in
    visiting order, and their merged log weights."""
    log_w = np.asarray(log_w, dtype=float)
    order = _ranking(rows, log_w)
    if len(rows) < _FEW_ROWS and _apart(rows.tolist(), mixtures):
        return order, log_w[order]
    rows, log_w = rows[order], log_w[order]
    present = rows >= 0
    # The signature size of every mixture in use, by table position;
    # position -1 reads an absent label's 0.
    used = list(dict.fromkeys(rows[present].tolist()))
    shapes = [mixtures[i].m.shape for i in used]
    size = np.zeros(len(mixtures) + 1)
    size[used] = [c * (1 + d + d * d) for c, d in shapes]
    # Buckets of one label set and signature size, in visiting order; a
    # row alone in its bucket is a representative.
    group, _ = row_groups(np.concatenate(
        (present, size[rows].sum(1)[:, None]), 1))
    buckets = {}
    shared = np.bincount(group)[group] > 1
    for e, g in zip(shared.nonzero()[0].tolist(), group[shared].tolist()):
        buckets.setdefault(g, []).append(e)
    # A shape code and the first component's mean (its first entries
    # where dimensions differ) of every mixture in use, read once.
    dim, codes = min([d for _, d in shapes], default=1), {}
    table = np.zeros((len(mixtures) + 1, 1 + dim))
    table[used, 0] = [codes.setdefault(shape, len(codes)) for shape in shapes]
    table[used, 1:] = np.array([mixtures[i].m[0, :dim] for i in used]
                               ).reshape(len(used), dim)
    signatures, rep, merges = {}, [True] * len(rows), []
    for idx in map(np.array, buckets.values()):
        cols = present[idx[0]]
        held = table[rows[idx][:, cols]]
        X, code = held[:, :, 1:].reshape(len(idx), -1), held[:, :, 0]
        # Unless two first present labels' first mean entries are within
        # the tolerance, or the labels' mixtures differ in shape, no two
        # rows merge.
        lead = sorted(X[:, 0].tolist()) if X.size else [0.0] * len(idx)
        aligned = not np.count_nonzero(code != code[:1])
        if aligned and _spread(lead):
            continue
        # Screen pairs by the first means, first entry first; then compare
        # whole signatures.
        x = X[:, 0] if X.size else np.zeros(len(idx))
        a, b = (np.abs(x[:, None] - x) <= _CONSOLIDATE_ATOL).nonzero()
        lower = b < a
        a, b = a[lower], b[lower]
        if len(a):
            near = (np.abs(X[a] - X[b]) <= _CONSOLIDATE_ATOL).all(1)
            a, b = a[near], b[near]
        if not aligned:
            # Rows whose labels' mixtures differ in shape compare their
            # concatenations, whatever their means.
            near = (code[:, None] != code).any(2)
            near[a, b] = True
            a, b = np.tril(near, -1).nonzero()
        if not len(a):
            continue
        pair = np.zeros(len(idx), dtype=bool)
        pair[a] = pair[b] = True
        pieces = rows[idx[pair]][:, cols].ravel().tolist()
        for i in pieces:
            if i not in signatures:
                gm = mixtures[i]
                signatures[i] = np.concatenate(
                    (gm.w[:, None], gm.m, gm.P.reshape(len(gm.w), -1)),
                    1).ravel()
        S = np.concatenate([np.zeros(0)] + [signatures[i] for i in pieces])
        S = S.reshape(np.count_nonzero(pair), -1 if len(pieces) else 0)
        pick = pair.cumsum() - 1
        close = np.abs(S[pick[a]] - S[pick[b]]).max(1, initial=0.0) \
            <= _CONSOLIDATE_ATOL
        # Row-major pairs: a row's earlier members are settled before it.
        for i, j in zip(idx[a[close]].tolist(), idx[b[close]].tolist()):
            if rep[i] and rep[j]:
                rep[i] = False
                merges.append((j, i))
    if merges:
        into, source = np.array(merges).T
        np.logaddexp.at(log_w, into, log_w[source])
        rep = np.array(rep)
        return order[rep], log_w[rep]
    return order, log_w


def _finalize(rows, log_w, mixtures, cap):
    """Consolidate, cap and normalize log-weighted rows (an int array of
    table positions); returns the kept rows' positions and their
    weights."""
    keep, log_w = _dedup(rows, log_w)
    finite = np.isfinite(log_w)
    count = np.count_nonzero(finite)
    if not count:
        raise NumericalError("all hypothesis weights vanished",
                             {"hypotheses": 0})
    if count < len(log_w):
        keep, log_w = keep[finite], log_w[finite]
    kept, log_w = _consolidate(rows[keep], log_w, mixtures)
    # Sort by weight, breaking ties by label set for reproducibility; the
    # rows are in that order already unless some merged.
    if len(kept) < len(keep):
        order = _ranking(rows[keep[kept]], log_w)
        kept, log_w = kept[order], log_w[order]
    cap = int(cap)
    return keep[kept[:cap]], _normalized(log_w[:cap])


def _normalized(log_w):
    # exp(log_w) over its log-sum-exp, taken from the largest entry.
    log_w = np.asarray(log_w, dtype=float)
    top = log_w.max()
    return np.exp(log_w - (top + np.log(np.exp(log_w - top).sum())))


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
    hyps = d.hypotheses
    held = hyps >= 0
    size, quota = held.sum(1).tolist(), _per_hypothesis_quota(d.w.tolist(),
                                                              cap)
    # The survivor subsets of |I| = s labels, one boolean mask row each,
    # for every s in use: a hypothesis's quota takes a prefix of the list
    # for the largest quota of its s.
    top = {}
    for s, q in zip(size, quota):
        top[s] = max(top.get(s, 0), q)
    masks, log_surv, first, count = [], [], {}, {}
    for s in sorted(top):
        best = _survival_subsets(s, top[s], motion.survival_prob)
        first[s], count[s] = len(masks), len(best)
        for subset, lw in best:
            masks.append([k in subset for k in range(hyps.shape[1])])
            log_surv.append(lw)
    take = [min(q, count[s]) for s, q in zip(size, quota)]
    parent = np.repeat(np.arange(len(hyps)), take)
    subset = [first[s] + r for s, t in zip(size, take) for r in range(t)]
    # Mask column k is the hypothesis's k-th label, so the columns run
    # present labels first.
    cols = (~held).argsort(1, kind="stable")[parent]
    rows = np.empty((len(parent), hyps.shape[1]), dtype=int)
    rows[np.arange(len(parent))[:, None], cols] = np.where(
        np.array(masks, dtype=bool)[subset],
        hyps[parent[:, None], cols], -1)
    log_w = np.array(_log_weights(d.w.tolist()))[parent] + np.array(
        log_surv)[subset]
    mixtures = gm_predict(d.mixtures, motion)
    keep, w = _finalize(rows, log_w, mixtures, cap)
    return DglmbDensity(d.label_space, mixtures, rows[keep], w)


def dglmb_update(d, measurements, sensor, cap, gate_sq):
    """Measurement-update a delta-GLMB density.

    Per hypothesis an association cost matrix is built from the log
    factors: miss ``1 - p_D``, assignment ``p_D g(z|track) / kappa(z)``;
    pairs outside the ``gate_sq`` Mahalanobis gate are forbidden.  Ranked
    assignments expand each hypothesis into children whose weights are
    globally renormalized; ``cap`` keeps the heaviest children.  Every
    (table mixture, measurement) pair is gated and updated in one stacked
    ``kalman_updates`` pass, which reads the innovation terms the table
    holds for exactly ``measurements`` (in the pipeline, the scan's whole
    table, whose terms the gate pass cached) and fills them, in one
    stacked call, for the other mixtures.  Only the measurements some
    table mixture gates are ranked: no map holds any other.  The
    hypotheses of each label count are ranked together (``_ranked``).

    Returns an :class:`UpdateOutput` carrying the posterior and the
    track-to-measurement association marginals of the retained children,
    over every measurement.
    """
    d = d.normalized()
    hyps = d.hypotheses
    log_pd, log_qd, log_kappa = _log_factors(sensor)
    log_lik, posteriors = kalman_updates(d.mixtures, sensor, measurements,
                                         gate_sq)
    # The gated columns, in order; the pairs' posteriors are row-major
    # over them as over the whole table.
    gated = np.isfinite(log_lik).any(0).nonzero()[0]
    log_lik, m = log_lik[:, gated], len(gated)
    # Each mixture's cost and posterior table position for map j: j = 0,
    # a miss, keeps the mixture; a pair outside the gate keeps it at an
    # infinite cost.  A last row serves the empty hypothesis, whose one
    # map costs 0.
    n = len(d.mixtures)
    cost = np.full((n + 1, m + 1), np.inf)
    cost[:n, 0], cost[n, 0] = -log_qd, 0.0
    cost[:n, 1:] = -(log_pd + log_lik - log_kappa)
    child = np.repeat(np.arange(n + 1)[:, None], m + 1, 1)
    child[n] = -1
    child[:n, 1:][np.isfinite(log_lik)] = n + np.arange(len(posteriors))
    mixtures = list(d.mixtures) + posteriors
    log_w = np.array(_log_weights(d.w.tolist()))
    quota = np.array(_per_hypothesis_quota(d.w.tolist(), cap))
    held = hyps >= 0
    # The hypotheses of each label count k, their costs stacked and ranked
    # in one call; the empty hypothesis ranks with those of one label, by
    # the last cost row in its column 0.
    size = np.maximum(held.sum(1), 1)
    blocks = []
    for k in sorted(set(size.tolist())):
        group = (size == k).nonzero()[0]
        cols = (~held[group]).argsort(1, kind="stable")[:, :k]
        hyp, j, score = _ranked(cost[hyps[group[:, None], cols]],
                                quota[group])
        theta = np.zeros((len(hyp), hyps.shape[1]), dtype=int)
        theta[np.arange(len(hyp))[:, None], cols[hyp]] = j
        blocks.append((group[hyp], theta, score))
    parent, theta, score = blocks[0]
    if len(blocks) > 1:
        parent, theta, score = (np.concatenate(part) for part in zip(*blocks))
        order = parent.argsort(kind="stable")
        parent, theta, score = parent[order], theta[order], score[order]
    # An absent label reads the last row's -1 at map 0.
    rows = child[hyps[parent], theta]
    keep, w = _finalize(rows, log_w[parent] - score, mixtures, cap)
    # Each kept child's weight on its (label, measurement) pairs, added
    # in child order.
    theta = theta[keep]
    e, k = theta.nonzero()
    labels = len(d.label_space)
    marginals = np.zeros((labels, len(measurements)))
    marginals[:, gated] = np.bincount(k * m + theta[e, k] - 1, w[e],
                                      labels * m).reshape(labels, m)
    return UpdateOutput(DglmbDensity(d.label_space, mixtures, rows[keep], w),
                        marginals)


def _ranked(cost, quota):
    """The ranked maps of the stacked problems ``cost[h, i, j]`` of k
    rows and m measurements, as ``ranked_stack`` returns them.  While
    k * m is at most ``ENUMERATE_LIMIT``, ``ranked_stack`` enumerates
    them in one call.  Above it, each problem goes on its own to
    ``ranked_assignments`` (Murty's algorithm, whose order of tied costs
    is its own) as its 2-D padded matrix."""
    k, width = cost.shape[1:]
    if k * (width - 1) <= ENUMERATE_LIMIT:
        return ranked_stack(cost, quota)
    miss = np.eye(k, dtype=bool)
    maps = [(h, t, s) for h, (c, q) in enumerate(zip(cost, quota.tolist()))
            for t, s in ranked_assignments(np.concatenate(
                (c[:, 1:], np.where(miss, c[:, :1], np.inf)), 1), q)]
    hyp, theta, score = zip(*maps) if maps else ((), (), ())
    return (np.array(hyp, dtype=int),
            np.array(theta, dtype=int).reshape(-1, k), np.array(score))


def _log_factors(sensor):
    # log p_D, log (1 - p_D) and log clutter density.
    p_d = sensor.detection_prob
    return (math.log(p_d) if p_d > 0 else -np.inf,
            math.log1p(-p_d) if p_d < 1.0 else -np.inf, sensor.log_clutter())


def one_track_update(existence, gm, measurements, sensor, cap, gate_sq):
    """``dglmb_update`` on the expansion of the one-track LMB density of
    ``existence`` and mixture ``gm``: ``(mixtures, index, theta, w)`` of
    the kept children, with ``index`` of one label column and ``theta`` a
    list.

    The absent hypothesis has one child.  The present one has its miss
    and its gated measurements, ranked by ``_ranked`` as ``dglmb_update``
    ranks a hypothesis of one label, and ``_finalize`` merges, caps and
    normalizes the children.  It is the path of the densities
    ``one_track_updates`` cannot finalize by a sort.
    """
    present, w = bernoulli_expansion(existence)
    log_pd, log_qd, log_kappa = _log_factors(sensor)
    cost, options = [-log_qd], [gm]
    for z in measurements:
        if mahalanobis_sq(z, gm, sensor) >= gate_sq:
            cost.append(np.inf)
            options.append(None)
            continue
        post, log_lik = gm_kalman_update_log(gm, z, sensor)
        cost.append(-(log_pd + log_lik - log_kappa))
        options.append(post)
    j, score = [], []
    if True in present:
        quota = _per_hypothesis_quota(w, cap)[present.index(True)]
        _, j, score = _ranked(np.array([[cost]]), np.array([quota]))
        j, score = j[:, 0].tolist(), score.tolist()
    mixtures = [options[i] for i in j]
    # (table position, theta, log weight) of each child.
    rows = []
    for there, log_w in zip(present, _log_weights(w)):
        rows += [(p, i, log_w - s) for p, (i, s) in enumerate(
            zip(j, score))] if there else [(-1, 0, log_w)]
    index = np.array([row[:1] for row in rows], dtype=int)
    keep, w = _finalize(index, [row[2] for row in rows], mixtures, cap)
    return mixtures, index[keep], [rows[e][1] for e in keep.tolist()], w


def one_track_updates(tracks, measurements, sensor, cap, gate_sq):
    """``one_track_update`` of many one-track LMB densities, in one batch.

    ``tracks`` holds an ``(existence, gm)`` pair per density.  Returns
    ``(seg, index, theta, w, tables)``: the kept children of all
    densities, density by density and each density's in
    ``one_track_update``'s order, as flat arrays of their density, table
    position, map and weight; and each density's mixture table.

    One ``kalman_updates`` pass gates and updates every (density,
    measurement) pair of the table ``measurements``; a density's gate is
    the finite entries of its row.  One ``ranked_stack`` call ranks the
    options of every present hypothesis.  Where the first mean
    entries of a density's present children are ``_spread`` and the cap
    keeps them all, no two can merge, and ``_finalize`` is a stable sort
    by weight, the absent child first on a tie, and ``_normalized``: one
    pass for all such densities.  So it is with
    nothing in the gate, the Bernoulli missed-detection posterior
    (existence r (1 - p_D) / (1 - r p_D) and ``gm`` unchanged: Ristic,
    Vo, Vo & Farina, "A tutorial on Bernoulli filters", IEEE TSP 2013).
    A density of more than ``ENUMERATE_LIMIT`` gated measurements, where
    Murty's algorithm orders tied costs, and one whose children might
    merge, such as the posteriors of two identical measurements, take
    ``one_track_update`` on the table rows of its gate.
    """
    log_pd, log_qd, log_kappa = _log_factors(sensor)
    log_lik, posteriors = kalman_updates([gm for _, gm in tracks], sensor,
                                         measurements, gate_sq)
    gated = np.isfinite(log_lik)
    size = np.count_nonzero(gated, 1)
    few = (size <= ENUMERATE_LIMIT).nonzero()[0]
    n, size = len(few), size[few]
    # Each density's costs of the miss and of its gated measurements, in
    # order, and the position of each hit's posterior in ``posteriors``,
    # which come row-major over the finite entries.
    cost = np.full((n, 1 + size.max(initial=0)), np.inf)
    cost[:, 0] = -log_qd
    at = np.full(cost.shape, -1)
    if posteriors:
        hit = np.full(gated.shape, -1)
        hit[gated] = np.arange(len(posteriors))
        h, col = gated[few].nonzero()
        k = np.arange(1, len(h) + 1) - (np.cumsum(size) - size)[h]
        row = few[h]
        cost[h, k] = -(log_pd + log_lik[row, col] - log_kappa)
        at[h, k] = hit[row, col]
    # Each density's absent and present log weights (NaN without a present
    # hypothesis) and the present one's quota.
    log_out, log_in = np.zeros(n), np.full(n, np.nan)
    quota = np.zeros(n, dtype=int)
    for d, e in enumerate(few.tolist()):
        present, w = bernoulli_expansion(tracks[e][0])
        log_w = _log_weights(w)
        log_out[d] = log_w[present.index(False)]
        if True in present:
            i = present.index(True)
            log_in[d], quota[d] = log_w[i], _per_hypothesis_quota(w, cap)[i]
    there = (~np.isnan(log_in)).nonzero()[0]
    hyp, j, score = _ranked(cost[there, None], quota[there])
    hyp, j = there[hyp], j[:, 0]
    first = np.searchsorted(hyp, np.arange(n + 1))
    option, bounds = at[hyp, j].tolist(), first.tolist()
    # Each density's mixture table, and whether its finite children are
    # apart, no more of them than the cap keeps.
    tables, apart = [None] * len(tracks), np.zeros(n, dtype=bool)
    for d, (e, lw_in, lw_out) in enumerate(zip(
            few.tolist(), log_in.tolist(), log_out.tolist())):
        table = tables[e] = [tracks[e][1] if i < 0 else posteriors[i]
                             for i in option[bounds[d]:bounds[d + 1]]]
        held = table if lw_in > -math.inf else []
        count = len(held) + (lw_out > -math.inf)
        apart[d] = count <= cap and _spread(sorted(
            gm.m[0, 0] for gm in held))
    # Their children, the present ones in rank order and then the absent
    # ones: the finite ones sorted by (density, -log w, present) and
    # normalized.
    seg = np.concatenate((hyp, np.arange(n)))
    pos = np.concatenate((np.arange(len(hyp)) - first[hyp], np.full(n, -1)))
    theta = np.concatenate((j, np.zeros(n, dtype=int)))
    log_w = np.concatenate((log_in[hyp] - score, log_out))
    keep = (np.isfinite(log_w) & apart[seg]).nonzero()[0]
    keep = keep[np.lexsort((pos[keep] >= 0, -log_w[keep], seg[keep]))]
    seg, pos, theta, log_w = seg[keep], pos[keep], theta[keep], log_w[keep]
    top = log_w[np.searchsorted(seg, seg)]
    total = segment_sums(np.exp(log_w - top), seg, n)
    seg, w = few[seg], np.exp(log_w - (top + np.log(total[seg])))
    # The others, one by one.
    rest = sorted(set(range(len(tracks))) - set(few[apart].tolist()))
    if not rest:
        return seg, pos, theta, w, tables
    blocks = [(seg, pos, theta, w)]
    for e in rest:
        tables[e], index, th, w = one_track_update(*tracks[e], [
            z for z, inside in zip(measurements, gated[e]) if inside],
            sensor, cap, gate_sq)
        blocks.append((np.full(len(w), e), index[:, 0],
                       np.array(th, dtype=int), w))
    seg, index, theta, w = (np.concatenate(part) for part in zip(*blocks))
    order = seg.argsort(kind="stable")
    return seg[order], index[order], theta[order], w[order], tables


def dglmb_prune(d, weight_threshold, cap):
    """Drop hypotheses at or below ``weight_threshold``, keep the ``cap``
    heaviest, renormalize.  The heaviest hypothesis always survives."""
    order = _ranking(d.hypotheses, d.w)
    kept = order[d.w[order] > weight_threshold]
    kept = (kept if len(kept) else order[:1])[: int(cap)]
    w = d.w[kept]
    return DglmbDensity(d.label_space, d.mixtures, d.hypotheses[kept],
                        w / sum(w.tolist()))

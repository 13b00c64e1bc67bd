"""Independent brute-force references used by the unit and acceptance tests.

Everything here is deliberately naive: plain enumeration over association
maps and label subsets, no caching, no log-domain tricks beyond what
numpy needs.  The filters must reproduce these numbers.
"""

import itertools

import numpy as np

from almbtrack import DglmbDensity, Label, LmbDensity, NumericalError
from almbtrack.gaussian import gm_kalman_update_log

from conftest import single


def components(gm):
    """The ``(weight, mean, covariance)`` of each component of ``gm``, the
    weight a Python float."""
    return list(zip(gm.w.tolist(), gm.m, gm.P))


def gm_mean(gm):
    """Weight-averaged mean of a mixture (weights need not be normalized)."""
    tot = gm.w.sum()
    if tot <= 0.0:
        raise NumericalError("mixture weight sum is not positive", {"total": tot})
    return (gm.w[:, None] * gm.m).sum(axis=0) / tot


def gm_covariance(gm):
    """Moment-matched covariance of a mixture seen as one Gaussian."""
    tot = gm.w.sum()
    mu = gm_mean(gm)
    P = np.zeros((gm.dim, gm.dim))
    for w, m, cov in components(gm):
        d = m - mu
        P += (w / tot) * (cov + np.outer(d, d))
    return 0.5 * (P + P.T)


def lmb_from_tracks(tracks):
    """The LMB density of ``{label: (existence, spatial)}``."""
    label_space = tuple(sorted(tracks))
    return LmbDensity(label_space, [tracks[lab][1] for lab in label_space],
                      [float(tracks[lab][0]) for lab in label_space])


def tracks_of(lmb):
    """``{label: (existence, spatial)}`` of an LMB density, in label
    order."""
    return {label: (r, gm) for label, gm, r in zip(lmb.label_space,
                                                   lmb.mixtures, lmb.r)}


def dglmb_from_rows(label_space, rows):
    """The delta-GLMB density of ``(labels, weight, spatial)`` rows, with
    ``spatial`` mapping each of ``labels`` to its mixture.  The table
    holds each mixture once, in order of first appearance by identity."""
    label_space = tuple(sorted(label_space))
    table = {}  # id(gm) -> (position, gm); the rows keep gm alive
    index = []
    for labels, _, spatial in rows:
        assert set(labels) == set(spatial) <= set(label_space)
        index.append([-1 if gm is None
                      else table.setdefault(id(gm), (len(table), gm))[0]
                      for gm in map(spatial.get, label_space)])
    return DglmbDensity(
        label_space, [gm for _, gm in table.values()],
        np.array(index, dtype=int).reshape(len(index), len(label_space)),
        np.array([weight for _, weight, _ in rows], dtype=float))


def rows_of(d):
    """The ``(labels, weight, spatial)`` row of each hypothesis of ``d``,
    in order, with labels sorted and ``spatial`` a dict."""
    out = []
    for row, weight in zip(d.hypotheses.tolist(), d.w.tolist()):
        spatial = {label: d.mixtures[i]
                   for label, i in zip(d.label_space, row) if i >= 0}
        out.append((tuple(spatial), weight, spatial))
    return out


def existence_from_dglmb(d, label):
    """Marginal existence probability of one label; zero if absent."""
    return float(sum(w for labels, w, _ in rows_of(d) if label in labels))


def mean_cardinality(rho):
    """Mean of a cardinality pmf."""
    rho = np.asarray(rho, dtype=float)
    return float(np.arange(rho.size) @ rho)


def association_maps(n, m):
    """All maps track-index -> 0 (miss) or measurement j in 1..m, with no
    measurement used twice."""
    for choice in itertools.product(range(m + 1), repeat=n):
        hits = [j for j in choice if j > 0]
        if len(hits) == len(set(hits)):
            yield choice


def brute_dglmb_update(d, measurements, sensor):
    """Exhaustive measurement update of a delta-GLMB density.

    Returns (weights, existence, marginals, mean_by_label) where weights
    is the sorted posterior hypothesis-weight list at (parent, map)
    granularity with identical (labels, spatial) children merged,
    existence maps label -> posterior existence, marginals is the
    (label, measurement) association-probability matrix over the sorted
    label space, and mean_by_label is the existence-weighted posterior
    spatial mean per label.
    """
    m = len(measurements)
    p_d = sensor.detection_prob
    log_kappa = sensor.log_clutter()
    entries = []
    for labels, weight, hyp_spatial in rows_of(d):
        n = len(labels)
        for theta in association_maps(n, m):
            log_w = np.log(weight) if weight > 0 else -np.inf
            spatial = {}
            ok = True
            for lab, j in zip(labels, theta):
                gm = hyp_spatial[lab]
                if j == 0:
                    if p_d >= 1.0:
                        ok = False
                        break
                    log_w += np.log1p(-p_d)
                    spatial[lab] = gm
                else:
                    post, log_lik = gm_kalman_update_log(
                        gm, measurements[j - 1], sensor)
                    log_w += np.log(p_d) + log_lik - log_kappa
                    spatial[lab] = post
            if ok and np.isfinite(log_w):
                entries.append((labels, theta, log_w, spatial))
    if not entries:
        raise AssertionError("no feasible association")
    top = max(e[2] for e in entries)
    weights_raw = np.array([np.exp(e[2] - top) for e in entries])
    weights_raw /= weights_raw.sum()

    # Merge children that are indistinguishable as densities: same label
    # set and, per label, same assignment (miss keeps the prior object,
    # a hit at j yields one posterior per (prior, j) pair).
    merged = {}
    for (labels, theta, _, spatial), w in zip(entries, weights_raw):
        key = (labels, theta)
        merged[key] = merged.get(key, 0.0) + w

    label_space = sorted(d.label_space)
    existence = {lab: 0.0 for lab in label_space}
    marginals = np.zeros((len(label_space), m))
    mean_acc = {lab: None for lab in label_space}
    for (labels, theta, _, spatial), w in zip(entries, weights_raw):
        for lab, j in zip(labels, theta):
            i = label_space.index(lab)
            existence[lab] += w
            if j > 0:
                marginals[i, j - 1] += w
            mu = spatial[lab]
            mu_mean = sum(w * m for w, m, _ in components(mu)) / \
                mu.total_weight()
            if mean_acc[lab] is None:
                mean_acc[lab] = w * mu_mean
            else:
                mean_acc[lab] = mean_acc[lab] + w * mu_mean
    mean_by_label = {}
    for lab in label_space:
        if existence[lab] > 0 and mean_acc[lab] is not None:
            mean_by_label[lab] = mean_acc[lab] / existence[lab]
    weights = np.sort(np.array(list(merged.values())))
    return weights, existence, marginals, mean_by_label


def switch_cases(config):
    """Every (state, kl, entropy) cell of the switching automaton with
    its expected successor state.

    Values probe strictly below, exactly at, and strictly above each
    threshold; switch-back is asymmetric (at-threshold returns to LMB,
    at-threshold does not leave it).
    """
    from almbtrack import Trigger

    lmb, d_kl, d_en, pinned = (Trigger.NONE, Trigger.KL, Trigger.ENTROPY,
                               Trigger.PINNED)
    kl_t, en_t = config.kl_threshold, config.entropy_threshold
    kl_vals = (0.5 * kl_t, kl_t, 2.0 * kl_t)
    en_vals = (0.5 * en_t, en_t, 2.0 * en_t)
    cases = []
    for kl in kl_vals:
        for en in en_vals:
            kl_above = kl > kl_t
            en_above = en > en_t
            if kl_above:
                cases.append((lmb, kl, en, d_kl))
            elif en_above:
                cases.append((lmb, kl, en, d_en))
            else:
                cases.append((lmb, kl, en, lmb))
            cases.append((d_kl, kl, en, d_kl if kl_above else lmb))
            cases.append((d_en, kl, en, d_en if en_above else lmb))
            cases.append((pinned, kl, en, pinned))
    return cases


def random_lmb_instance(rng, max_tracks=3, max_measurements=4, dim=2):
    """Small random LMB prior plus a measurement set near the tracks."""
    n = int(rng.integers(1, max_tracks + 1))
    m = int(rng.integers(0, max_measurements + 1))
    tracks = {}
    centers = []
    for i in range(n):
        lab = Label(int(rng.integers(0, 3)), i)
        mean = rng.normal(0.0, 8.0, dim)
        centers.append(mean)
        cov = np.diag(rng.uniform(1.0, 6.0, dim))
        tracks[lab] = (float(rng.uniform(0.1, 0.95)), single(mean, cov))
    measurements = []
    for j in range(m):
        base = centers[int(rng.integers(0, n))]
        measurements.append(base + rng.normal(0.0, 3.0, dim))
    return lmb_from_tracks(tracks), measurements


# Object-loop references of the array-backed delta-GLMB operations.  Each
# walks ``rows_of(density)`` one hypothesis at a time and adds in
# hypothesis order, as the operations did before their densities became
# index arrays; the array versions must match them bit for bit.

def ref_mixture_average(parts, total):
    """(weight, mean, covariance) of every component of
    ``sum(w / total * gm / gm.total_weight())``."""
    return [(cw * (w / (total * gm.total_weight())), m, P)
            for w, gm in parts for cw, m, P in components(gm)]


def ref_dglmb_to_lmb(d):
    """label -> (existence, components) of the LMB collapse."""
    hyps = rows_of(d)
    tot = float(np.array([weight for _, weight, _ in hyps]).sum())
    existence = {lab: 0.0 for lab in d.label_space}
    parts = {lab: [] for lab in d.label_space}
    for labels, weight, spatial in hyps:
        w = weight / tot if tot > 0.0 else weight
        for lab in labels:
            existence[lab] += w
            parts[lab].append((w, spatial[lab]))
    return {lab: (min(r, 1.0), ref_mixture_average(parts[lab], r))
            for lab, r in existence.items() if r > 0.0}


def ref_dglmb_cardinality(d):
    rho = np.zeros(len(d.label_space) + 1)
    for labels, weight, _ in rows_of(d):
        rho[len(labels)] += weight
    return rho


def ref_kl_divergence(p, q):
    """``kl_divergence`` of two pmfs of one length, one np.sum over the
    cells where p is positive."""
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        return np.inf
    return max(0.0, float(np.sum(p[mask] * np.log(p[mask] / q[mask]))))


def ref_association_entropy(marginals):
    """``association_entropy``: one np.sum over the positive entries."""
    r = np.asarray(marginals, dtype=float)
    return float(-np.sum(r[r > 0.0] * np.log(r[r > 0.0])) + 0.0)


def ref_dglmb_prune(hyps, weight_threshold, cap):
    """``dglmb_prune`` of a list of (labels, weight, spatial)."""
    hyps = sorted(hyps, key=lambda h: (-h[1], h[0]))
    kept = [h for h in hyps if h[1] > weight_threshold] or hyps[:1]
    kept = kept[: int(cap)]
    tot = sum(h[1] for h in kept)
    return [(labels, w / tot, spatial) for labels, w, spatial in kept]


def ref_cross_product(a, b, weight_threshold, cap):
    hyps = []
    for labels_a, w_a, spatial_a in rows_of(a):
        for labels_b, w_b, spatial_b in rows_of(b):
            spatial = dict(spatial_a)
            spatial.update(spatial_b)
            hyps.append((tuple(sorted(labels_a + labels_b)), w_a * w_b,
                         spatial))
    return ref_dglmb_prune(hyps, weight_threshold, cap)


def ref_ranking(rows, values):
    """``dglmb._ranking`` over list rows: positions sorted stably by
    descending ``values``, ties broken by label set, as lists of the
    present columns compare."""
    keys = [-v for v in values]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    if any(keys[a] == keys[b] for a, b in zip(order, order[1:])):
        keys = [(key, [k for k, i in enumerate(row) if i >= 0])
                for key, row in zip(keys, rows)]
        order.sort(key=keys.__getitem__)
    return order


def ref_dedup(entries):
    """First occurrences of (labels, mixture ids), log weights merged; the
    entries keep every mixture alive, so no id is reused."""
    merged, order = {}, []
    for labels, log_w, spatial in entries:
        key = (labels, tuple(id(spatial[lab]) for lab in labels))
        if key in merged:
            prev = merged[key]
            merged[key] = (labels, np.logaddexp(prev[1], log_w), spatial)
        else:
            merged[key] = (labels, log_w, spatial)
            order.append(key)
    return [merged[key] for key in order]


def ref_drop_labels(d, doomed):
    hyps = []
    for labels, weight, spatial in rows_of(d):
        labels = tuple(lab for lab in labels if lab not in doomed)
        hyps.append((labels, np.log(max(weight, 1e-300)),
                     {lab: spatial[lab] for lab in labels}))
    merged = ref_dedup(hyps)
    total = sum(np.exp(lw) for _, lw, _ in merged)
    return [(labels, float(np.exp(lw) / total), spatial)
            for labels, lw, spatial in merged]


def ref_marginalize(d, member_labels, reduce):
    """Restriction to ``member_labels``; a label whose contributors
    disagree gets ``reduce`` of their (weight, mixture) parts and summed
    weight."""
    buckets, order = {}, []
    for labels, weight, spatial in rows_of(d):
        key = tuple(lab for lab in labels if lab in member_labels)
        if key not in buckets:
            buckets[key] = [0.0, {lab: [] for lab in key}]
            order.append(key)
        buckets[key][0] += weight
        for lab in key:
            buckets[key][1][lab].append((weight, spatial[lab]))
    hyps = []
    for key in order:
        weight, parts = buckets[key]
        spatial = {}
        for lab in key:
            if len({id(gm) for _, gm in parts[lab]}) == 1:
                spatial[lab] = parts[lab][0][1]
            else:
                spatial[lab] = reduce(parts[lab], weight)
        hyps.append((key, weight, spatial))
    total = sum(h[1] for h in hyps)
    return [(labels, w / total, spatial) for labels, w, spatial in hyps]


def signature(labels, spatial):
    """Component weights, means and covariances of every label's mixture,
    concatenated in label then component order."""
    parts = [np.concatenate(([w], m, P.ravel()))
             for lab in labels for w, m, P in components(spatial[lab])]
    return np.concatenate(parts) if parts else np.zeros(0)


def ref_consolidate(entries, atol):
    """Greedy merge of (labels, log_w, spatial, key) entries, heaviest
    first, into the first earlier representative with the same label set
    and signature size whose signature is within ``atol`` elementwise."""
    kept = []
    for labels, log_w, spatial, key in sorted(
            entries, key=lambda e: (-e[1], e[0])):
        sig = signature(labels, spatial)
        for i, (k_labels, k_log_w, k_sig, k_key) in enumerate(kept):
            if k_labels == labels and k_sig.size == sig.size and (
                    sig.size == 0
                    or np.abs(k_sig - sig).max() <= atol):
                kept[i] = (k_labels, np.logaddexp(k_log_w, log_w), k_sig,
                           k_key)
                break
        else:
            kept.append((labels, log_w, sig, key))
    return [(key, log_w) for _, log_w, _, key in kept]


# Component-loop references of the array-backed Gaussian-mixture
# operations: the arithmetic of one component at a time, in component
# order, that the stacked versions must reproduce bit for bit.  Each
# returns a list of (weight, mean, covariance).

_LOG_2PI = float(np.log(2.0 * np.pi))


def ref_terms(mean, cov, sensor, Z=()):
    """Innovation terms of one component by the plain algebra, with
    ``d2[j]`` the squared whitened residual of ``Z[j]``."""
    H = sensor.H
    S = H @ cov @ H.T + sensor.R
    S = 0.5 * (S + S.T)
    L = np.linalg.cholesky(S)
    K = np.linalg.solve(S, H @ cov).T
    post = (np.eye(len(mean)) - K @ H) @ cov
    d2 = [float(y @ y) for y in (np.linalg.solve(L, z - H @ mean)
                                 for z in Z)]
    return {"z_pred": H @ mean, "S": S, "L": L, "K": K,
            "cov": 0.5 * (post + post.T),
            "logdet": 2.0 * np.sum(np.log(np.diag(L))), "d2": d2}


def ref_gm_predict(gm, model):
    out = []
    for w, m, P in components(gm):
        cov = model.F @ P @ model.F.T + model.Q
        out.append((w, model.F @ m, 0.5 * (cov + cov.T)))
    return out


def ref_kalman_update(gm, z, sensor):
    """(posterior components, log likelihood) of ``gm_kalman_update_log``."""
    z = np.asarray(z, dtype=float)
    log_w, updated = np.empty(len(gm.w)), []
    for i, (w, m, P) in enumerate(components(gm)):
        t = ref_terms(m, P, sensor, [z])
        log_w[i] = np.log(max(w, 1e-300)) + -0.5 * (
            z.size * _LOG_2PI + t["logdet"] + t["d2"][0])
        updated.append((m + t["K"] @ (z - t["z_pred"]), t["cov"]))
    top = float(np.max(log_w))
    log_lik = top + float(np.log(np.sum(np.exp(log_w - top))))
    w = np.exp(log_w - log_lik)
    return [(float(w[i]), m, P) for i, (m, P) in enumerate(updated)], log_lik


def ref_gm_reduce(gm, prune_threshold, merge_threshold, max_components):
    """``gm_reduce`` by the merge path, a lone component included."""
    tot = sum(gm.w.tolist())
    pool = [(w / tot, m, P) for w, m, P in components(gm)]
    if not any(c[0] >= prune_threshold for c in pool):
        best = max(pool, key=lambda c: c[0])
        return [(1.0, best[1], best[2])]
    pool = [c for c in pool if c[0] >= prune_threshold]
    merged = []
    while pool:
        head = pool[int(np.argmax([c[0] for c in pool]))]
        P_inv = np.linalg.inv(head[2])
        near = [float((c[1] - head[1]) @ P_inv @ (c[1] - head[1]))
                <= merge_threshold for c in pool]
        group = [c for c, n in zip(pool, near) if n]
        w = sum(c[0] for c in group)
        mean = sum(c[0] * c[1] for c in group) / w
        P = np.zeros_like(head[2])
        for c in group:
            d = c[1] - mean
            P += c[0] * (c[2] + np.outer(d, d))
        P = P / w
        merged.append((w, mean, 0.5 * (P + P.T)))
        pool = [c for c, n in zip(pool, near) if not n]
    merged.sort(key=lambda c: -c[0])
    merged = merged[: int(max_components)]
    tot = sum(c[0] for c in merged)
    return [(w / tot, m, P) for w, m, P in merged]


def ref_gate_mask(Z, gm, sensor, gate_sq):
    """Components in order, until every measurement is in a gate."""
    mask = np.zeros(len(Z), dtype=bool)
    for _, m, P in components(gm):
        if mask.all():
            break
        mask |= np.array(ref_terms(m, P, sensor, Z)["d2"]) < gate_sq
    return mask


def same_mixture(a, b):
    """Whether ``a`` is ``b`` or holds the same arrays, by ``==``."""
    return a is b or all(np.array_equal(x, y) for x, y in (
        (a.w, b.w), (a.m, b.m), (a.P, b.P)))


def same_components(gm, expected):
    """Whether ``gm`` holds the (weight, mean, covariance) list
    ``expected``, by ``==``."""
    return len(gm.w) == len(expected) and all(
        w == ew and np.array_equal(m, em) and np.array_equal(P, eP)
        for (w, m, P), (ew, em, eP) in zip(components(gm), expected))

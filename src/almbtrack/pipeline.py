"""Group-structured multi-object tracking pipeline.

Each scan processes statistically independent density groups through a
fixed stage order: birth injection, prediction, gating, merging of
groups that compete for measurements, measurement update with optional
representation switching, pruning, splitting of groups whose tracks no
longer interact, and track extraction.  A group holds nothing of a
scan: the gate's lists of gated measurements serve the merge alone.

Every group runs the same update: the exact delta-GLMB update, then the
switching automaton, which keeps the posterior or approximates it in LMB
form.  The update stage is one call per scan (``update_group``), and
each update gates the scan's measurement table in its own Kalman pass.
Its LMB groups of one track take the update in closed form, to the bit,
all in one batch: one Kalman pass, one stacked ranking of their maps as
every update ranks them, and the criteria as arrays, with the automaton
run group by group.  A group whose entries might merge, or that gates
more than 16 measurements, where Murty's algorithm ranks, takes the
one-group form with the generic finalization (``dglmb.one_track_update``).
The three filters are settings of this one path (``MultiObjectTracker``):
``"almb"`` switches per the criteria, ``"lmb"`` sets both thresholds to
infinity so no group ever switches, and ``"dglmb"`` starts every birth
pinned in delta-GLMB form.  A birth is masked where a live track covers
its site, all (birth, track) pairs in one stacked test.  A stage's
Gaussian work is one list-form call per density or group (prediction,
gate, split test), and one per scan for the birth cover test.
"""

from dataclasses import dataclass, replace

import numpy as np

from .densities import (DglmbDensity, Label, LmbDensity, dglmb_to_lmb,
                        lmb_to_dglmb, segment_sums)
from .dglmb import (dglmb_drop_labels, dglmb_predict, dglmb_prune,
                    dglmb_update, one_track_updates, row_groups)
from .errors import ConfigurationError, UsageError, check_numbers
from .gaussian import (gate_mask, gm_reduce, innovation_terms, map_point,
                       mixture_average, predicted_measurement)
from .lmb import lmb_predict, lmb_update
from .switching import (Mode, Trigger, association_entropies,
                        association_entropy, cardinality_kl, decide_switch,
                        kl_criterion)

# The policies of ``MultiObjectTracker``; CSV rows follow this order.
FILTER_NAMES = ("lmb", "dglmb", "almb")


# Truncation settings of the group recursion, the standard machinery of
# Reuter, Vo, Vo & Dietmayer, "The labeled multi-Bernoulli filter" (IEEE
# TSP 2014).  Only the switching thresholds are ``PipelineConfig`` settings.
GATE_SQ = 9.2103     # squared-Mahalanobis measurement gate
CAP = 50             # hypothesis cap of delta-GLMB densities and expansions
LMB_PRUNE = 0.01     # a label at or below this existence is dropped
DGLMB_PRUNE = 1e-5   # a hypothesis at or below this weight is dropped
EXTRACTION = 0.5     # a track above this existence is reported
GM_PRUNE = 1e-5      # mixture reduction drops components below this weight,
GM_MERGE = 4.0       # merges those within this squared-Mahalanobis distance
GM_CAP = 20          # and keeps at most this many per track


@dataclass(frozen=True)
class PipelineConfig:
    """Tracker settings, the ``tracker`` block of a scenario file: the
    switching thresholds on the KL criterion and on the association
    entropy.  Each must be a number >= 0 (``inf`` turns its criterion
    off); anything else is a ``ConfigurationError``.
    """

    kl_threshold: float = 1e-4
    entropy_threshold: float = 0.5

    def __post_init__(self):
        check_numbers("tracker", vars(self), [
            (("kl_threshold", "entropy_threshold"), ">= 0",
             lambda v: v >= 0.0)])


@dataclass(eq=False)
class DensityGroup:
    """Independent density group plus its representation state.

    ``criterion_value`` holds the group's outstanding value of the
    criterion that keeps it in delta-GLMB form (zero in LMB form); a
    merged group inherits the state of the member with the largest
    outstanding value.
    """

    density: object
    state: Trigger = Trigger.NONE
    criterion_value: float = 0.0

    def lmb_view(self):
        if isinstance(self.density, LmbDensity):
            return self.density
        return dglmb_to_lmb(self.density)


def _within(za, Sa, zb, Sb, limit):
    # Whether stacked (z_pred, S) pairs lie within squared Mahalanobis
    # distance ``limit`` under their mean innovation covariance.  One
    # right-hand side per slice gives each pair the bits of its own solve.
    d = (za - zb)[..., None]
    x = np.linalg.solve(0.5 * (Sa + Sb), d)
    return np.matmul(d.swapaxes(-1, -2), x)[..., 0, 0] < limit


def _components(n, pairs):
    """Connected components of ``range(n)`` under the edges ``pairs``, as
    ascending index lists in the order of their smallest members."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            # The smaller root wins, so every root is its smallest member.
            parent[max(ra, rb)] = min(ra, rb)
    components = {}
    for i in range(n):
        components.setdefault(find(i), []).append(i)
    return [components[root] for root in sorted(components)]


def inject_birth(groups, births, step_index, birth_state, sensor):
    """Append one single-track group per ``(existence, mixture)`` birth
    site, labeled by scan.

    Each new group starts in the ``Trigger`` ``birth_state``, in
    delta-GLMB form unless its mode is LMB.

    An entry is skipped while any surviving track covers its site: the
    live track already carries the appearance hypothesis there (one
    detection re-inflates even a near-dead existence), and re-seeding
    under it spawns a same-site duplicate label whose spatial density
    ends up identical to the original's, so no later measurement can
    separate the two and the group carries the frozen label ambiguity
    forever.  Coverage is the squared Mahalanobis distance between the
    predicted measurements under the mean of the innovation covariances,
    tested against ``GATE_SQ`` for every (birth, track) pair at once.
    """
    covering = [gm for group in groups for gm in group.lmb_view().mixtures]
    covered = np.zeros(len(births), dtype=bool)
    if covering and births:
        z, S = predicted_measurement(covering, sensor)
        zb, Sb = predicted_measurement([gm for _, gm in births], sensor)
        covered = _within(z, S, zb[:, None], Sb[:, None], GATE_SQ).any(1)
    out = list(groups)
    for i, (existence, gm) in enumerate(births):
        if covered[i]:
            continue
        lmb = LmbDensity((Label(step_index, i),), [gm], [existence])
        out.append(DensityGroup(
            lmb if birth_state.mode is Mode.LMB
            else lmb_to_dglmb(lmb, CAP),
            birth_state))
    return out


def predict_group(group, motion):
    if isinstance(group.density, LmbDensity):
        density = lmb_predict(group.density, motion)
    else:
        density = dglmb_predict(group.density, motion, cap=CAP)
    return replace(group, density=density)


def gate_measurements(groups, measurements, sensor):
    """The positions in ``measurements`` inside any track's ``GATE_SQ``
    gate, one ascending list per group, for ``merge_groups``; the others
    are ignored downstream (treated as clutter).
    """
    # The mixture tables first: the collapses of delta-GLMB densities
    # concatenate the terms of their parts.
    if len(measurements):
        innovation_terms([gm for group in groups
                          for gm in group.density.mixtures], sensor,
                         measurements)
    return [np.flatnonzero(gate_mask(measurements, group.lmb_view().mixtures,
                                     sensor, GATE_SQ)).tolist()
            for group in groups]


def _union_lmb(members):
    space, mixtures, r = zip(*sorted(
        (column for m in members for column in zip(
            m.density.label_space, m.density.mixtures, m.density.r)),
        key=lambda column: column[0]))
    if len(set(space)) < len(space):
        raise UsageError("label spaces of merged groups overlap")
    return LmbDensity(space, list(mixtures), list(r))


def _lmb_columns(lmb, columns):
    """The LMB density of the labels at positions ``columns`` of ``lmb``."""
    return LmbDensity(tuple(lmb.label_space[k] for k in columns),
                      [lmb.mixtures[k] for k in columns],
                      [lmb.r[k] for k in columns])


def _cross_product(a, b):
    if set(a.label_space) & set(b.label_space):
        raise UsageError("label spaces of merged groups overlap")
    space = tuple(sorted(a.label_space + b.label_space))
    # Row (i, j) joins a's row i and b's row j; b's table follows a's.
    index = np.full((len(a.w), len(b.w), len(space)), -1)
    index[:, :, [space.index(lab) for lab in a.label_space]] = \
        a.hypotheses[:, None]
    index[:, :, [space.index(lab) for lab in b.label_space]] = np.where(
        b.hypotheses >= 0, b.hypotheses + len(a.mixtures), -1)
    merged = DglmbDensity(space, a.mixtures + b.mixtures,
                          index.reshape(-1, len(space)),
                          (a.w[:, None] * b.w).ravel())
    return dglmb_prune(merged, DGLMB_PRUNE, CAP)


def merge_groups(groups, gates):
    """Merge groups whose ``gates`` share a measurement (transitive closure).

    LMB groups union their track sets; if any member is in delta-GLMB
    form the merged group is delta-GLMB, expanding LMB members with at
    most ``CAP`` hypotheses and forming the hypothesis cross-product
    (pruned at ``DGLMB_PRUNE`` and capped at ``CAP``).
    """
    owner, shared = {}, []
    for i, gate in enumerate(gates):
        for j in gate:
            if owner.setdefault(j, i) != i:
                shared.append((owner[j], i))
    out = []
    for cluster in _components(len(groups), shared):
        members = [groups[i] for i in cluster]
        if len(members) == 1:
            out.append(members[0])
            continue
        dglmb_members = [m for m in members
                         if isinstance(m.density, DglmbDensity)]
        if not dglmb_members:
            out.append(DensityGroup(_union_lmb(members)))
            continue
        lead = max(dglmb_members, key=lambda m: m.criterion_value)
        merged = None
        for m in members:
            density = m.density
            if isinstance(density, LmbDensity):
                density = lmb_to_dglmb(density, CAP)
            merged = density if merged is None else \
                _cross_product(merged, density)
        out.append(DensityGroup(merged, lead.state, lead.criterion_value))
    return out


def _reduce_lmb(lmb):
    return LmbDensity(lmb.label_space, [
        gm_reduce(gm, GM_PRUNE, GM_MERGE, GM_CAP) for gm in lmb.mixtures],
        lmb.r)


def update_group(groups, measurements, sensor, config):
    """Measurement-update the groups of a scan and run the switching
    automaton on each; ``measurements`` is the scan's table.

    Returns one ``(group, kl, entropy)`` per group, in order.  The
    criteria are evaluated on the exact (un-pruned) update output.  A
    group the automaton leaves in delta-GLMB form keeps that output, with
    the value of the criterion that holds it there (0.0 when pinned); any
    other group takes the mixture-reduced LMB approximation.  Every
    update reads the whole table, by position, and gates it in its own
    Kalman pass: ``dglmb_update`` and ``lmb_update`` rank only the
    measurements the group's mixtures gate.  The LMB groups of one track
    take the same update in closed form, all in one batch
    (``_update_one_track``), each over its own gate.
    """
    out, one_track = [None] * len(groups), []
    for e, group in enumerate(groups):
        if isinstance(group.density, LmbDensity) and \
                len(group.density.label_space) == 1:
            one_track.append(e)
            continue
        update = dglmb_update if isinstance(group.density, DglmbDensity) \
            else lmb_update
        full = update(group.density, measurements, sensor, cap=CAP,
                      gate_sq=GATE_SQ)
        kl = kl_criterion(full.posterior)
        entropy = association_entropy(full.assoc_marginals)
        state = decide_switch(group.state, kl, entropy, config)
        out[e] = _settle(group, state, kl, entropy, full.posterior
                         if state.mode is Mode.DGLMB
                         else _reduce_lmb(dglmb_to_lmb(full.posterior)))
    for e, result in zip(one_track, _update_one_track(
            [groups[e] for e in one_track], measurements, sensor, config)):
        out[e] = result
    return out


def _settle(group, state, kl, entropy, density):
    value = {Trigger.KL: kl, Trigger.ENTROPY: entropy}.get(state, 0.0)
    return replace(group, density=density, state=state,
                   criterion_value=float(value)), kl, entropy


def _update_one_track(groups, measurements, sensor, config):
    """``update_group`` of one-track LMB groups, as one batch.  Their
    entries come from ``one_track_updates``.  The cardinality pmfs,
    association marginals, LMB collapse and both criteria are read off
    them for all groups at once, with the arithmetic of ``dglmb_update``,
    ``dglmb_cardinality``, ``dglmb_to_lmb`` and the criteria; the
    automaton runs group by group, and only a group that switches gets a
    density.  A lone one-component part, such as the prior on a miss, is
    kept at weight 1 without an average or reduction."""
    n = len(groups)
    if not n:
        return []
    seg, index, theta, w, tables = one_track_updates(
        [(g.density.r[0], g.density.mixtures[0]) for g in groups],
        measurements, sensor, CAP, GATE_SQ)
    # Sums in row order: np.sum for the totals, one term at a time
    # otherwise.
    present = index >= 0
    share = w / segment_sums(w, seg, n)[seg]
    rho = np.zeros((n, 2))
    np.add.at(rho, (seg, present.astype(int)), w)
    r = np.bincount(seg[present], share[present], n)
    existence = np.minimum(r, 1.0)
    kl = cardinality_kl(rho, np.stack([1.0 - existence, existence], 1))
    # Each group's marginals are its hits' weights, in measurement order.
    hit = (theta > 0).nonzero()[0]
    hit = hit[np.lexsort((theta[hit], seg[hit]))]
    entropy = association_entropies(w[hit], seg[hit], n)
    bounds = np.searchsorted(seg, np.arange(n + 1)).tolist()
    out = []
    for e, (group, kl_e, entropy_e, r_e, existence_e) in enumerate(zip(
            groups, kl.tolist(), entropy.tolist(), r.tolist(),
            existence.tolist())):
        state = decide_switch(group.state, kl_e, entropy_e, config)
        rows = slice(bounds[e], bounds[e + 1])
        lmb, table = group.density, tables[e]
        if state.mode is Mode.DGLMB:
            density = DglmbDensity(lmb.label_space, table,
                                   index[rows, None], w[rows])
        elif r_e <= 0.0:
            density = LmbDensity((), [], [])
        else:
            parts = [(s, table[i]) for i, s in zip(
                index[rows].tolist(), share[rows].tolist()) if i >= 0]
            if len(parts) == 1 and len(parts[0][1].w) == 1:
                # Averaging one one-component mixture and reducing the
                # result leave it at weight 1, to the bit: x / x is 1, and
                # symmetrizing a symmetric covariance again is exact.
                gm = parts[0][1]
                density = LmbDensity(lmb.label_space, [
                    gm if gm.w.tolist() == [1.0] else gm.normalized()],
                    [existence_e])
            else:
                density = _reduce_lmb(LmbDensity(
                    lmb.label_space, [mixture_average(parts, r_e)],
                    [existence_e]))
        out.append(_settle(group, state, kl_e, entropy_e, density))
    return out


def prune_group(group):
    """Prune one group; returns None when nothing survives.

    LMB groups drop tracks with existence at or below ``LMB_PRUNE``.
    delta-GLMB groups drop light hypotheses, cap, and additionally drop
    labels whose marginal existence falls to ``LMB_PRUNE`` or below.
    """
    if isinstance(group.density, LmbDensity):
        kept = [k for k, r in enumerate(group.density.r) if r > LMB_PRUNE]
        if not kept:
            return None
        return replace(group, density=_lmb_columns(group.density, kept))
    density = dglmb_prune(group.density, DGLMB_PRUNE, CAP)
    view = dglmb_to_lmb(density)
    doomed = set(density.label_space) - {
        label for label, r in zip(view.label_space, view.r) if r > LMB_PRUNE}
    if doomed:
        density = dglmb_drop_labels(density, doomed)
    if not density.label_space:
        return None
    return replace(group, density=density)


def split_group(group, sensor):
    """Split a group into independent groups of interacting tracks.

    Tracks interact when their predicted measurements are within
    ``2 sqrt(GATE_SQ)`` of each other under the mean of their innovation
    covariances; connected components of that relation become the new
    groups.  delta-GLMB groups are marginalized per component: the child
    hypothesis weights sum the parent weights over hypotheses whose
    restriction matches, which preserves every label's existence.
    """
    view = group.lmb_view()
    labels = view.label_space
    if len(labels) <= 1:
        return [group]
    z, S = predicted_measurement(view.mixtures, sensor)
    i, k = np.triu_indices(len(labels), 1)
    near = _within(z[i], S[i], z[k], S[k], 4.0 * GATE_SQ)
    components = _components(len(labels), zip(i[near], k[near]))
    if len(components) == 1:
        return [group]
    out = []
    for component in components:
        if isinstance(group.density, LmbDensity):  # its own view
            density = _lmb_columns(group.density, component)
        else:
            density = _marginalize(group.density,
                                   {labels[i] for i in component})
        out.append(DensityGroup(density, group.state, group.criterion_value))
    return out


def _marginalize(density, member_labels):
    """Restrict a delta-GLMB density to a label subset.

    Child hypothesis weights sum parent weights by restricted label set;
    a label's spatial density becomes the weight-average of its parent
    spatials when contributors disagree.
    """
    columns = [k for k, lab in enumerate(density.label_space)
               if lab in member_labels]
    sub = density.hypotheses[:, columns]
    # Child c collects the rows whose restriction has its label set.
    rows, first = row_groups(sub >= 0)
    weight = np.zeros(len(first))
    np.add.at(weight, rows, density.w)
    mixtures = list(density.mixtures)
    index = np.full((len(first), len(columns)), -1)
    for c, k in zip(*np.nonzero(sub[first] >= 0)):
        used = sub[rows == c, k]
        if (used == used[0]).all():
            index[c, k] = used[0]
        else:
            index[c, k] = len(mixtures)
            mixtures.append(gm_reduce(mixture_average(
                zip(density.w[rows == c].tolist(),
                    [density.mixtures[i] for i in used]), weight[c]),
                GM_PRUNE, GM_MERGE, GM_CAP))
    return DglmbDensity(
        tuple(sorted(member_labels)), mixtures, index,
        weight / sum(weight.tolist()))


def extract_tracks(groups, threshold):
    """Report (label, MAP state) for tracks with existence above the
    threshold (strict), sorted by label."""
    views = [group.lmb_view() for group in groups]
    return sorted(((label, map_point(gm)) for view in views
                   for label, gm, r in zip(view.label_space, view.mixtures,
                                           view.r)
                   if r > threshold), key=lambda t: t[0])


def pipeline_step(groups, measurements, step_index, motion, sensor,
                  births, config, birth_state=Trigger.NONE):
    """Run one full scan; returns ``(groups, extracted, diagnostics)``.

    ``measurements`` holds one row of ``sensor.meas_dim`` finite numbers
    per measurement, or none; anything else raises ``ConfigurationError``
    naming the scan before any stage runs.  ``births`` is a list of
    ``(existence, mixture)`` pairs; new births start in ``birth_state``.
    """
    try:  # one float table, which the gate and the update read whole
        measurements = np.asarray(measurements, dtype=float)
    except (TypeError, ValueError):  # ragged rows, or not numbers
        measurements = None
    if measurements is None or measurements.shape != (0,) and (
            measurements.shape[1:] != (sensor.meas_dim,)
            or not np.isfinite(measurements).all()):
        raise ConfigurationError("scan %d: a measurement must be %d finite "
                                 "numbers" % (step_index, sensor.meas_dim))
    groups = inject_birth(groups, births, step_index, birth_state, sensor)
    groups = [predict_group(g, motion) for g in groups]
    gates = gate_measurements(groups, measurements, sensor)
    groups = merge_groups(groups, gates)
    results = update_group(groups, measurements, sensor, config)
    updated, kls, entropies = ([r[i] for r in results] for i in range(3))
    groups = [g for g in (prune_group(g) for g in updated) if g is not None]
    split = [part for group in groups for part in split_group(group, sensor)]
    extracted = extract_tracks(split, EXTRACTION)
    n_dglmb = sum(1 for g in split if isinstance(g.density, DglmbDensity))
    diagnostics = {
        "kl": kls,
        "entropy": entropies,
        "max_kl": max([k for k in kls if np.isfinite(k)], default=0.0),
        "max_entropy": max(entropies, default=0.0),
        "n_groups": len(split),
        "n_lmb_groups": len(split) - n_dglmb,
        "n_dglmb_groups": n_dglmb,
        "n_measurements": len(measurements),
    }
    return split, extracted, diagnostics


class MultiObjectTracker:
    """Stateful wrapper running the pipeline scan by scan.

    ``policy`` picks the filter.  ``"almb"`` runs ``config`` as given;
    ``"lmb"`` is ALMB whose switching criteria never fire (both
    thresholds infinite); ``"dglmb"`` is ALMB whose births start pinned
    in delta-GLMB form.  ``births`` is a list of ``(existence, mixture)``
    pairs.  An existence outside [0, 1], and a sensor or birth mixture of
    another state dimension than the motion model, are a
    ``ConfigurationError``.
    """

    def __init__(self, motion, sensor, births, config=None,
                 policy="almb"):
        if policy not in FILTER_NAMES:
            raise UsageError("unknown policy %r (known: %s)"
                             % (policy, ", ".join(FILTER_NAMES)))
        for i, (existence, _) in enumerate(births):
            check_numbers("births[%d]" % i, {"existence": existence}, [
                (("existence",), "in [0, 1]", lambda v: 0.0 <= v <= 1.0)])
        for what, size in [("sensor H columns", sensor.H.shape[1])] + [
                ("births[%d] mixture dimension" % i, gm.dim)
                for i, (_, gm) in enumerate(births)]:
            if size != motion.F.shape[0]:
                raise ConfigurationError("%s %d, motion state dimension %d"
                                         % (what, size, motion.F.shape[0]))
        config = config or PipelineConfig()
        if policy == "lmb":
            config = replace(config, kl_threshold=np.inf,
                             entropy_threshold=np.inf)
        self.motion = motion
        self.sensor = sensor
        self.births = births
        self.config = config
        self.policy = policy
        self.birth_state = (Trigger.PINNED if policy == "dglmb"
                            else Trigger.NONE)
        self.groups = []
        self.step_index = 0

    def step(self, measurements):
        self.step_index += 1
        self.groups, extracted, diagnostics = pipeline_step(
            self.groups, measurements, self.step_index, self.motion,
            self.sensor, self.births, self.config, self.birth_state)
        return extracted, diagnostics

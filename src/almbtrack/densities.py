"""Labeled multi-object densities: LMB and delta-GLMB forms.

An LMB density is a set of statistically independent Bernoulli tracks,
one per label.  A delta-GLMB density is a weighted list of hypotheses;
each hypothesis fixes a label set and one spatial density per label in
that set.  The conversions between the two forms and the cardinality
distributions they induce live here.
"""

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .gaussian import GaussianMixture

# Existence probabilities of exactly one are clamped so hypothesis
# weights (products of r and 1 - r) stay finite.
_R_CLAMP = 1.0 - 1e-9


@dataclass(frozen=True, order=True)
class Label:
    """Track label: birth scan index plus a per-scan counter."""

    birth_step: int
    birth_index: int

    def __repr__(self):
        return "L(%d,%d)" % (self.birth_step, self.birth_index)


@dataclass(eq=False)
class Track:
    """Bernoulli track: existence probability and spatial mixture."""

    label: Label
    existence: float
    spatial: GaussianMixture

    def __post_init__(self):
        self.existence = float(self.existence)
        if not 0.0 <= self.existence <= 1.0:
            raise UsageError("existence probability outside [0, 1]")


@dataclass(eq=False)
class LmbDensity:
    """LMB density: tracks keyed by label."""

    tracks: dict = field(default_factory=dict)

    def __post_init__(self):
        for label, track in self.tracks.items():
            if track.label != label:
                raise UsageError("track keyed under a different label")

    def labels(self):
        return sorted(self.tracks)


@dataclass(eq=False)
class Hypothesis:
    """One delta-GLMB hypothesis: label set, weight, per-label spatials."""

    labels: tuple
    weight: float
    spatial: dict

    def __post_init__(self):
        self.labels = tuple(sorted(self.labels))
        self.weight = float(self.weight)
        if set(self.labels) != set(self.spatial):
            raise UsageError("hypothesis spatial map does not cover its labels")


@dataclass(eq=False)
class DglmbDensity:
    """delta-GLMB density: label space plus weighted hypotheses.  It is
    never modified, except that ``dglmb_to_lmb`` keeps its result in
    ``_lmb``."""

    label_space: tuple
    hypotheses: list
    _lmb: LmbDensity = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.label_space = tuple(sorted(self.label_space))
        space = set(self.label_space)
        for hyp in self.hypotheses:
            if not set(hyp.labels) <= space:
                raise UsageError("hypothesis uses labels outside the label space")

    def weights(self):
        return np.array([h.weight for h in self.hypotheses])

    def normalized(self):
        tot = float(self.weights().sum())
        if tot <= 0.0:
            raise UsageError("hypothesis weights sum to zero")
        return DglmbDensity(
            self.label_space,
            [Hypothesis(h.labels, h.weight / tot, h.spatial)
             for h in self.hypotheses],
        )


def top_weighted_subsets(log_odds, limit):
    """The ``limit`` subsets of ``range(len(log_odds))`` with the largest
    ``sum(log_odds[i] for i in subset)``, best first (all ``2**n`` when
    ``limit`` is larger).

    Returns ``(subset_tuple, relative_log_weight)`` pairs with the
    relative log weight of the best subset equal to zero.  Items with
    ``log_odds = -inf`` are never included.
    """
    finite = [(i, lo) for i, lo in enumerate(log_odds) if np.isfinite(lo)]
    best = frozenset(i for i, lo in finite if lo > 0.0)
    # Toggling item i off the best subset (or on, if it is out) costs |lo|.
    costs = sorted(((abs(lo), i) for i, lo in finite), key=lambda t: (t[0], t[1]))
    n = len(costs)
    out = []
    seq = itertools.count()
    # Heap over toggle sets of the sorted cost list; each subset of
    # toggles is generated exactly once via extend/replace on the last
    # toggled position.
    heap = [(0.0, next(seq), -1, ())]
    while heap and len(out) < limit:
        cost, _, last, toggles = heapq.heappop(heap)
        subset = set(best)
        for t in toggles:
            i = costs[t][1]
            subset.symmetric_difference_update((i,))
        out.append((tuple(sorted(subset)), -cost))
        nxt = last + 1
        if nxt < n:
            heapq.heappush(heap, (cost + costs[nxt][0], next(seq), nxt,
                                  toggles + (nxt,)))
            if toggles:
                heapq.heappush(heap, (cost - costs[last][0] + costs[nxt][0],
                                      next(seq), nxt, toggles[:-1] + (nxt,)))
    return out


def _bernoulli_log_odds(existence):
    r = min(float(existence), _R_CLAMP)
    if r <= 0.0:
        return -np.inf
    return math.log(r) - math.log1p(-r)


def expansion(existences, max_hypotheses):
    """The ``max_hypotheses`` heaviest index subsets of independent
    Bernoulli existences, best first, and their normalized weights."""
    subsets = top_weighted_subsets(
        [_bernoulli_log_odds(r) for r in existences], max_hypotheses)
    log_w = np.array([lw for _, lw in subsets])
    w = np.exp(log_w - log_w.max())
    return [subset for subset, _ in subsets], w / w.sum()


def lmb_to_dglmb(lmb, max_hypotheses):
    """Expand an LMB density into the equivalent delta-GLMB density.

    Hypothesis weights follow the independent-Bernoulli product; each
    hypothesis reuses the tracks' spatial mixtures unchanged.  Only the
    ``max_hypotheses`` heaviest label subsets are kept and their weights
    renormalized.
    """
    labels = lmb.labels()
    subsets, w = expansion([lmb.tracks[lab].existence for lab in labels],
                           max_hypotheses)
    hyps = []
    for subset, weight in zip(subsets, w):
        chosen = tuple(labels[i] for i in subset)
        spatial = {lab: lmb.tracks[lab].spatial for lab in chosen}
        hyps.append(Hypothesis(chosen, float(weight), spatial))
    return DglmbDensity(tuple(labels), hyps)


def dglmb_to_lmb(d):
    """Collapse a delta-GLMB density to its best-fitting LMB density.

    Per label the existence is the summed weight of hypotheses containing
    it and the spatial density is the weight-averaged mixture of the
    per-hypothesis spatials.  Labels with zero existence are dropped.
    Later calls return the result kept on ``d``.
    """
    if d._lmb is not None:
        return d._lmb
    weights = d.weights()
    tot = float(weights.sum())
    existence = {label: 0.0 for label in d.label_space}
    parts = {label: [] for label in d.label_space}
    for hyp in d.hypotheses:
        w = hyp.weight / tot if tot > 0.0 else hyp.weight
        for label in hyp.labels:
            existence[label] += w
            parts[label].append((w, hyp.spatial[label]))
    d._lmb = LmbDensity({
        label: Track(label, min(r, 1.0), mixture_average(parts[label], r))
        for label, r in existence.items() if r > 0.0})
    return d._lmb


def mixture_average(parts, total):
    """The sum of ``w / total`` times each normalized mixture ``gm``."""
    return GaussianMixture([c for w, gm in parts for c in gm.scaled(
        w / (total * gm.total_weight())).components])


def lmb_cardinality(lmb):
    """Cardinality pmf of an LMB density (Bernoulli convolution)."""
    rho = np.array([1.0])
    for label in lmb.labels():
        r = lmb.tracks[label].existence
        rho = np.convolve(rho, [1.0 - r, r])
    return rho


def dglmb_cardinality(d):
    """Cardinality pmf of a delta-GLMB density (weight sums by |I|)."""
    rho = np.zeros(len(d.label_space) + 1)
    for hyp in d.hypotheses:
        rho[len(hyp.labels)] += hyp.weight
    return rho


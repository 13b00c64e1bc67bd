"""Labeled multi-object densities: LMB and delta-GLMB forms.

An LMB density is a set of statistically independent Bernoulli tracks,
one per label.  A delta-GLMB density is a weighted list of hypotheses;
each hypothesis fixes a label set and one spatial density per label in
that set.  Both are tables over a sorted label space.  The conversions
between the two forms and the cardinality distributions they induce
live here, with the expansion of independent Bernoulli existences into
weighted label subsets: ``expansion`` for any number of tracks, and
``bernoulli_expansion`` for one, in closed form with the same bits.
``segment_sums`` sums the weights of many densities at once, with the
bits of one ``np.sum`` per density.
"""

import heapq
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import NumericalError
from .gaussian import mixture_average

# Existence probabilities of exactly one are clamped so hypothesis
# weights (products of r and 1 - r) stay finite.
_R_CLAMP = 1.0 - 1e-9


class Label(tuple):
    """Track label: birth scan index plus a per-scan counter, a pair tuple
    that hashes, compares and sorts as ``(birth_step, birth_index)``."""

    birth_step, birth_index = property(itemgetter(0)), property(itemgetter(1))

    def __new__(cls, birth_step, birth_index):
        return tuple.__new__(cls, (birth_step, birth_index))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return "L(%d,%d)" % self


@dataclass(eq=False)
class LmbDensity:
    """LMB density over a sorted label space, in three fields:

    - ``label_space``: the sorted tuple of labels;
    - ``mixtures``: the spatial mixture of each label;
    - ``r``: the existence probability of each label.

    Construction is unchecked, and a density is never modified."""

    label_space: tuple
    mixtures: list
    r: list


class DglmbDensity:
    """delta-GLMB density over a sorted label space, in four fields:

    - ``label_space``: the sorted tuple of labels, one column each;
    - ``mixtures``: the table of spatial mixtures;
    - ``hypotheses``: an (H, |label space|) int array whose row ``h`` is
      hypothesis ``h``: ``hypotheses[h, k]`` is the table position of its
      mixture for ``label_space[k]``, -1 if the label is absent (within a
      column one mixture has one position);
    - ``w``: the H hypothesis weights.

    Construction is unchecked and keeps only the mixtures the rows use.
    A density is never modified, except that ``dglmb_to_lmb`` keeps its
    result in ``_lmb``."""

    def __init__(self, label_space, mixtures, hypotheses, w):
        used = np.zeros(len(mixtures) + 1, dtype=bool)
        used[hypotheses] = True  # -1 marks the spare last slot
        if not used[:-1].all():
            hypotheses = np.where(hypotheses >= 0,
                                  np.cumsum(used)[hypotheses] - 1, -1)
            mixtures = [gm for gm, u in zip(mixtures, used) if u]
        self.label_space, self.mixtures = label_space, mixtures
        self.hypotheses, self.w, self._lmb = hypotheses, w, None

    def normalized(self):
        tot = float(self.w.sum())
        if not 0.0 < tot < math.inf:
            raise NumericalError("hypothesis weight sum is not positive "
                                 "and finite", {"total": tot})
        out = object.__new__(DglmbDensity)
        vars(out).update(vars(self), w=self.w / tot, _lmb=None)
        return out


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


def bernoulli_expansion(existence):
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


def lmb_to_dglmb(lmb, max_hypotheses):
    """Expand an LMB density into the equivalent delta-GLMB density.

    Hypothesis weights follow the independent-Bernoulli product; the
    mixture table is the LMB density's mixtures, passed through unchanged.
    Only the ``max_hypotheses`` heaviest label subsets are kept and their
    weights renormalized.
    """
    n = len(lmb.label_space)
    subsets, w = expansion(lmb.r, max_hypotheses)
    index = np.array([[k if k in s else -1 for k in range(n)]
                      for s in subsets], dtype=int).reshape(len(subsets), n)
    return DglmbDensity(lmb.label_space, lmb.mixtures, index, w)


def dglmb_to_lmb(d):
    """Collapse a delta-GLMB density to its best-fitting LMB density.

    Per label the existence is the summed weight of hypotheses containing
    it and the spatial density is the weight-averaged mixture of the
    per-hypothesis spatials.  Labels with zero existence are dropped.
    Later calls return the result kept on ``d``.
    """
    if d._lmb is not None:
        return d._lmb
    tot = float(d.w.sum())
    w = (d.w / tot if tot > 0.0 else d.w).tolist()
    labels, mixtures, existences = [], [], []
    for label, column in zip(d.label_space, d.hypotheses.T.tolist()):
        parts = [(wi, d.mixtures[i]) for wi, i in zip(w, column) if i >= 0]
        r = 0.0
        for wi, _ in parts:
            r += wi
        if r > 0.0:
            labels.append(label)
            mixtures.append(mixture_average(parts, r))
            existences.append(min(r, 1.0))
    d._lmb = LmbDensity(tuple(labels), mixtures, existences)
    return d._lmb


def lmb_cardinality(lmb):
    """Cardinality pmf of an LMB density (Bernoulli convolution)."""
    rho = np.array([1.0])
    for r in lmb.r:
        rho = np.convolve(rho, [1.0 - r, r])
    return rho


def segment_sums(values, segments, count):
    """``np.sum`` of each of ``count`` segments of the float array
    ``values``, to the bit: ``segments`` numbers the segment of each
    value, and a segment's values are summed in their order."""
    # Below 8 terms np.sum adds one term at a time from 0.0, as bincount
    # does; from 8 on it sums pairwise, so a long segment takes np.sum.
    out = np.bincount(segments, values, count)
    for k in (np.bincount(segments, minlength=count) >= 8).nonzero()[0]:
        out[k] = np.sum(values[segments == k])
    return out


def dglmb_cardinality(d):
    """Cardinality pmf of a delta-GLMB density (weight sums by |I|)."""
    # bincount adds in hypothesis order.
    return np.bincount((d.hypotheses >= 0).sum(axis=1), d.w,
                       len(d.label_space) + 1).astype(float, copy=False)

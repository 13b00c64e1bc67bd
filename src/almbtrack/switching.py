"""Representation-switching criteria and the switching automaton.

Two scalar criteria compare the exact delta-GLMB update output with its
LMB approximation: the Kullback-Leibler divergence between the two
cardinality distributions, and the entropy of the track-to-measurement
association marginals.  A group switches from LMB to delta-GLMB
representation when either criterion exceeds its threshold and switches
back only when the criterion that triggered the switch falls to the
threshold or below.  All information measures use natural logarithms.
Each criterion has one implementation, stacked over the densities of
a batch (``kl_divergences``, ``association_entropies``); the
one-density forms call it on one row.
"""

import enum

import numpy as np

from .densities import (dglmb_cardinality, dglmb_to_lmb, lmb_cardinality,
                        segment_sums)


class Mode(enum.Enum):
    LMB = "lmb"
    DGLMB = "dglmb"


class Trigger(enum.Enum):
    """Automaton state of a group: ``NONE`` is LMB form; the others are
    delta-GLMB form, held there by the KL or the entropy criterion, or
    for good (``PINNED``: the delta-GLMB filter's groups)."""

    NONE = "none"
    KL = "kl"
    ENTROPY = "entropy"
    PINNED = "pinned"

    @property
    def mode(self):
        return Mode.LMB if self is Trigger.NONE else Mode.DGLMB


def kl_divergence(p, q):
    """Kullback-Leibler divergence in nats between two pmfs.

    Shorter vectors are zero-padded.  Terms with ``p_i = 0`` contribute
    nothing; any ``p_i > 0`` with ``q_i = 0`` makes the divergence
    infinite.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    padded = np.zeros((2, 1, max(p.size, q.size)))
    padded[0, 0, :p.size], padded[1, 0, :q.size] = p, q
    return float(kl_divergences(*padded)[0])


def kl_divergences(p, q):
    """``kl_divergence`` of each row of the stacked pmfs ``p`` and ``q``,
    arrays of one (g, n) shape."""
    mask = p > 0.0
    rows = mask.nonzero()[0]
    p, q = p[mask], q[mask]
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = segment_sums(p * np.log(p / q), rows, len(mask))
    # Rounding can leave a tiny negative sum when p ~ q; KL is >= 0.
    return np.where(np.bincount(rows, q <= 0.0, len(mask)) > 0, np.inf,
                    np.where(kl > 0.0, kl, 0.0))


def kl_criterion(full):
    """KL divergence from a delta-GLMB posterior's cardinality pmf to the
    cardinality pmf of its LMB approximation."""
    return cardinality_kl(dglmb_cardinality(full),
                          lmb_cardinality(dglmb_to_lmb(full)))


def cardinality_kl(rho_exact, rho_approx):
    """``kl_criterion`` from the two cardinality pmfs; from stacked (g, n)
    rows of each, the criterion of every row."""
    # An existence within one ulp of 1 zeroes cells of the product
    # cardinality outright while the exact side keeps matching
    # sub-precision mass, which would read as a support mismatch and pin
    # the group in delta-GLMB form; mass that small decides nothing.
    rho_exact = np.where(rho_exact > 1e-15, rho_exact, 0.0)
    if rho_exact.ndim == 2:
        return kl_divergences(rho_exact, rho_approx)
    return kl_divergence(rho_exact, rho_approx)


def association_entropy(marginals):
    """Entropy (nats) of track-to-measurement association marginals.

    Sums ``-r log r`` over all track/measurement entries; zero entries
    contribute nothing, and a measurement-free scan yields zero.
    """
    r = np.asarray(marginals, dtype=float).ravel()
    return float(association_entropies(r, np.zeros(r.size, dtype=int),
                                       1)[0])


def association_entropies(marginals, segments, count):
    """``association_entropy`` of each of ``count`` segments of the flat
    ``marginals``: ``segments`` numbers the segment of each entry, and a
    segment's entries are in row-major order."""
    mask = marginals > 0.0
    r = marginals[mask]
    # + 0.0 turns the -0.0 of an all-certain segment into plain zero.
    return -segment_sums(r * np.log(r), segments[mask], count) + 0.0


def decide_switch(state, kl, entropy, config):
    """Advance the switching automaton, a ``Trigger``, by one update.

    In LMB mode the KL criterion is consulted first, then entropy; the
    first one above its threshold (``config.kl_threshold``,
    ``config.entropy_threshold``) triggers the switch to delta-GLMB.  In
    delta-GLMB mode only the criterion that caused the switch is
    consulted, and the group returns to LMB once it is at or below its
    threshold.  Pinned groups stay as they are.
    """
    if state is Trigger.NONE:
        if kl > config.kl_threshold:
            return Trigger.KL
        if entropy > config.entropy_threshold:
            return Trigger.ENTROPY
        return state
    settled = {Trigger.KL: kl <= config.kl_threshold,
               Trigger.ENTROPY: entropy <= config.entropy_threshold}
    return Trigger.NONE if settled.get(state, False) else state

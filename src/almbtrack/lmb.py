"""LMB filter recursion.

Prediction acts track-wise.  The update routes through the exact
delta-GLMB update of the expanded prior and keeps both the LMB
approximation of the posterior and the full posterior, so callers can
compare the two representations.
"""

from dataclasses import dataclass

from .densities import LmbDensity, Track, dglmb_to_lmb, lmb_to_dglmb
from .dglmb import UpdateOutput, dglmb_update
from .gaussian import gm_predict


@dataclass(eq=False)
class LmbUpdateResult:
    """LMB approximation of the posterior plus the exact update output."""

    approx: LmbDensity
    full: UpdateOutput


def lmb_predict(lmb, motion):
    """Predict an LMB density: survival discounts every existence by
    ``p_S`` and spatial mixtures are Kalman-predicted."""
    tracks = {}
    for label in lmb.labels():
        track = lmb.tracks[label]
        tracks[label] = Track(label, motion.survival_prob * track.existence,
                              gm_predict(track.spatial, motion))
    return LmbDensity(tracks)


def lmb_update(lmb, measurements, sensor, cap, gate_sq):
    """Measurement-update an LMB density.

    The prior is expanded to delta-GLMB form, updated, and collapsed
    back; ``cap`` bounds the expansion and the update.  Returns the
    approximation together with the full update output.
    """
    expanded = lmb_to_dglmb(lmb, cap)
    full = dglmb_update(expanded, measurements, sensor, cap=cap,
                        gate_sq=gate_sq)
    approx = dglmb_to_lmb(full.posterior)
    return LmbUpdateResult(approx, full)

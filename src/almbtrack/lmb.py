"""LMB filter recursion.

Prediction acts label by label.  The update routes through the exact
delta-GLMB update of the expanded prior; ``dglmb_to_lmb`` of its
posterior is the LMB approximation.
"""

from .densities import LmbDensity, lmb_to_dglmb
from .dglmb import dglmb_update
from .gaussian import gm_predict


def lmb_predict(lmb, motion):
    """Predict an LMB density: survival discounts every existence by
    ``p_S`` and spatial mixtures are Kalman-predicted."""
    return LmbDensity(lmb.label_space, gm_predict(lmb.mixtures, motion),
                      [motion.survival_prob * r for r in lmb.r])


def lmb_update(lmb, measurements, sensor, cap, gate_sq):
    """Measurement-update an LMB density.

    The prior is expanded to delta-GLMB form and updated; ``cap`` bounds
    the expansion and the update.  Returns the ``UpdateOutput`` of the
    expanded update: ``dglmb_to_lmb(out.posterior)`` collapses it back.
    """
    return dglmb_update(lmb_to_dglmb(lmb, cap), measurements, sensor,
                        cap=cap, gate_sq=gate_sq)

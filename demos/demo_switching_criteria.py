"""What the two switching criteria see, on hand-built densities.

Walks through the cardinality-KL criterion (does the exact posterior
carry correlation an independent-track approximation cannot express?)
and the association-entropy criterion (is the track-to-measurement
assignment genuinely ambiguous?), then shows the automaton that acts on
them.

Run:  python3 demos/demo_switching_criteria.py
"""

import numpy as np

from almbtrack import (DglmbDensity, GaussianMixture, Label, LmbDensity,
                       PipelineConfig, SensorModel, Trigger,
                       association_entropy, decide_switch, kl_criterion,
                       lmb_to_dglmb, lmb_update)
from almbtrack.pipeline import CAP, GATE_SQ


def gm(mean, var=1.0):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return GaussianMixture([1.0], [mean], [var * np.eye(mean.size)])


def main():
    l1, l2 = Label(0, 0), Label(0, 1)
    config = PipelineConfig()

    print("1. cardinality KL")
    print("   independent tracks first: expanding an LMB and collapsing it")
    print("   back loses nothing, so the criterion is ~0:")
    # One column per label: its mixture and its existence.
    lmb = LmbDensity((l1, l2), [gm([0.0]), gm([50.0])], [0.7, 0.4])
    print("   kl_criterion(expanded independent pair) = %.2e"
          % kl_criterion(lmb_to_dglmb(lmb, CAP)))

    print()
    print("   now a perfectly correlated pair: half the weight on 'both")
    print("   exist', half on 'neither'. Existence 1/2 each is the best an")
    print("   independent model can do, and it misses the correlation:")
    # Rows are hypotheses, columns labels; entries index the mixture
    # table, -1 where the label is absent.
    d = DglmbDensity((l1, l2), [gm([0.0]), gm([1.0])],
                     np.array([[-1, -1], [0, 1]]), np.array([0.5, 0.5]))
    print("   kl_criterion(correlated pair) = %.6f (= ln 2)" % kl_criterion(d))

    print()
    print("2. association entropy")
    print("   one measurement claimed surely by one track: no ambiguity.")
    print("   entropy = %.4f" % association_entropy(np.array([[1.0], [0.0]])))
    print("   the same measurement claimed evenly by two tracks:")
    print("   entropy = %.4f (= ln 2)"
          % association_entropy(np.array([[0.5], [0.5]])))

    print()
    print("   on live densities: two tracks straddle one measurement.")
    lmb = LmbDensity((l1, l2), [gm([0.0, 0.0], 25.0), gm([6.0, 0.0], 25.0)],
                     [0.6, 0.6])
    sensor = SensorModel(np.eye(2), np.eye(2), 0.9, 1e-4)
    out = lmb_update(lmb, [np.array([3.0, 0.0])], sensor, CAP, GATE_SQ)
    print("   posterior association marginals (rows = tracks):")
    print("   %s" % np.round(out.assoc_marginals, 3).tolist())
    print("   entropy = %.4f, kl = %.6f"
          % (association_entropy(out.assoc_marginals),
             kl_criterion(out.posterior)))

    print()
    print("3. the automaton")
    print("   thresholds: kl %.0e, entropy %.2f"
          % (config.kl_threshold, config.entropy_threshold))
    state = Trigger.NONE
    script = [
        ("clean scan", 0.0, 0.1),
        ("crossing starts, kl spikes", 3e-3, 0.4),
        ("still entangled", 2e-3, 0.6),
        ("separated, kl back under", 5e-5, 0.6),
        ("quiet again", 0.0, 0.1),
    ]
    for label, kl, entropy in script:
        state = decide_switch(state, kl, entropy, config)
        print("   %-28s -> %-5s (trigger %s)"
              % (label, state.mode.name, state.name))
    print("   note the third scan: entropy 0.6 is above threshold but the")
    print("   group switched on KL, so only KL can release it; and the")
    print("   release happens at <=, switching is > (asymmetric).")


if __name__ == "__main__":
    main()

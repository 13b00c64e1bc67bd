"""Array-backed delta-GLMB operations against their object-loop references.

Random densities have 1-4 labels, up to 30 hypotheses and mixtures shared
between hypotheses and labels.  Every operation must reproduce the
reference of ``oracles.py`` bit for bit (arrays by ``np.array_equal``,
floats by ``==``) and keep the density invariants.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from almbtrack import (GaussianMixture, Label,  # noqa: E402
                       dglmb_cardinality, dglmb_prune, dglmb_to_lmb,
                       gm_reduce)
from almbtrack.dglmb import _CONSOLIDATE_ATOL, _consolidate  # noqa: E402
from almbtrack.pipeline import (DGLMB_PRUNE, CAP, GM_CAP,  # noqa: E402
                                GM_MERGE, GM_PRUNE, _cross_product,
                                _drop_labels, _marginalize)

from conftest import random_mixture  # noqa: E402
from oracles import (dglmb_from_rows, ref_consolidate,  # noqa: E402
                     ref_cross_product, ref_dglmb_cardinality,
                     ref_dglmb_prune, ref_dglmb_to_lmb, ref_drop_labels,
                     ref_marginalize, ref_mixture_average, rows_of,
                     same_components, same_mixture)

SETTINGS = settings(max_examples=60, deadline=None)


def random_density(seed, n_labels, n_hyps, birth_step=0):
    """Hypotheses over ``n_labels`` labels drawing their mixtures from a
    small pool, so hypotheses and labels share mixtures; weights repeat
    often enough to exercise the label-set tie break."""
    rng = np.random.default_rng(seed)
    labels = [Label(birth_step, i) for i in range(n_labels)]
    pool = [random_mixture(rng, n_comp=int(rng.integers(1, 3)))
            for _ in range(int(rng.integers(1, 6)))]
    hyps = []
    for _ in range(n_hyps):
        chosen = tuple(lab for lab in labels if rng.random() < 0.6)
        weight = rng.choice([0.125, 0.25, rng.uniform(1e-7, 1.0)])
        hyps.append((chosen, float(weight), {
            lab: pool[int(rng.integers(len(pool)))] for lab in chosen}))
    return dglmb_from_rows(labels, hyps)


densities = st.builds(random_density, st.integers(0, 2 ** 32 - 1),
                      st.integers(1, 4), st.integers(1, 30))


def assert_matches(density, label_space, expected):
    """``density`` holds the (labels, weight, spatial) list ``expected``,
    weights by ``==`` and mixtures by identity or equal components."""
    assert density.label_space == tuple(label_space)
    rows = rows_of(density)
    assert len(rows) == len(expected)
    for (got_labels, got_weight, got_spatial), (labels, weight, spatial) \
            in zip(rows, expected):
        assert got_labels == tuple(labels)
        assert got_weight == weight
        assert all(same_mixture(got_spatial[lab], spatial[lab])
                   for lab in labels)


def assert_invariants(density):
    w = density.w
    assert np.isfinite(w).all()
    assert abs(w.sum() - 1.0) <= 1e-12
    for r in dglmb_to_lmb(density).r:
        assert 0.0 <= r <= 1.0


def existence(density, label):
    return sum(weight for labels, weight, _ in rows_of(density)
               if label in labels)


@SETTINGS
@given(densities)
def test_to_lmb_matches_object_loop(d):
    view = dglmb_to_lmb(d)
    expected = ref_dglmb_to_lmb(d)
    assert view.label_space == tuple(expected)
    for (label, (r, components)), got_r, gm in zip(
            expected.items(), view.r, view.mixtures):
        assert got_r == r
        assert 0.0 <= got_r <= 1.0
        assert same_components(gm, components)
    assert dglmb_to_lmb(d) is view


@SETTINGS
@given(densities)
def test_cardinality_matches_object_loop(d):
    assert np.array_equal(dglmb_cardinality(d), ref_dglmb_cardinality(d))


@SETTINGS
@given(densities, st.sampled_from([0.0, 1e-5, 0.05, 0.3]),
       st.sampled_from([1, 3, 50]))
def test_prune_matches_object_loop(d, threshold, cap):
    d = d.normalized()
    out = dglmb_prune(d, threshold, cap)
    assert_matches(out, d.label_space,
                   ref_dglmb_prune(rows_of(d), threshold, cap))
    assert_invariants(out)


@SETTINGS
@given(densities, st.builds(random_density, st.integers(0, 2 ** 32 - 1),
                            st.integers(1, 4), st.integers(1, 30),
                            st.just(1)))
def test_cross_product_matches_object_loop(a, b):
    a, b = a.normalized(), b.normalized()
    out = _cross_product(a, b)
    assert_matches(out, sorted(a.label_space + b.label_space),
                   ref_cross_product(a, b, DGLMB_PRUNE, CAP))
    assert_invariants(out)


@SETTINGS
@given(densities, st.integers(0, 2 ** 4 - 1))
def test_drop_labels_matches_object_loop(d, mask):
    d = d.normalized()
    doomed = {lab for k, lab in enumerate(d.label_space) if mask >> k & 1}
    out = _drop_labels(d, doomed)
    assert_matches(out, [lab for lab in d.label_space if lab not in doomed],
                   ref_drop_labels(d, doomed))
    assert_invariants(out)


def reference_reduce(parts, weight):
    return gm_reduce(GaussianMixture(*zip(*ref_mixture_average(
        parts, weight))), GM_PRUNE, GM_MERGE, GM_CAP)


@SETTINGS
@given(densities, st.integers(1, 2 ** 4 - 1))
def test_marginalize_matches_object_loop_and_keeps_existence(d, mask):
    d = d.normalized()
    members = {lab for k, lab in enumerate(d.label_space) if mask >> k & 1} \
        or {d.label_space[0]}
    out = _marginalize(d, members)
    assert_matches(out, sorted(members),
                   ref_marginalize(d, members, reference_reduce))
    assert_invariants(out)
    for label in members:
        assert abs(existence(out, label) - existence(d, label)) <= 1e-12


def near_copy(gm, offset):
    # ``gm`` with every mean entry shifted by ``offset``.
    return GaussianMixture(gm.w, gm.m + offset, gm.P)


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(2, 30))
def test_consolidate_matches_concatenated_compare(seed, n_labels, n_rows):
    # Mixtures come in families of near copies, so many rows are close.
    rng = np.random.default_rng(seed)
    labels = [Label(0, i) for i in range(n_labels)]
    mixtures = []
    for _ in range(3):
        base = random_mixture(rng, n_comp=int(rng.integers(1, 3)))
        mixtures += [base] + [near_copy(base, off) for off in (
            0.5 * _CONSOLIDATE_ATOL, _CONSOLIDATE_ATOL,
            2.0 * _CONSOLIDATE_ATOL)]
    index = np.where(rng.random((n_rows, n_labels)) < 0.7,
                     rng.integers(len(mixtures), size=(n_rows, n_labels)), -1)
    log_w = rng.choice([-1.0, -2.0, -3.0], n_rows) + np.where(
        rng.random(n_rows) < 0.5, 0.0, rng.normal(0.0, 0.1, n_rows))
    kept, merged = _consolidate(index, log_w.tolist(), mixtures)
    entries = [(tuple(lab for lab, i in zip(labels, row) if i >= 0), lw,
                {lab: mixtures[i] for lab, i in zip(labels, row) if i >= 0},
                e) for e, (row, lw) in enumerate(zip(index, log_w))]
    assert list(zip(kept, merged)) == ref_consolidate(entries,
                                                      _CONSOLIDATE_ATOL)

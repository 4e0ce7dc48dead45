"""Shapley attributions over the same hybrid-row conditioning as the greedy
breakdown, so differences between the two methods reflect aggregation
strategy only.

Exact mode enumerates all pinned subsets (cost 2^p relaxed predictions,
capped); sampled mode averages marginal contributions over random feature
permutations and reports per-feature standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import or_
from typing import Sequence

import numpy as np

from .breakdown import BASELINE_ZERO, Attribution, _check_modes, _ranked_attribution
from .errors import ModelError
from .predict import Predictor
from .relax import RelaxedValues
from .tabular import Cell, Dataset

SHAPLEY_EXACT = "shapley-exact"
SHAPLEY_SAMPLED = "shapley-sampled"

EXACT_FEATURE_CAP = 15


@dataclass(frozen=True, eq=False)
class ShapleyEstimate:
    """Shapley attribution plus sampling diagnostics.

    For sampled estimates, `std_errors` holds one standard error per feature
    (schema order), `unadjusted` the raw permutation means before the small
    residual correction that restores exact-sum consistency.
    """

    attribution: Attribution
    std_errors: np.ndarray | None = None
    n_permutations: int | None = None
    unadjusted: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        out = self.attribution.to_json_dict()
        if self.std_errors is not None:
            out["std_errors"] = [float(s) for s in self.std_errors]
        if self.n_permutations is not None:
            out["n_permutations"] = self.n_permutations
        if self.unadjusted is not None:
            out["unadjusted_contributions"] = [float(v) for v in self.unadjusted]
        return out


def shapley_exact(
    predictor: Predictor,
    dataset: Dataset,
    x_new: Sequence[Cell],
    baseline_mode: str = BASELINE_ZERO,
) -> ShapleyEstimate:
    """Exact Shapley values by subset enumeration.

    phi_j averages the marginal change in relaxed prediction from pinning j,
    weighted over all pinned subsets not containing j by |S|!(p-|S|-1)!/p!.
    The weights use log-factorials so p near the cap stays stable.
    """
    _check_modes(baseline_mode)
    values = RelaxedValues(predictor, dataset, x_new)
    x_new, p, names = values.x_new, values.p, values.schema.names
    if p > EXACT_FEATURE_CAP:
        raise ModelError(
            f"exact Shapley enumerates 2^p subsets; p={p} exceeds the cap of {EXACT_FEATURE_CAP}"
        )
    log_fact = [math.lgamma(i + 1) for i in range(p + 1)]
    weight_by_size = np.array(
        [math.exp(log_fact[s] + log_fact[p - s - 1] - log_fact[p]) for s in range(p)]
    )
    # every subset is scored up front, together; v[mask] is its relaxed value
    v = np.array(values.means(range(1 << p)))
    masks = np.arange(1 << p)
    sizes = np.array([m.bit_count() for m in range(1 << p)])
    phis = np.zeros(p)
    with np.errstate(over="ignore", invalid="ignore"):  # `Attribution` refuses what overflows
        for j in range(p):
            free = masks[(masks >> j & 1) == 0]
            terms = weight_by_size[sizes[free]] * (v[free | 1 << j] - v[free])
            # summed in ascending mask order, one term at a time; adding to 0.0
            # gives the sign of zero a running sum started at 0.0 would have
            phis[j] = 0.0 + np.add.accumulate(terms)[-1]
    mean_score, final = values.means([0, values.full])
    attribution = _ranked_attribution(
        names, x_new, phis, baseline_mode, mean_score, final, SHAPLEY_EXACT
    )
    return ShapleyEstimate(attribution=attribution)


def shapley_sampled(
    predictor: Predictor,
    dataset: Dataset,
    x_new: Sequence[Cell],
    n_permutations: int,
    rng: np.random.Generator,
    baseline_mode: str = BASELINE_ZERO,
) -> ShapleyEstimate:
    """Permutation-sampling Shapley estimate.

    Each drawn permutation contributes one marginal value per feature;
    per-feature standard errors are sample std / sqrt(n_permutations), so
    they scale as 1/sqrt(n_permutations): quadrupling the permutations
    halves them. For an additive scorer every permutation gives the same
    marginals, so the standard errors are zero up to roundoff.
    The means are then nudged to exact-sum consistency by spreading the
    residual f(x_new) - mean_score - sum(phi) proportionally to |phi|;
    the pre-adjustment means are reported alongside.
    """
    if n_permutations < 2:
        raise ModelError("need at least 2 permutations")
    _check_modes(baseline_mode)
    values = RelaxedValues(predictor, dataset, x_new)
    x_new, p, names = values.x_new, values.p, values.schema.names
    # Draw all permutations before scoring (the rng yields the same ones,
    # one per row of `marginals`), then score every prefix set together.
    orders = np.array([rng.permutation(p) for _ in range(n_permutations)])
    walks = (accumulate((1 << int(j) for j in order), or_, initial=0) for order in orders)
    v = np.array(values.means(chain.from_iterable(walks))).reshape(n_permutations, p + 1)
    mean_score, final = values.means([0, values.full])
    marginals = np.empty((n_permutations, p))
    # what overflows is refused below, or by `Attribution`, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        np.put_along_axis(marginals, orders, np.diff(v), axis=1)
        phis = marginals.mean(axis=0)
        std_errors = marginals.std(axis=0, ddof=1) / math.sqrt(n_permutations)
        residual = (final - mean_score) - float(phis.sum())
        adjusted = phis.copy()
        total_abs = float(np.abs(phis).sum())
        if total_abs > 0.0:
            adjusted += residual * np.abs(phis) / total_abs
        elif p:
            adjusted += residual / p
    if not np.isfinite(std_errors).all():
        raise ModelError("a sampled Shapley standard error overflows; rescale the response")
    attribution = _ranked_attribution(
        names, x_new, adjusted, baseline_mode, mean_score, final, SHAPLEY_SAMPLED
    )
    return ShapleyEstimate(
        attribution=attribution,
        std_errors=std_errors,
        n_permutations=n_permutations,
        unadjusted=phis,
    )

"""Additive attributions of single predictions.

Two routes: a closed-form decomposition for linear models (mean-centered
per-feature terms) and a greedy model-agnostic search that walks the pinned
feature set one step at a time, in either direction, using relaxed
predictions. Both produce the same Attribution record, which always
telescopes: baseline plus the contributions equals the model prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .errors import ModelError, SchemaError
from .predict import LinearModel, Predictor, _format_cell
from .relax import DOWN, UP, RelaxedValues, additive_terms
from .tabular import Cell, Dataset

LM_BREAK = "lm-break"
AG_BREAK_UP = "ag-break-up"
AG_BREAK_DOWN = "ag-break-down"

BASELINE_ZERO = "zero"
BASELINE_INTERCEPT = "intercept"

INTERCEPT_ENTRY = "(intercept)"

UP_DISTANCE_TO_BASELINE = "to-baseline"
UP_DISTANCE_TO_FNEW = "to-fnew"


@dataclass(frozen=True)
class AttributionEntry:
    feature: str
    value: Cell | None
    contribution: float

    @property
    def label(self) -> str:
        """Display name: the feature, then ` = value` when the entry has one
        (numbers rounded to 10 places)."""
        v = self.value
        if v is None:
            return self.feature
        shown = v if isinstance(v, str) else _format_cell(round(float(v), 10))
        return f"{self.feature} = {shown}"


@dataclass(frozen=True)
class Attribution:
    """Decomposition of one prediction into per-feature contributions.

    baseline + sum(contributions) equals final_prediction (up to float
    noise). With the zero baseline, the mean-score mass is carried by an
    explicit "(intercept)" entry rather than the baseline itself. Every
    number is finite: one that overflowed is a ModelError naming it.
    """

    method: str
    baseline_mode: str
    baseline: float
    entries: tuple[AttributionEntry, ...]
    final_prediction: float

    def __post_init__(self):
        names = [e.feature for e in self.entries]
        if len(set(names)) != len(names):
            raise SchemaError("attribution entries repeat a feature")
        numbers = [("baseline", self.baseline), ("final prediction", self.final_prediction)]
        numbers += [(f"contribution of {e.feature!r}", e.contribution) for e in self.entries]
        for name, value in numbers:
            if not math.isfinite(value):
                raise ModelError(f"the {name} is {value!r}; the scores overflow, rescale them")

    def contribution_of(self, feature: str) -> float:
        for e in self.entries:
            if e.feature == feature:
                return e.contribution
        raise KeyError(feature)

    def feature_entries(self) -> tuple[AttributionEntry, ...]:
        """Entries excluding the synthetic intercept row, if any."""
        return tuple(e for e in self.entries if e.feature != INTERCEPT_ENTRY)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "baseline_mode": self.baseline_mode,
            "baseline": self.baseline,
            "entries": [
                {"feature": e.feature, "value": e.value, "contribution": e.contribution}
                for e in self.entries
            ],
            "final_prediction": self.final_prediction,
        }


def _check_modes(
    baseline_mode: str,
    direction: str = UP,
    up_distance: str = UP_DISTANCE_TO_BASELINE,
) -> None:
    """Reject unknown mode arguments before the scorer is first called."""
    for name, value, allowed in (
        ("baseline mode", baseline_mode, (BASELINE_ZERO, BASELINE_INTERCEPT)),
        ("direction", direction, (UP, DOWN)),
        ("up_distance", up_distance, (UP_DISTANCE_TO_BASELINE, UP_DISTANCE_TO_FNEW)),
    ):
        if value not in allowed:
            raise SchemaError(f"unknown {name} {value!r}")


def _finalize_entries(
    feature_entries: list[AttributionEntry],
    baseline_mode: str,
    mean_score: float,
    final_prediction: float,
    method: str,
) -> Attribution:
    if baseline_mode == BASELINE_INTERCEPT:
        baseline = mean_score
        entries = tuple(feature_entries)
    else:
        baseline = 0.0
        entries = (AttributionEntry(INTERCEPT_ENTRY, None, mean_score), *feature_entries)
    return Attribution(
        method=method,
        baseline_mode=baseline_mode,
        baseline=baseline,
        entries=entries,
        final_prediction=final_prediction,
    )


def _ranked_attribution(
    names: Sequence[str],
    x_new: Sequence[Cell],
    contributions: Sequence[float],
    baseline_mode: str,
    mean_score: float,
    final_prediction: float,
    method: str,
) -> Attribution:
    """One entry per feature, ordered by decreasing |contribution|."""
    entries = [
        AttributionEntry(name, x_new[j], float(contributions[j]))
        for j, name in enumerate(names)
    ]
    # stable sort: ties keep schema order
    entries.sort(key=lambda e: -abs(e.contribution))
    return _finalize_entries(entries, baseline_mode, mean_score, final_prediction, method)


def lm_break(
    model: LinearModel,
    x_new: Sequence[Cell],
    baseline_mode: str = BASELINE_ZERO,
) -> Attribution:
    """Closed-form attribution for a linear model.

    Each feature contributes its additive term against the stored training
    means (`relax.additive_terms`), its one-hot terms folded into one entry.
    Entries are ordered by decreasing |contribution|.
    """
    _check_modes(baseline_mode)
    x_new = model.schema.validate_observation(x_new)
    mean_score, contributions = additive_terms(
        model.additive_view(), x_new, model.feature_means
    )
    final = model.score_one(x_new)
    return _ranked_attribution(
        model.schema.names, x_new, contributions, baseline_mode, mean_score, final, LM_BREAK
    )


def ag_break(
    predictor: Predictor,
    dataset: Dataset,
    x_new: Sequence[Cell],
    direction: str = UP,
    baseline_mode: str = BASELINE_ZERO,
    up_distance: str = UP_DISTANCE_TO_BASELINE,
) -> Attribution:
    """Greedy model-agnostic attribution over relaxed predictions.

    Down starts with every feature pinned and repeatedly releases the
    feature whose release moves the relaxed prediction least away from the
    model prediction; the recorded contribution of that feature is the drop
    it caused. Up starts with nothing pinned and repeatedly pins the feature
    that moves the relaxed prediction furthest from the mean score (or from
    the model prediction, with up_distance="to-fnew").

    Entries are listed most-important-first: selection order for Up,
    reverse removal order for Down. Ties always break toward the lowest
    feature index, so results are deterministic.
    """
    _check_modes(baseline_mode, direction, up_distance)
    values = RelaxedValues(predictor, dataset, x_new, walk=True)
    x_new, p, names = values.x_new, values.p, values.schema.names
    down = direction == DOWN
    fixed = values.full if down else 0
    # Every feature is a candidate of the first step, so the start set and
    # the full set, whose value is f(x_new), are scored together with them.
    first = [fixed, *(fixed ^ 1 << j for j in range(p)), values.full]
    current, *_, f_new = values.means(first, _layers(fixed, range(p)))

    to_mean = not down and up_distance == UP_DISTANCE_TO_BASELINE
    reference = current if to_mean else f_new
    # Down releases the pinned feature that moves least from f_new; Up pins
    # the free feature that moves furthest from the reference. min and max
    # both return the first extreme, so ties go to the lowest index. Each
    # step scores all of its candidates together, with later steps' sets.
    pick = min if down else max
    entries: list[AttributionEntry] = []
    path = [fixed]
    for _ in range(p):
        candidates = [j for j in range(p) if (fixed >> j & 1) == down]
        steps = (fixed ^ 1 << j for j in candidates)
        moved = dict(zip(candidates, values.means(steps, _layers(fixed, candidates))))
        j = pick(candidates, key=lambda j: abs(moved[j] - reference))
        fixed ^= 1 << j
        path.append(fixed)
        value = moved[j]
        contribution = current - value if down else value - current
        entries.append(AttributionEntry(names[j], x_new[j], contribution))
        current = value
    if down:
        entries.reverse()  # most important (released last) first
    mean_score = values.means([0])[0]
    values.keep_path(path)

    method = AG_BREAK_DOWN if down else AG_BREAK_UP
    return _finalize_entries(entries, baseline_mode, mean_score, f_new, method)


def _layers(fixed: int, free: Sequence[int]) -> Iterator[Iterator[int]]:
    """Lazy layers of the sets 2, 3, ... flips of `free` features from `fixed`."""
    for k in range(2, len(free) + 1):
        yield (fixed ^ sum(1 << j for j in c) for c in combinations(free, k))


def _fmt(v: float) -> str:
    """Fixed three-decimal formatting that never prints a negative zero."""
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def _fmt_array(values) -> list[str]:
    """`_fmt` of each value of a float array, formatted in one call."""
    texts = ("%.3f\n" * len(values) % tuple(values.tolist())).split("\n")[:-1]
    if "-0.000" in texts:
        texts = ["0.000" if s == "-0.000" else s for s in texts]
    return texts


def attribution_text(attribution: Attribution) -> str:
    """Fixed-width text layout: one row per entry, signed contributions
    right-aligned, a baseline row on top and a final_prognosis row at the
    bottom."""
    rows: list[tuple[str, float]] = [("baseline", attribution.baseline)]
    for e in attribution.entries:
        rows.append((f"+ {e.label}", e.contribution))
    rows.append(("final_prognosis", attribution.final_prediction))

    label_width = max(len(label) for label, _ in rows)
    number_width = max(len(f"{v:.3f}") for _, v in rows)
    number_width = max(number_width, len("contribution"))
    lines = [f"{'':<{label_width}} {'contribution':>{number_width}}"]
    for label, v in rows:
        lines.append(f"{label:<{label_width}} {_fmt(v):>{number_width}}")
    return "\n".join(lines) + "\n"

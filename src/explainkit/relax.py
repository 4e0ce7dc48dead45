"""Relaxed predictions: conditional score estimates over hybrid rows.

The relaxed prediction of an observation, given a set of pinned features,
is the mean model score over "hybrid" rows: every background row with the
pinned coordinates overwritten by the explained observation's values.
Pinning everything gives the model prediction f(x_new) exactly: every hybrid
row is x_new itself, so the engine holds that set as the one row x_new.
Pinning nothing gives the mean score over the background.

`RelaxedValues` is the one engine behind every relaxed quantity: the greedy
breakdown, both Shapley estimators, the relaxation trace and the one-shot
`relaxed_prediction` each build one per explanation. It checks the
predictor's schema and normalises the observation once, builds the pinned
columns once, scores hybrid rows through the checked `Predictor.scores_of`
(so a scorer may take several pinned sets in one call), and caches relaxed
predictions by pinned-set bitmask (bit j set means feature j is pinned).
The background is the whole dataset unless explicit rows are passed.

Scored sets outlive one call in one slot (`_Row`), that of the last row
explained with a view-less predictor over the whole dataset: the Shapley
estimators, the trace and `relaxed_prediction` start from it and add to it;
`ag_break` only adds to it, so its calls depend on the row alone. A trace
along sets a walk scored, path or not, finds them there and scores nothing.

A predictor with an additive view (score = intercept + coef . encoded row)
has relaxed predictions in closed form (`additive_terms`): the mean of its
hybrid-row scores is its value at the background's encoded column means
(for a categorical feature, its level frequencies) plus one term per pinned
feature. Only the full set, f(x_new), is still scored.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import is_, xor
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ModelError, SchemaError
from .predict import Encoder, Predictor, _finite_mean
from .tabular import Cell, Dataset

DOWN = "down"
UP = "up"


@dataclass(eq=False)
class _Row:
    """What is scored of one row, by mask: relaxed means, and read-only score
    arrays of every set walks scored, an external scorer's lookahead sets too
    (the full set's of one row). Both only gain values deterministic given
    the key, so concurrent calls may share them. A private row has no key."""

    predictor: weakref.ref | None = None  # the key: the predictor, held weakly,
    background: list[np.ndarray] = field(default_factory=list)  # the columns, by identity,
    x: tuple[str, ...] = ()  # and the reprs of x_new, so 0.0 and -0.0 differ
    means: dict[int, float] = field(default_factory=dict)
    arrays: dict[int, np.ndarray] = field(default_factory=dict)


_slot: list[_Row] = []  # the last row explained with a view-less predictor, if any


def _row_of(predictor: Predictor, background: list[np.ndarray], x_new: tuple) -> _Row:
    """The slot's row if it is this one, else a new row that takes the slot
    until its predictor is collected (emptying the slot only forgets)."""
    x = tuple(map(repr, x_new))
    for row in _slot[:]:
        same = row.predictor() is predictor and all(map(is_, row.background, background))
        if same and row.x == x:
            return row
    row = _Row(weakref.ref(predictor, lambda _: _slot.clear()), background, x)
    _slot[:] = [row]
    return row


def additive_terms(
    view: tuple[float, Encoder, np.ndarray], x_new: Sequence[Cell], means: np.ndarray
) -> tuple[float, np.ndarray]:
    """(base, terms) of an additive view at x_new against encoded column
    `means`: base = intercept + means . coef is the value at the means, and
    terms[j] = coef . (encode(x_new) - means) over feature j's encoded
    columns. Pinning a set S adds the terms of S to the base."""
    intercept, encoder, coefficients = view
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks what overflows
        base = intercept + float(means @ coefficients)
        return base, encoder.fold((encoder.encode_observation(x_new) - means) * coefficients)


class RelaxedValues:
    """Relaxed predictions of one observation against one background.

    `background_rows` selects the dataset rows the hybrid rows are built
    from (all rows by default). Every column handed to the scorer is
    shared by many masks, so all of them are read-only. A `walk` reads none
    of the row's means, and keeps there every score array it scores.
    """

    def __init__(
        self,
        predictor: Predictor,
        dataset: Dataset,
        x_new: Sequence[Cell],
        background_rows: np.ndarray | None = None,
        walk: bool = False,
    ):
        schema = dataset.schema()
        if schema != predictor.schema:
            raise SchemaError(
                "predictor schema does not match the dataset's feature columns"
            )
        self.predictor = predictor
        self.schema = schema
        self.x_new = schema.validate_observation(x_new)
        self.p = schema.n_features
        self._background = [c.values for c in dataset.feature_columns()]
        self.n = dataset.n_rows
        if background_rows is not None:
            self._background = [c[background_rows] for c in self._background]
            self.n = len(background_rows)
        self._x = schema.to_columns([self.x_new])
        self._pinned = [np.repeat(col, self.n) for col in self._x]
        for col in (*self._background, *self._x, *self._pinned):
            col.flags.writeable = False
        self.full = (1 << self.p) - 1
        self._view = predictor.additive_view()
        # values of a row selection, or of the closed form (whose bits depend
        # on its batch), stay in a row of this engine's own
        shared = self._view is None and background_rows is None
        self._row = _row_of(predictor, self._background, self.x_new) if shared else _Row()
        self._means: dict[int, float] = {} if walk else self._row.means
        self._walk = walk

    def _hybrid(self, mask: int) -> list[np.ndarray]:
        """Background rows with the features of `mask` pinned to x_new; every
        row of the full set is x_new, so that set is the one row x_new."""
        if mask == self.full:
            return self._x
        return [self._pinned[j] if mask >> j & 1 else self._background[j] for j in range(self.p)]

    def _scored(self, masks: Iterable[int], ahead: Iterable = ()) -> Iterator[tuple]:
        """(mask, read-only scores) of each set one `scores_of` call scores: the
        sets `masks`, then those of the layers `ahead` this engine has no mean
        for. Each mean is cached here and in the row as its set is scored."""
        offered: list[int] = []  # as handed over, the order of the scores
        seen: set[int] = set()

        def handed(sets: Iterable[int], cached=()) -> Iterator[list[np.ndarray]]:
            for m in sets:
                if m not in seen and m not in cached:
                    seen.add(m)
                    offered.append(m)
                    yield self._hybrid(m)

        layers = (handed(layer, self._means) for layer in ahead)
        for i, scores in enumerate(self.predictor.scores_of(handed(masks), layers)):
            m = offered[i]  # by position: a scorer may pull `ahead` after yielding
            scores.flags.writeable = False
            mean = self._means.setdefault(m, _finite_mean(scores, "a pinned set's scores"))
            self._row.means.setdefault(m, mean)
            yield m, scores

    def arrays(self, masks: Sequence[int]) -> list[np.ndarray]:
        """Read-only scores of the hybrid rows of each mask, scoring together
        those the row lacks."""
        scored = dict(self._scored(m for m in masks if m not in self._row.arrays))
        return [scored[m] if m in scored else self._row.arrays[m] for m in masks]

    def means(self, masks: Iterable[int], ahead: Iterable[Iterable[int]] = ()) -> list[float]:
        """Relaxed predictions for the pinned sets `masks`, each computed once;
        the uncached ones go to the scorer together, or into one closed-form
        product when the predictor has an additive view, but for the full set,
        whose value is f(x_new). A scorer call is also offered the uncached
        sets of the layers `ahead`, which later calls may need, lazily
        (`Predictor.scores_of`); the ones it scores are cached too."""
        masks = list(masks)
        todo = [m for m in dict.fromkeys(masks) if m not in self._means]
        if self._view is not None:
            closed = [m for m in todo if m != self.full]
            self._means.update(zip(closed, self._closed_form(closed)))
            todo = [m for m in todo if m == self.full]
        if todo:
            for m, scores in self._scored(todo, ahead):
                if self._walk:  # else each array goes once its mean is cached
                    self._row.arrays[m] = scores
        return [self._means[m] for m in masks]

    @cached_property
    def _additive_terms(self) -> tuple[float, np.ndarray]:
        """`additive_terms` of the view over this engine's own background."""
        with np.errstate(over="ignore", invalid="ignore"):  # `_closed_form` checks
            means = self._view[1].encode_columns(self._background).mean(axis=0)
        return additive_terms(self._view, self.x_new, means)

    def _closed_form(self, masks: list[int]) -> list[float]:
        """Relaxed predictions of an additive predictor for `masks`, in one
        product: the base plus the terms of each mask's pinned features."""
        base, terms = self._additive_terms
        # a mask may have more bits than an int64 holds, so unpack its bytes
        size = (self.p + 7) // 8
        packed = b"".join(m.to_bytes(size, "little") for m in masks)
        bits = np.frombuffer(packed, dtype=np.uint8).reshape(len(masks), size)
        pinned = np.unpackbits(bits, axis=1, count=self.p, bitorder="little")
        with np.errstate(over="ignore", invalid="ignore"):
            values = base + pinned @ terms
        if not np.all(np.isfinite(values)):
            raise ModelError("a pinned set's relaxed prediction overflows; rescale the response")
        return values.tolist()


def relaxed_prediction(
    predictor: Predictor,
    dataset: Dataset,
    x_new: Sequence[Cell],
    fixed: Iterable[int],
) -> float:
    """Mean hybrid-row score with `fixed` coordinates pinned to x_new.

    `fixed` holds the pinned feature indices; its complement follows the
    empirical distribution of the whole dataset, row by row.
    """
    p, mask = dataset.n_features, 0
    for j in map(int, fixed):
        if not 0 <= j < p:
            raise SchemaError(f"feature index {j} out of range for {p} features")
        mask |= 1 << j
    return RelaxedValues(predictor, dataset, x_new).means([mask])[0]


@dataclass(frozen=True, eq=False)
class TraceStep:
    """One relaxation step: the pinned set, the feature changed to reach it,
    and the full conditional score distribution over hybrid rows."""

    fixed: frozenset[int]
    relaxed_feature: int | None
    scores: np.ndarray

    @property
    def mean(self) -> float:
        """The mean score, as the engine takes it; that of equal scores (the
        full step's n copies of f(x_new)) is their score, which `np.mean` may
        miss in the last bits."""
        scores = self.scores
        equal = scores.min() == scores.max()
        return float(scores[0]) if equal else _finite_mean(scores, "a pinned set's scores")


@dataclass(frozen=True, eq=False)
class RelaxationTrace:
    direction: str
    feature_names: tuple[str, ...]
    steps: tuple[TraceStep, ...]

    def to_json_dict(self) -> dict:
        return {
            "direction": self.direction,
            "steps": [
                {
                    "fixed": sorted(step.fixed),
                    "relaxed_feature": step.relaxed_feature,
                    "scores": step.scores.tolist(),
                    "mean": step.mean,
                }
                for step in self.steps
            ],
        }


def relaxation_trace(
    predictor: Predictor,
    dataset: Dataset,
    x_new: Sequence[Cell],
    order: Sequence[int],
    direction: str = DOWN,
) -> RelaxationTrace:
    """Walk the pinned set along `order`, recording every conditional
    score distribution.

    Down starts fully pinned and releases features in `order` until none are
    pinned; Up starts unpinned and pins them instead. Either way the trace
    has len(order) + 1 steps and consecutive pinned sets differ by exactly
    one feature. `order` must be a permutation of the feature indices.
    """
    p = dataset.n_features
    if sorted(order) != list(range(p)):
        raise SchemaError("order must be a permutation of all feature indices")
    if direction not in (DOWN, UP):
        raise SchemaError(f"unknown direction {direction!r}")

    values = RelaxedValues(predictor, dataset, x_new)
    start = values.full if direction == DOWN else 0
    masks = list(accumulate((1 << int(j) for j in order), xor, initial=start))
    # the sets no walk left in the row go to the scorer together;
    # the full set's one row x_new is the score of each of its n hybrid rows
    scores = values.arrays(masks)
    scores = [np.repeat(s, values.n) if m == values.full else s for m, s in zip(masks, scores)]
    fixed = [frozenset(j for j in range(p) if m >> j & 1) for m in masks]
    relaxed = [None, *(int(j) for j in order)]
    return RelaxationTrace(
        direction=direction,
        feature_names=dataset.feature_names,
        steps=tuple(map(TraceStep, fixed, relaxed, scores)),
    )

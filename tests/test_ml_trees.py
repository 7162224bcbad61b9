"""Bit-identity pins of the tree learners: ML5, ML6, ML7, ML18 and the QoR forest.

``tests/fixtures/tree_golden.json`` freezes, for a few seeded data sets
(tie-heavy integer features and targets, mirrored feature columns, the
10 x 68 shape of an AutoAx QoR training set, and up to 48 smooth rows),
every tree each model grows and the exact bytes its predictions return:

* each tree's pre-order node table ``[feature, threshold, value]`` (leaves
  carry feature ``-1`` and threshold ``0.0``), stored as a digest per tree
  plus the full table of the first tree, thresholds and values as exact
  ``repr`` strings;
* ``predict`` (and, for the forests, ``predict_with_std``) on batches of
  1, 4, 5 and 20 query rows, whose values sit on training values, on the
  midpoints between them (exactly on split thresholds) and outside the
  training range.

The QoR forest restored from its fitted-state payload, after a trip
through JSON text (what the engine's ``fit`` cache stores), is checked
against the fitted forest's entries: same trees, same prediction bytes.

A split search or tree walk that drifts by a single ulp, or breaks a tie
between equally scored partitions the other way, fails here: the seeds of
the AutoAx-shaped and smooth sets are ones on which a split search that
squares with ``x*x`` and skips the scalar re-score grows different trees.  The
hypothesis suite checks ``DecisionTreeRegressor._best_split`` against the
scalar loop it replaced, kept below as :func:`reference_best_split`.

Regenerate (only after an intentional change of the tree learners)::

    PYTHONPATH=src python tests/test_ml_trees.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autoax.estimators import QorEstimator
from repro.ml import DecisionTreeRegressor, build_model
from repro.ml.tree import stack_trees, walk_trees

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "tree_golden.json"

MODEL_SEED = 7
BATCH_SIZES = (1, 4, 5, 20)


def _autoax_shaped(seed: int, rows: int = 10):
    """A QoR training set shaped like AutoAx's: 15 slots x 4 features + 8 aggregates."""
    rng = np.random.default_rng(seed)
    multipliers = np.column_stack(
        [
            rng.uniform(0.0, 40.0, 6).round(3),
            rng.integers(20, 90, 6),
            rng.uniform(2.0, 6.0, 6).round(2),
            rng.uniform(0.5, 3.0, 6).round(2),
        ]
    )
    adders = np.column_stack(
        [
            rng.uniform(0.0, 4.0, 5).round(3),
            rng.integers(8, 20, 5),
            rng.uniform(1.0, 2.0, 5).round(2),
            rng.uniform(0.1, 0.6, 5).round(2),
        ]
    )
    grouped = np.concatenate(
        [
            multipliers[rng.integers(0, 6, size=(rows, 9))],
            adders[rng.integers(0, 5, size=(rows, 6))],
        ],
        axis=1,
    )
    X = np.concatenate(
        [grouped.reshape(rows, -1), grouped.sum(axis=1), grouped.max(axis=1)], axis=1
    )
    quality = 1.0 - 0.002 * grouped[:, :, 0].sum(axis=1) + rng.normal(scale=0.01, size=rows)
    return X, np.clip(quality, 0.0, 1.0)


def _ties(seed: int, rows: int, cols: int, levels: int):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(rows, cols)).astype(np.float64)
    return X, rng.integers(-2, 3, size=rows).astype(np.float64)


def _mirrored(seed: int, rows: int):
    """Columns 1 and 3 mirror columns 0 and 2, so their partitions score alike."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 5, size=rows).astype(np.float64)
    b = rng.permutation(rows).astype(np.float64)
    X = np.column_stack([a, 4.0 - a, b, rows - b])
    return X, rng.normal(size=rows).round(1)


def _smooth(seed: int, rows: int):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(rows, 4))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 - 0.3 * X[:, 2] + rng.normal(scale=0.05, size=rows)
    return X, y


DATASETS = {
    "ties_12x3": lambda: _ties(1, 12, 3, 4),
    "ties_30x5": lambda: _ties(2, 30, 5, 3),
    "mirrored_16x4": lambda: _mirrored(3, 16),
    "autoax_10x68": lambda: _autoax_shaped(22),
    "autoax_24x68": lambda: _autoax_shaped(2, rows=24),
    "smooth_48x4": lambda: _smooth(3, 48),
}

MODELS = {
    "ML5": lambda names: build_model("ML5", names, random_state=MODEL_SEED),
    "ML6": lambda names: build_model("ML6", names, random_state=MODEL_SEED),
    "ML7": lambda names: build_model("ML7", names, random_state=MODEL_SEED),
    "ML18": lambda names: build_model("ML18", names, random_state=MODEL_SEED),
    "qor_forest": lambda names: QorEstimator().model,
}
#: Restored models and the fitted model whose fixture entries they must match.
RESTORED = {"qor_forest_restored": "qor_forest"}
WITH_STD = ("ML5", "qor_forest", "qor_forest_restored")


def query_rows(X: np.ndarray, seed: int, count: int = max(BATCH_SIZES)) -> np.ndarray:
    """Rows whose values are training values, midpoints between them or outside the range."""
    rng = np.random.default_rng(seed)
    columns = []
    for column in X.T:
        values = np.unique(column)
        candidates = np.concatenate(
            [values, 0.5 * (values[:-1] + values[1:]), [values[0] - 1.0, values[-1] + 1.0]]
        )
        columns.append(rng.choice(candidates, size=count))
    return np.column_stack(columns)


def tree_tables(model) -> list:
    """Pre-order ``[feature, repr(threshold), repr(value)]`` rows of every tree
    of a fitted model, read from its stacked node arrays (a restored forest
    keeps only those)."""
    trees = model.trees_ if hasattr(model, "trees_") else stack_trees([model])
    bounds = trees.roots.tolist() + [trees.value.size]
    return [
        [
            [int(feature), repr(float(threshold)), repr(float(value))]
            for feature, threshold, value in zip(
                trees.feature[start:end], trees.threshold[start:end], trees.value[start:end]
            )
        ]
        for start, end in zip(bounds, bounds[1:])
    ]


def fitted(model_id: str, X: np.ndarray, y: np.ndarray):
    source = RESTORED.get(model_id)
    if source is None:
        return MODELS[model_id]([f"f{i}" for i in range(X.shape[1])]).fit(X, y)
    payload = json.loads(json.dumps(fitted(source, X, y).to_payload()))
    return MODELS[source]([]).restored(payload)


def _digest(table: list) -> str:
    return hashlib.blake2b(json.dumps(table).encode(), digest_size=16).hexdigest()


def _exact(values) -> list:
    array = np.asarray(values)
    assert array.dtype == np.float64
    return [repr(float(value)) for value in array]


def snapshot(dataset: str, model_id: str) -> dict:
    """Node tables and prediction reprs of one model fitted on one data set."""
    X, y = DATASETS[dataset]()
    model = fitted(model_id, X, y)
    tables = tree_tables(model)
    Q = query_rows(X, seed=0)
    entry = {
        "trees": [_digest(table) for table in tables],
        "first_tree": tables[0],
        "predict": {str(size): _exact(model.predict(Q[:size])) for size in BATCH_SIZES},
    }
    if model_id in WITH_STD:
        entry["predict_with_std"] = {
            str(size): [_exact(part) for part in model.predict_with_std(Q[:size])]
            for size in BATCH_SIZES
        }
    return entry


@pytest.fixture(scope="module")
def fixture_data():
    with FIXTURE_PATH.open() as handle:
        return json.load(handle)["datasets"]


@pytest.mark.parametrize("model_id", sorted(MODELS) + sorted(RESTORED))
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_trees_and_predictions_match_frozen_fixture(dataset, model_id, fixture_data):
    expected = fixture_data[dataset][RESTORED.get(model_id, model_id)]
    actual = snapshot(dataset, model_id)
    assert actual["first_tree"] == expected["first_tree"]
    assert len(actual["trees"]) == len(expected["trees"])
    for index, (got, want) in enumerate(zip(actual["trees"], expected["trees"])):
        assert got == want, f"tree {index} of {model_id} on {dataset} drifted"
    assert actual["predict"] == expected["predict"]
    assert actual.get("predict_with_std") == expected.get("predict_with_std")


def test_fixture_pins_grown_trees(fixture_data):
    """Every pinned first tree splits at its root, and some grow to 15+ nodes."""
    tables = [
        fixture_data[dataset][model_id]["first_tree"]
        for dataset in DATASETS
        for model_id in MODELS
    ]
    assert max(len(table) for table in tables) >= 15
    assert all(table[0][0] >= 0 for table in tables)


def test_walk_trees_matches_every_member_tree():
    X, y = DATASETS["smooth_48x4"]()
    forest = build_model("ML5", [], random_state=MODEL_SEED).fit(X, y)
    Q = query_rows(X, seed=1)
    walked = walk_trees(forest.trees_, Q)
    assert walked.shape == (len(forest.estimators_), len(Q))
    for row, tree in zip(walked, forest.estimators_):
        assert row.tobytes() == tree.predict(Q).tobytes()
    assert walk_trees(forest.trees_, Q[:0]).shape == (len(forest.estimators_), 0)
    assert forest.predict(Q[:0]).shape == (0,)


# --------------------------------------------------------------------- #
# The split search against the scalar loop it replaced
# --------------------------------------------------------------------- #
def reference_best_split(X, y, feature_indices, min_samples_leaf):
    """Scalar split search: features outer, positions inner, NumPy-scalar arithmetic."""
    n_samples = X.shape[0]
    parent_score = float(np.sum((y - y.mean()) ** 2))
    best = None
    best_score = parent_score - 1e-12
    for feature in feature_indices:
        order = np.argsort(X[:, feature], kind="mergesort")
        x_sorted = X[order, feature]
        y_sorted = y[order]
        prefix = np.cumsum(y_sorted)
        prefix_sq = np.cumsum(y_sorted ** 2)
        total = prefix[-1]
        total_sq = prefix_sq[-1]
        for split in range(min_samples_leaf, n_samples - min_samples_leaf + 1):
            if split < 1 or split >= n_samples:
                continue
            if x_sorted[split - 1] == x_sorted[split]:
                continue
            left_sum = prefix[split - 1]
            left_sq = prefix_sq[split - 1]
            right_sum = total - left_sum
            right_sq = total_sq - left_sq
            left_score = left_sq - left_sum ** 2 / split
            right_score = right_sq - right_sum ** 2 / (n_samples - split)
            score = left_score + right_score
            if score < best_score:
                best_score = score
                threshold = 0.5 * (x_sorted[split - 1] + x_sorted[split])
                best = (int(feature), float(threshold))
    return best


@st.composite
def split_problems(draw):
    rows = draw(st.integers(1, 14))
    cols = draw(st.integers(1, 4))
    levels = draw(st.integers(1, 6))
    X = np.array(
        draw(
            st.lists(
                st.lists(st.integers(0, levels - 1), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        ),
        dtype=np.float64,
    )
    if draw(st.booleans()):
        # A mirror image of column 0: the same partitions, left and right swapped.
        X = np.column_stack([X, levels - 1.0 - X[:, 0]])
    if draw(st.booleans()):
        values = st.integers(-3, 3).map(float)
    else:
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    y = np.array(draw(st.lists(values, min_size=rows, max_size=rows)), dtype=np.float64)
    order = draw(st.permutations(range(X.shape[1])))
    features = np.array(order[: draw(st.integers(1, X.shape[1]))])
    leaf = draw(st.integers(1, 4))
    return X, y, features, leaf


@settings(max_examples=200, deadline=None)
@given(split_problems())
def test_best_split_matches_scalar_loop(problem):
    X, y, features, leaf = problem
    tree = DecisionTreeRegressor(min_samples_leaf=leaf)
    assert tree._best_split(X, y, features) == reference_best_split(X, y, features, leaf)


MIRRORED_X = np.array([[2.0, 3.0], [1.0, 4.0], [3.0, 1.0], [4.0, 2.0]])
MIRRORED_Y = np.array(
    [-1.0084101539588868, 1.4514849272952959, -0.5910328428476751, -0.11410296575326849]
)


def test_mirrored_partition_keeps_the_scalar_winner():
    # Both features split the rows into {0, 1} and {2, 3}, left and right
    # swapped.  The scalar loop scores feature 1 lower by one rounding step;
    # squaring with x*x instead of pow() flips the winner to feature 0.
    features = np.array([0, 1])
    expected = reference_best_split(MIRRORED_X, MIRRORED_Y, features, 2)
    assert expected == (1, 2.5)
    tree = DecisionTreeRegressor(min_samples_leaf=2)
    assert tree._best_split(MIRRORED_X, MIRRORED_Y, features) == expected
    tree.fit(MIRRORED_X, MIRRORED_Y)
    assert tree_tables(tree)[0][0][:2] == [1, "2.5"]


if __name__ == "__main__":
    document = {
        "_comment": (
            "Frozen tree node tables and prediction reprs. Regenerate ONLY for an "
            "intentional change of the tree learners: see tests/test_ml_trees.py."
        ),
        "datasets": {
            dataset: {model_id: snapshot(dataset, model_id) for model_id in sorted(MODELS)}
            for dataset in sorted(DATASETS)
        },
    }
    FIXTURE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE_PATH}")

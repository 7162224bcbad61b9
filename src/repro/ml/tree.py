"""CART regression trees (ML18) -- also the base learner of the ensembles.

A fitted tree is five flat arrays indexed by node, filled in pre-order (a
node, then its left subtree, then its right one; the root is node 0):
``feature_`` (-1 at a leaf), ``threshold_`` (0.0 at a leaf), ``left_`` and
``right_`` (child indices, -1 at a leaf) and ``value_`` (the mean target of
the node's training rows).  Prediction has one path, :func:`walk_trees`: it
walks every tree of an ensemble at once, level by level, over the node
arrays :func:`stack_trees` concatenates once after fitting, and returns the
``(n_trees, n_rows)`` matrix of leaf values the ensembles reduce.

The split search scores every (feature, split position) pair of a node in
one NumPy pass, then re-scores the pairs within rounding distance of the
best with the scalar arithmetic of a plain loop over features and
positions, so every tree is bit-identical to the one that loop grows (the
loop is kept as the reference in ``tests/test_ml_trees.py``).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .base import Regressor

#: Screen width of the split search, in units of ``eps * sum(y**2)``: every
#: term of a split score is at most ``sum(y**2)``, so the array and scalar
#: scores of one split differ by a few of these units at most.
_RESCORE_SLACK = 64 * np.finfo(np.float64).eps


def check_tree_params(
    min_samples_leaf: int, max_features: Optional[float] = None, none_ok: bool = True
) -> None:
    """Reject a leaf size below 1 and a feature fraction outside (0, 1].

    ``max_features=None`` (every feature at every split) is accepted only
    when ``none_ok``.
    """
    if min_samples_leaf < 1:
        raise ValueError("min_samples_leaf must be at least 1")
    if max_features is None:
        if not none_ok:
            raise ValueError("max_features must be in (0, 1]")
    elif not 0.0 < max_features <= 1.0:
        raise ValueError("max_features must be None or in (0, 1]")


#: Element type of each :class:`TreeArrays` field.
_NODE_DTYPES = {
    "feature": np.intp,
    "threshold": np.float64,
    "left": np.intp,
    "right": np.intp,
    "value": np.float64,
    "roots": np.intp,
}


class TreeArrays(NamedTuple):
    """Node arrays of one or more fitted trees; ``roots`` holds each tree's root."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray

    def to_payload(self) -> dict:
        """The arrays as JSON-able lists (exact: see :meth:`Regressor.to_payload`)."""
        return {name: array.tolist() for name, array in zip(self._fields, self)}

    @classmethod
    def from_payload(cls, payload: dict) -> "TreeArrays":
        return cls(*(np.array(payload[name], dtype=_NODE_DTYPES[name]) for name in cls._fields))


def stack_trees(trees: Sequence["DecisionTreeRegressor"]) -> TreeArrays:
    """Concatenate the node arrays of fitted trees, child indices shifted to match."""
    roots = np.cumsum([0] + [tree.value_.size for tree in trees], dtype=np.intp)[:-1]

    def joined(name: str, shift: bool = False) -> np.ndarray:
        parts = [getattr(tree, f"{name}_") for tree in trees]
        if shift:
            parts = [np.where(part >= 0, part + root, -1) for part, root in zip(parts, roots)]
        return np.concatenate([np.empty(0, dtype=_NODE_DTYPES[name]), *parts])

    return TreeArrays(
        feature=joined("feature"),
        threshold=joined("threshold"),
        left=joined("left", shift=True),
        right=joined("right", shift=True),
        value=joined("value"),
        roots=roots,
    )


def walk_trees(trees: TreeArrays, X: np.ndarray) -> np.ndarray:
    """Leaf value of every row in every tree, as an ``(n_trees, n_rows)`` matrix.

    All (tree, row) pairs descend together, one level per step; a step
    touches only the pairs still at an internal node.
    """
    n_rows = X.shape[0]
    node = np.repeat(trees.roots, n_rows)
    row = np.tile(np.arange(n_rows), trees.roots.size)
    active = np.flatnonzero(trees.feature[node] >= 0)
    while active.size:
        current = node[active]
        goes_left = X[row[active], trees.feature[current]] <= trees.threshold[current]
        node[active] = np.where(goes_left, trees.left[current], trees.right[current])
        active = active[trees.feature[node[active]] >= 0]
    return trees.value[node].reshape(trees.roots.size, n_rows)


class DecisionTreeRegressor(Regressor):
    """Binary regression tree grown by greedy variance reduction.

    Supports depth / sample-count stopping rules and per-split random feature
    subsampling (``max_features``), which the random forest uses for
    decorrelation.
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: Optional[float] = None,
        random_state: int = 0,
    ):
        super().__init__()
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        check_tree_params(min_samples_leaf, max_features)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    # ------------------------------------------------------------------ #
    def _best_split(self, X: np.ndarray, y: np.ndarray, feature_indices: np.ndarray):
        """Best (feature, threshold) by weighted-variance reduction, or None.

        Split position ``p`` puts the ``p`` lowest rows of a feature on the
        left; prefix sums over each column-sorted target score every position
        at once.  Squaring an array computes ``x*x`` while the reference
        loop's scalar ``x ** 2`` calls ``pow``, which can differ in the last
        bit -- enough to flip the winner between two features that split off
        the same rows.  So the pairs whose array score is within the rounding
        slack of the minimum are re-scored with Python floats (the loop's
        arithmetic, bit for bit), features outer and positions inner, and the
        first strictly lowest score below the parent's wins, as in the loop.
        """
        n_samples = X.shape[0]
        first = max(self.min_samples_leaf, 1)
        last = min(n_samples - self.min_samples_leaf, n_samples - 1)
        if first > last:
            return None
        columns = X[:, feature_indices]
        order = np.argsort(columns, axis=0, kind="stable")
        x_sorted = np.take_along_axis(columns, order, axis=0)
        y_sorted = y[order]
        prefix = np.cumsum(y_sorted, axis=0)
        prefix_sq = np.cumsum(y_sorted ** 2, axis=0)

        positions = np.arange(first, last + 1)[:, None]
        left_sum = prefix[first - 1 : last]
        left_sq = prefix_sq[first - 1 : last]
        right_sum = prefix[-1] - left_sum
        right_sq = prefix_sq[-1] - left_sq
        scores = (left_sq - left_sum ** 2 / positions) + (
            right_sq - right_sum ** 2 / (n_samples - positions)
        )
        scores[x_sorted[first - 1 : last] == x_sorted[first : last + 1]] = np.inf
        lowest = scores.min()
        if lowest == np.inf:
            return None

        # Candidates in scan order: transposed, nonzero walks features outer.
        limit = lowest + _RESCORE_SLACK * prefix_sq[-1].max()
        cols, rows = np.nonzero(scores.T <= limit)
        splits = rows + first
        candidates = zip(
            splits.tolist(),
            prefix[splits - 1, cols].tolist(),
            prefix_sq[splits - 1, cols].tolist(),
            prefix[-1, cols].tolist(),
            prefix_sq[-1, cols].tolist(),
        )
        best = None
        best_score = float(np.sum((y - y.mean()) ** 2)) - 1e-12
        for index, (split, left_sum, left_sq, total, total_sq) in enumerate(candidates):
            right_sum = total - left_sum
            right_sq = total_sq - left_sq
            score = (left_sq - left_sum ** 2 / split) + (
                right_sq - right_sum ** 2 / (n_samples - split)
            )
            if score < best_score:
                best, best_score = index, score
        if best is None:
            return None
        split, col = splits[best], cols[best]
        low, high = float(x_sorted[split - 1, col]), float(x_sorted[split, col])
        return int(feature_indices[col]), 0.5 * (low + high)

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator, nodes):
        """Append the subtree grown on ``(X, y)`` to ``nodes`` in pre-order."""
        node = [-1, 0.0, -1, -1, float(y.mean())]
        nodes.append(node)
        if (
            depth >= self.max_depth
            or X.shape[0] < self.min_samples_split
            or np.all(y == y[0])
        ):
            return

        n_features = X.shape[1]
        if self.max_features is None:
            feature_indices = np.arange(n_features)
        else:
            count = max(1, int(round(self.max_features * n_features)))
            feature_indices = rng.choice(n_features, size=count, replace=False)

        split = self._best_split(X, y, feature_indices)
        if split is None:
            return
        feature, threshold = split
        mask = X[:, feature] <= threshold
        if mask.sum() < self.min_samples_leaf or (~mask).sum() < self.min_samples_leaf:
            return
        node[0], node[1], node[2] = feature, threshold, len(nodes)
        self._grow(X[mask], y[mask], depth + 1, rng, nodes)
        node[3] = len(nodes)
        self._grow(X[~mask], y[~mask], depth + 1, rng, nodes)

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.random_state)
        nodes = []
        self._grow(X, y, depth=0, rng=rng, nodes=nodes)
        feature, threshold, left, right, value = zip(*nodes)
        self.feature_ = np.array(feature, dtype=np.intp)
        self.threshold_ = np.array(threshold, dtype=np.float64)
        self.left_ = np.array(left, dtype=np.intp)
        self.right_ = np.array(right, dtype=np.intp)
        self.value_ = np.array(value, dtype=np.float64)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return walk_trees(stack_trees([self]), X)[0]

    def depth(self) -> int:
        """Actual depth of the grown tree."""
        depths = np.zeros(self.feature_.size, dtype=np.intp)
        # Pre-order puts every child after its parent: sweep backwards.
        for node in range(self.feature_.size - 1, -1, -1):
            if self.feature_[node] >= 0:
                depths[node] = 1 + max(depths[self.left_[node]], depths[self.right_[node]])
        return int(depths[0])

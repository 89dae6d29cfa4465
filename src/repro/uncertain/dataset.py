"""A collection of independent uncertain points plus its ambient metric."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .._validation import as_rng, check_same_dimension
from ..exceptions import NotSupportedError, ValidationError
from ..metrics.base import Metric
from ..metrics.euclidean import EuclideanMetric
from .point import UncertainPoint


@dataclass(frozen=True)
class LocationLayout:
    """The locations of a dataset's points flattened into aligned rows.

    Row ``r`` is location ``locations[r]`` of point ``owners[r]`` with
    probability ``probabilities[r]``; each point's rows are contiguous and in
    point order, and ``starts`` holds the first row of every point after the
    first.  Every array is read-only, so numpy raises on a caller that
    writes into the shared layout.
    """

    locations: np.ndarray
    probabilities: np.ndarray
    owners: np.ndarray
    starts: np.ndarray

    @classmethod
    def of(cls, points: Sequence[UncertainPoint]) -> "LocationLayout":
        """Stack ``points`` into one layout (the only place that stacks them)."""
        return cls.stacked(
            np.vstack([point.locations for point in points]),
            np.concatenate([point.probabilities for point in points]),
            [point.support_size for point in points],
        )

    @classmethod
    def stacked(
        cls, locations: np.ndarray, probabilities: np.ndarray, sizes: Sequence[int]
    ) -> "LocationLayout":
        """The layout of already stacked rows, ``sizes[i]`` of them for point ``i``."""
        counts = np.asarray(sizes)
        arrays = (
            locations,
            probabilities,
            np.repeat(np.arange(counts.shape[0]), counts),
            np.cumsum(counts)[:-1],
        )
        for array in arrays:
            array.setflags(write=False)
        return cls(*arrays)

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """Per-point views of an array whose first axis runs over the rows."""
        return split_rows(values, self.starts.tolist())


def split_rows(values: np.ndarray, starts: list[int]) -> list[np.ndarray]:
    """The views ``np.split(values, starts)`` returns, at a fraction of its cost.

    Blocks of equal size (every point with the same support size) come from
    one reshape, ragged ones from plain slicing.  This matters where pickled
    objects re-slice their stacked per-point lists on load.
    """
    bounds = [0, *starts, values.shape[0]]
    size = bounds[1]
    if size and bounds == list(range(0, values.shape[0] + 1, size)):
        return list(values.reshape(len(bounds) - 1, size, *values.shape[1:]))
    return [values[start:stop] for start, stop in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class UncertainDataset:
    """An ordered collection of independent uncertain points.

    The dataset also carries the metric of the ambient space so that cost
    computations, assignments and solvers agree on distances without passing
    the metric separately everywhere.
    """

    points: tuple[UncertainPoint, ...]
    metric: Metric = field(default_factory=EuclideanMetric)

    def __post_init__(self) -> None:
        if not isinstance(self.points, tuple):
            object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) == 0:
            raise ValidationError("an uncertain dataset needs at least one point")
        for point in self.points:
            if not isinstance(point, UncertainPoint):
                raise ValidationError(f"expected UncertainPoint, got {type(point).__name__}")
        check_same_dimension(*(point.locations for point in self.points))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_locations(
        cls,
        locations: Sequence[Sequence[Sequence[float]]],
        probabilities: Sequence[Sequence[float]] | None = None,
        metric: Metric | None = None,
        labels: Sequence[str] | None = None,
    ) -> "UncertainDataset":
        """Build a dataset from nested location/probability lists.

        ``locations[i]`` is the list of candidate locations of point ``i``;
        ``probabilities[i]`` the matching probabilities (uniform if omitted).
        """
        points = []
        for index, location_list in enumerate(locations):
            label = labels[index] if labels is not None else f"P{index}"
            if probabilities is None:
                points.append(UncertainPoint.uniform(location_list, label=label))
            else:
                points.append(
                    UncertainPoint(
                        locations=np.asarray(location_list, dtype=float),
                        probabilities=np.asarray(probabilities[index], dtype=float),
                        label=label,
                    )
                )
        return cls(points=tuple(points), metric=metric or EuclideanMetric())

    @classmethod
    def from_certain_points(cls, points: np.ndarray, metric: Metric | None = None) -> "UncertainDataset":
        """Wrap a deterministic point set as degenerate uncertain points."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        wrapped = tuple(UncertainPoint.certain(row, label=f"P{i}") for i, row in enumerate(points))
        return cls(points=wrapped, metric=metric or EuclideanMetric())

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of uncertain points (the paper's ``n``)."""
        return len(self.points)

    @property
    def dimension(self) -> int:
        """Dimension of the ambient space."""
        return self.points[0].dimension

    @property
    def max_support_size(self) -> int:
        """The paper's ``z = max_i z_i``."""
        return max(point.support_size for point in self.points)

    @property
    def total_locations(self) -> int:
        """Total number of locations across every point (``sum_i z_i``)."""
        return sum(point.support_size for point in self.points)

    @property
    def realization_count(self) -> int:
        """Number of distinct realizations ``prod_i z_i`` (may be huge)."""
        count = 1
        for point in self.points:
            count *= point.support_size
        return count

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[UncertainPoint]:
        return iter(self.points)

    def __getitem__(self, index: int) -> UncertainPoint:
        return self.points[index]

    # ------------------------------------------------------------------
    # Stacked views used by solvers
    # ------------------------------------------------------------------
    def location_layout(self) -> LocationLayout:
        """Every location of every point in one flat layout, built once.

        The layout is cached on the dataset outside its fields: it is not
        part of ``==``, ``hash``, ``repr`` or :meth:`to_dict`, and the
        pickled state is the same stacked rows whether or not it was built
        before, so a dataset pickles to the same bytes before and after its
        first cost call.  Two threads may both build it on first use; the
        build is deterministic, so either result serves.
        """
        layout = self.__dict__.get("_location_layout")
        if layout is None:
            layout = LocationLayout.of(self.points)
            object.__setattr__(self, "_location_layout", layout)
        return layout

    def __getstate__(self) -> dict[str, Any]:
        """Pickled state: the layout's two stacked arrays, not one pair per point.

        Pickle protocol 5 then ships a dataset as two out-of-band buffers
        however many points it has.
        """
        layout = self.location_layout()
        return {
            "locations": layout.locations,
            "probabilities": layout.probabilities,
            "sizes": tuple(point.support_size for point in self.points),
            "labels": tuple(point.label for point in self.points),
            "metadata": tuple(point.metadata for point in self.points),
            "metric": self.metric,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        """Rebuild the points as views of the stacked rows, keeping the layout.

        The rows were validated when the points were first built; running
        the validators again would copy every view (and may renormalise).
        """
        layout = LocationLayout.stacked(state["locations"], state["probabilities"], state["sizes"])
        points = []
        for locations, probabilities, label, metadata in zip(
            layout.split(layout.locations),
            layout.split(layout.probabilities),
            state["labels"],
            state["metadata"],
        ):
            point = object.__new__(UncertainPoint)
            fields = point.__dict__
            fields["locations"], fields["probabilities"] = locations, probabilities
            fields["label"], fields["metadata"] = label, metadata
            points.append(point)
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "metric", state["metric"])
        object.__setattr__(self, "_location_layout", layout)

    def all_locations(self) -> np.ndarray:
        """Every location of every point stacked into one ``(N, d)`` array.

        Cached in :meth:`location_layout`: read-only and shared by every
        caller (copy before writing).
        """
        return self.location_layout().locations

    def location_owners(self) -> np.ndarray:
        """For each row of :meth:`all_locations`, the owning point index.

        Cached in :meth:`location_layout`: read-only.
        """
        return self.location_layout().owners

    def all_probabilities(self) -> np.ndarray:
        """Location probabilities aligned with :meth:`all_locations`.

        Cached in :meth:`location_layout`: read-only.
        """
        return self.location_layout().probabilities

    def expected_points(self) -> np.ndarray:
        """The paper's ``P̄_1 .. P̄_n`` stacked into an ``(n, d)`` array.

        Raises
        ------
        NotSupportedError
            If the dataset's metric does not support expected points (finite
            metrics); use the 1-center representatives instead.
        """
        if not self.metric.supports_expected_point:
            raise NotSupportedError(
                "expected points require a normed vector space metric; "
                "use one_center_representatives() for general metric spaces"
            )
        return np.vstack([point.expected_point() for point in self.points])

    # ------------------------------------------------------------------
    # Sampling and serialization
    # ------------------------------------------------------------------
    def sample_realization(self, rng: int | np.random.Generator | None = None) -> np.ndarray:
        """Draw one realization: an ``(n, d)`` array, one location per point."""
        generator = as_rng(rng)
        return np.vstack([point.sample(generator) for point in self.points])

    def sample_realizations(self, count: int, rng: int | np.random.Generator | None = None) -> np.ndarray:
        """Draw ``count`` realizations as a ``(count, n, d)`` array."""
        generator = as_rng(rng)
        realizations = np.empty((count, self.size, self.dimension))
        for point_index, point in enumerate(self.points):
            indices = generator.choice(point.support_size, p=point.probabilities, size=count)
            realizations[:, point_index, :] = point.locations[indices]
        return realizations

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation (metric is *not* serialized)."""
        return {"points": [point.to_dict() for point in self.points]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any], metric: Metric | None = None) -> "UncertainDataset":
        """Inverse of :meth:`to_dict`."""
        points = tuple(UncertainPoint.from_dict(entry) for entry in payload.get("points", []))
        if not points:
            raise ValidationError("dataset payload contains no points")
        return cls(points=points, metric=metric or EuclideanMetric())

    def save_json(self, path: str | Path) -> None:
        """Write the dataset to a JSON file."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load_json(cls, path: str | Path, metric: Metric | None = None) -> "UncertainDataset":
        """Read a dataset previously written by :meth:`save_json`."""
        payload = json.loads(Path(path).read_text())
        return cls.from_dict(payload, metric=metric)

    # ------------------------------------------------------------------
    # Convenience transformations
    # ------------------------------------------------------------------
    def subset(self, indices: Iterable[int]) -> "UncertainDataset":
        """Dataset restricted to the uncertain points at ``indices``."""
        chosen = tuple(self.points[i] for i in indices)
        return UncertainDataset(points=chosen, metric=self.metric)

    def with_metric(self, metric: Metric) -> "UncertainDataset":
        """Same points, different ambient metric."""
        return UncertainDataset(points=self.points, metric=metric)

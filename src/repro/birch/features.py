"""Clustering Features (CF) and Association Clustering Features (ACF).

A *Clustering Feature* (Eq. 3, after [ZRL96]) summarizes a set of points by
``(N, LS, SS)`` — count, per-dimension linear sum, and per-dimension sum of
squares.  CFs are additive: the CF of a union is the component-wise sum
(the Additivity Theorem), which is what lets BIRCH cluster in one pass.

The paper's extension (Section 6.1, Eq. 7) is the *Association Clustering
Feature*: a CF over the clustering partition ``X`` plus, for every other
attribute partition ``Y``, the cross moments ``(sum t[Y], sum t[Y]^2)`` of
the same tuples.  The Additivity Theorem extends to ACFs, and by the ACF
Representativity Theorem (Thm 6.1) the D1/D2 distances between cluster
*images* needed in Phase II are all derivable from ACFs alone.

We additionally carry per-dimension min/max over ``X``.  Min/max is additive
under union (though not subtractive, which BIRCH never needs) and gives the
smallest-bounding-box cluster description Section 7.2 recommends over bare
centroids.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.metrics.cluster import (
    d1_from_moments,
    rms_d2_from_moments,
    rms_diameter_from_moments,
    rms_radius_from_moments,
)

__all__ = ["CF", "ACF", "merged_rms_diameter"]


class CF:
    """The (N, LS, SS) summary of Eq. (3).

    ``ss`` is stored per-dimension; the scalar sum of squared norms used in
    the BIRCH distance formulas is :attr:`ss_total`.
    """

    __slots__ = ("n", "ls", "ss")

    def __init__(self, n: int, ls: np.ndarray, ss: np.ndarray):
        self.n = int(n)
        self.ls = np.asarray(ls, dtype=np.float64)
        self.ss = np.asarray(ss, dtype=np.float64)
        if self.ls.shape != self.ss.shape:
            raise ValueError("LS and SS must have the same shape")
        if self.n < 0:
            raise ValueError("CF count must be non-negative")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, dimension: int) -> "CF":
        """An empty CF of the given dimension."""
        return cls(0, np.zeros(dimension), np.zeros(dimension))

    @classmethod
    def of_point(cls, point: np.ndarray) -> "CF":
        """The CF summarizing a single point."""
        point = np.asarray(point, dtype=np.float64)
        return cls(1, point.copy(), point * point)

    @classmethod
    def of_points(cls, points: np.ndarray) -> "CF":
        """The CF summarizing every row of ``points`` at once."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return cls(points.shape[0], points.sum(axis=0), (points * points).sum(axis=0))

    def copy(self) -> "CF":
        """An independent deep copy."""
        return CF(self.n, self.ls.copy(), self.ss.copy())

    # ------------------------------------------------------------------
    # Additivity
    # ------------------------------------------------------------------

    def add_point(self, point: np.ndarray) -> None:
        """Absorb one point into the summary, in place."""
        point = np.asarray(point, dtype=np.float64)
        self.n += 1
        self.ls += point
        self.ss += point * point

    def merge(self, other: "CF") -> None:
        """In-place union (the Additivity Theorem)."""
        self.n += other.n
        self.ls += other.ls
        self.ss += other.ss

    def merged(self, other: "CF") -> "CF":
        """The union of two CFs as a new object (additivity)."""
        return CF(self.n + other.n, self.ls + other.ls, self.ss + other.ss)

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------

    @property
    def dimension(self) -> int:
        """Number of attributes summarized."""
        return self.ls.shape[0]

    @property
    def ss_total(self) -> float:
        """Scalar sum of squares over all dimensions."""
        return float(self.ss.sum())

    @property
    def centroid(self) -> np.ndarray:
        """Mean of the summarized points; raises on an empty CF."""
        if self.n == 0:
            raise ValueError("centroid of an empty CF is undefined")
        return self.ls / self.n

    @property
    def rms_diameter(self) -> float:
        """BIRCH's D statistic — see :mod:`repro.metrics.cluster`."""
        return rms_diameter_from_moments(self.n, self.ls, self.ss_total)

    @property
    def rms_radius(self) -> float:
        """BIRCH's R statistic (RMS distance to the centroid)."""
        return rms_radius_from_moments(self.n, self.ls, self.ss_total)

    @property
    def variance(self) -> np.ndarray:
        """Per-dimension (biased) variance of the summarized points."""
        if self.n == 0:
            raise ValueError("variance of an empty CF is undefined")
        mean = self.ls / self.n
        return np.maximum(self.ss / self.n - mean * mean, 0.0)

    def d1(self, other: "CF") -> float:
        """Eq. (5) between the two summarized sets."""
        return d1_from_moments(self.n, self.ls, other.n, other.ls)

    def rms_d2(self, other: "CF") -> float:
        """RMS form of Eq. (6) between the two summarized sets."""
        return rms_d2_from_moments(
            self.n, self.ls, self.ss_total, other.n, other.ls, other.ss_total
        )

    def centroid_distance(self, other: "CF") -> float:
        """Euclidean distance between centroids (BIRCH's D0)."""
        return float(np.linalg.norm(self.centroid - other.centroid))

    # ------------------------------------------------------------------
    # Checkpoint state (repro.resilience.checkpoint)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Plain-builtin state for checkpoints.

        Floats are emitted as Python floats; their shortest ``repr`` (what
        JSON writes) round-trips every finite float64 exactly, so a
        restored CF is bit-identical to the saved one.
        """
        return {"n": self.n, "ls": self.ls.tolist(), "ss": self.ss.tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "CF":
        """Rebuild from :meth:`state_dict` output, bit-exact."""
        return cls(
            int(state["n"]),
            np.asarray(state["ls"], dtype=np.float64),
            np.asarray(state["ss"], dtype=np.float64),
        )

    def __repr__(self) -> str:
        return f"CF(n={self.n}, centroid={self.ls / self.n if self.n else None})"


def merged_rms_diameter(a: CF, b: CF) -> float:
    """RMS diameter of the union of two CFs, without materializing it."""
    n = a.n + b.n
    if n < 2:
        return 0.0
    ls = a.ls + b.ls
    ss = a.ss_total + b.ss_total
    return rms_diameter_from_moments(n, ls, ss)


class ACF:
    """Association Clustering Feature (Section 6.1).

    An ACF is a CF over the clustering partition plus cross moments for
    every other partition, plus a bounding box over the clustering
    partition.  ``cross`` maps a partition name to a CF over that
    partition's attributes describing *the same tuples* projected there.
    """

    __slots__ = ("cf", "cross", "lo", "hi")

    def __init__(
        self,
        cf: CF,
        cross: Optional[Dict[str, CF]] = None,
        lo: Optional[np.ndarray] = None,
        hi: Optional[np.ndarray] = None,
    ):
        self.cf = cf
        self.cross: Dict[str, CF] = dict(cross or {})
        for name, cross_cf in self.cross.items():
            if cross_cf.n != cf.n:
                raise ValueError(
                    f"cross moments for {name!r} cover {cross_cf.n} tuples, "
                    f"but the CF covers {cf.n}"
                )
        if lo is None:
            lo = np.full(cf.dimension, np.inf)
        if hi is None:
            hi = np.full(cf.dimension, -np.inf)
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)

    @classmethod
    def of_point(cls, point: np.ndarray, cross_values: Mapping[str, np.ndarray]) -> "ACF":
        """The ACF of one point plus its cross-partition values."""
        point = np.asarray(point, dtype=np.float64)
        cross = {name: CF.of_point(values) for name, values in cross_values.items()}
        return cls(CF.of_point(point), cross, lo=point.copy(), hi=point.copy())

    @classmethod
    def of_points(
        cls, points: np.ndarray, cross_points: Mapping[str, np.ndarray]
    ) -> "ACF":
        """The ACF of the rows of ``points`` with their cross values."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        cross = {name: CF.of_points(values) for name, values in cross_points.items()}
        return cls(
            CF.of_points(points),
            cross,
            lo=points.min(axis=0),
            hi=points.max(axis=0),
        )

    def copy(self) -> "ACF":
        """An independent deep copy (primary, cross CFs and bounds)."""
        return ACF(
            self.cf.copy(),
            {name: cf.copy() for name, cf in self.cross.items()},
            lo=self.lo.copy(),
            hi=self.hi.copy(),
        )

    # ------------------------------------------------------------------
    # Additivity (extended Additivity Theorem)
    # ------------------------------------------------------------------

    def add_point(self, point: np.ndarray, cross_values: Mapping[str, np.ndarray]) -> None:
        """Absorb one point and its cross-partition values, in place."""
        point = np.asarray(point, dtype=np.float64)
        # The check must hold even for an empty ACF: its ``cross`` keys are
        # the declared layout, and letting the first point redefine it would
        # silently contradict the owning tree's ``cross_dimensions``.
        if set(cross_values) != set(self.cross):
            raise ValueError(
                f"cross partitions {sorted(cross_values)} do not match ACF's "
                f"{sorted(self.cross)}"
            )
        self.cf.add_point(point)
        for name, values in cross_values.items():
            self.cross[name].add_point(values)
        np.minimum(self.lo, point, out=self.lo)
        np.maximum(self.hi, point, out=self.hi)

    def merge(self, other: "ACF") -> None:
        """In-place union (extended Additivity Theorem, Thm 6.1)."""
        if set(other.cross) != set(self.cross):
            raise ValueError("cannot merge ACFs with different cross partitions")
        self.cf.merge(other.cf)
        for name, cross_cf in other.cross.items():
            self.cross[name].merge(cross_cf)
        np.minimum(self.lo, other.lo, out=self.lo)
        np.maximum(self.hi, other.hi, out=self.hi)

    def merged(self, other: "ACF") -> "ACF":
        """The union of two ACFs as a new object."""
        result = self.copy()
        result.merge(other)
        return result

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of tuples summarized."""
        return self.cf.n

    @property
    def centroid(self) -> np.ndarray:
        """Centroid on the ACF's own partition."""
        return self.cf.centroid

    @property
    def rms_diameter(self) -> float:
        """RMS diameter on the ACF's own partition."""
        return self.cf.rms_diameter

    def bounding_box(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` copies of the exact per-dimension bounds."""
        if self.n == 0:
            raise ValueError("bounding box of an empty ACF is undefined")
        return self.lo.copy(), self.hi.copy()

    def image(self, partition_name: str, own_name: str) -> CF:
        """The CF of this cluster's image on ``partition_name`` (Thm 6.1).

        ``own_name`` identifies the partition the ACF clusters on; asking
        for it returns the primary CF, anything else the cross moments.
        """
        if partition_name == own_name:
            return self.cf
        try:
            return self.cross[partition_name]
        except KeyError:
            raise KeyError(
                f"ACF has no cross moments for partition {partition_name!r}; "
                f"available: {sorted(self.cross)}"
            ) from None

    # ------------------------------------------------------------------
    # Checkpoint state (repro.resilience.checkpoint)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Plain-builtin state for checkpoints (see :meth:`CF.state_dict`)."""
        return {
            "cf": self.cf.state_dict(),
            "cross": {name: cf.state_dict() for name, cf in self.cross.items()},
            "lo": self.lo.tolist(),
            "hi": self.hi.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "ACF":
        """Rebuild from :meth:`state_dict` output."""
        return cls(
            CF.from_state(state["cf"]),
            {name: CF.from_state(cf) for name, cf in state["cross"].items()},
            lo=np.asarray(state["lo"], dtype=np.float64),
            hi=np.asarray(state["hi"], dtype=np.float64),
        )

    def __reduce__(self):
        """Pickle as one float64 vector: parallel workers ship ACFs home.

        Layout ``lo, hi, LS, SS`` of the primary CF, then ``LS, SS`` of
        each cross CF in ``cross`` order.  Unpickling slices views out of
        that vector, bit-exact, without a per-array pickle record.
        """
        cfs = (self.cf, *self.cross.values())
        moments = [self.lo, self.hi]
        for cf in cfs:
            moments += (cf.ls, cf.ss)
        return (
            _unpack_acf,
            (
                tuple(self.cross),
                [cf.n for cf in cfs],
                [cf.dimension for cf in cfs],
                np.concatenate(moments),
            ),
        )

    def __repr__(self) -> str:
        return f"ACF(n={self.n}, cross={sorted(self.cross)})"


def _unpack_acf(names, counts, dimensions, values: np.ndarray) -> ACF:
    """Rebuild an :class:`ACF` from :meth:`ACF.__reduce__`'s vector."""
    own = dimensions[0]
    lo, hi = values[:own], values[own : 2 * own]
    offset = 2 * own
    cfs = []
    for n, dimension in zip(counts, dimensions):
        middle = offset + dimension
        cfs.append(CF(n, values[offset:middle], values[middle : middle + dimension]))
        offset = middle + dimension
    return ACF(cfs[0], dict(zip(names, cfs[1:])), lo=lo, hi=hi)

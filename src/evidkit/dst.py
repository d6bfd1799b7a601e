"""Dempster-Shafer calculus over small finite frames.

Focal sets are encoded as bitmasks over the frame's singletons, so a frame
of K hypotheses admits subsets 0 .. 2**K - 1 and all set algebra is integer
bit twiddling.  Frames are limited to K <= 16: everything here enumerates
subsets exactly, which is only sensible at that scale.

Mass functions are immutable value objects; every operation returns a new
one.  All stored masses are strictly positive, the empty set never appears
as a key, and the total is kept at 1 within 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyFocal,
    FrameMismatch,
    InvalidFocal,
    NegativeMass,
    OutOfRange,
    TotalConflict,
    ZeroTotal,
)

MAX_FRAME_SIZE = 16
_PRUNE_EPS = 1e-15
_TOTAL_EPS = 1e-12


@dataclass(frozen=True)
class Frame:
    """Finite set of K mutually exclusive hypotheses."""

    size: int

    def __post_init__(self):
        if not 1 <= self.size <= MAX_FRAME_SIZE:
            raise OutOfRange(f"frame size must be in [1, {MAX_FRAME_SIZE}], got {self.size}")

    @property
    def full_set(self) -> int:
        return (1 << self.size) - 1

    def singleton(self, k: int) -> int:
        if not 0 <= k < self.size:
            raise FrameMismatch(f"singleton index {k} outside frame of size {self.size}")
        return 1 << k

    def members(self, focal: int) -> list[int]:
        return [k for k in range(self.size) if focal >> k & 1]


@dataclass(frozen=True)
class MassFunction:
    """Sparse mass assignment: bitmask -> mass, positive entries only."""

    frame: Frame
    masses: dict[int, float] = field(default_factory=dict)

    def __getitem__(self, focal: int) -> float:
        return self.masses.get(focal, 0.0)

    def focal_sets(self) -> list[int]:
        return sorted(self.masses)

    def total(self) -> float:
        return math.fsum(self.masses.values())


@dataclass(frozen=True)
class WeightedSimpleMass:
    """Simple support: all mass on one proper subset plus the frame.

    The weight is the log-scale amount of evidence; expanding gives
    mass 1 - exp(-weight) on the focal set and exp(-weight) on the frame.
    """

    frame: Frame
    focal: int
    weight: float

    def __post_init__(self):
        if self.weight < 0:
            raise OutOfRange(f"weight of evidence must be >= 0, got {self.weight}")
        _check_subset(self.frame, self.focal)
        if self.focal == 0 or self.focal == self.frame.full_set:
            raise InvalidFocal("simple mass needs a proper nonempty focal set")


def _check_subset(frame: Frame, focal: int) -> None:
    if focal < 0 or focal > frame.full_set:
        raise FrameMismatch(f"subset {focal:#b} outside frame of size {frame.size}")


def _check_same_frame(m1: MassFunction, m2: MassFunction) -> None:
    if m1.frame.size != m2.frame.size:
        raise FrameMismatch(f"frames of size {m1.frame.size} and {m2.frame.size}")


def _normalized(frame: Frame, raw: dict[int, float]) -> MassFunction:
    """Prune tiny entries and renormalize to total 1."""
    kept = {a: v for a, v in raw.items() if v > _PRUNE_EPS}
    total = math.fsum(kept.values())
    if total < _TOTAL_EPS:
        raise ZeroTotal(f"total mass {total} below {_TOTAL_EPS}")
    return MassFunction(frame, {a: v / total for a, v in kept.items()})


def make_mass(frame: Frame, entries) -> MassFunction:
    """Build a normalized mass function from (focal bitmask, mass) pairs.

    Duplicate focal sets accumulate.  Entries below 1e-15 are dropped and
    the rest renormalized; a total below 1e-12 is an error.
    """
    raw: dict[int, float] = {}
    for focal, value in entries:
        _check_subset(frame, focal)
        if focal == 0:
            raise EmptyFocal("mass on the empty set is forbidden")
        if value < 0:
            raise NegativeMass(f"mass {value} on subset {focal:#b}")
        raw[focal] = raw.get(focal, 0.0) + float(value)
    return _normalized(frame, raw)


def vacuous(frame: Frame) -> MassFunction:
    """Total ignorance: all mass on the full frame."""
    return MassFunction(frame, {frame.full_set: 1.0})


def discount(m: MassFunction, s: float) -> MassFunction:
    """Weaken m at rate 1-s: scale every focal mass by s, move the rest to the frame."""
    if not 0.0 <= s <= 1.0:
        raise OutOfRange(f"discount coefficient must be in [0, 1], got {s}")
    raw = {a: s * v for a, v in m.masses.items()}
    omega = m.frame.full_set
    raw[omega] = raw.get(omega, 0.0) + (1.0 - s)
    return _normalized(m.frame, raw)


def expand_simple(sm: WeightedSimpleMass) -> MassFunction:
    """Turn a weighted simple mass into an explicit mass function."""
    support = -math.expm1(-sm.weight)  # 1 - exp(-w), accurate for small w
    raw = {sm.focal: support, sm.frame.full_set: math.exp(-sm.weight)}
    return _normalized(sm.frame, raw)


def belief(m: MassFunction, subset: int) -> float:
    """Sum of masses of focal sets contained in the subset."""
    _check_subset(m.frame, subset)
    return math.fsum(v for a, v in m.masses.items() if a & ~subset == 0)


def plausibility(m: MassFunction, subset: int) -> float:
    """Sum of masses of focal sets intersecting the subset.

    Also checks the duality Pl(A) = 1 - Bel(complement of A) as an internal
    consistency guard.
    """
    _check_subset(m.frame, subset)
    pl = math.fsum(v for a, v in m.masses.items() if a & subset)
    dual = 1.0 - belief(m, m.frame.full_set & ~subset)
    assert abs(pl - dual) < 1e-12, f"plausibility duality violated: {pl} vs {dual}"
    return pl


def conflict(m1: MassFunction, m2: MassFunction) -> float:
    """Total product mass falling on the empty set before normalization."""
    _check_same_frame(m1, m2)
    return math.fsum(
        v1 * v2 for a, v1 in m1.masses.items() for b, v2 in m2.masses.items() if a & b == 0
    )


def combine_dempster(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Normalized conjunctive combination of two independent mass functions."""
    _check_same_frame(m1, m2)
    raw: dict[int, float] = {}
    kappa = 0.0
    for a, v1 in m1.masses.items():
        for b, v2 in m2.masses.items():
            inter = a & b
            if inter == 0:
                kappa += v1 * v2
            else:
                raw[inter] = raw.get(inter, 0.0) + v1 * v2
    if kappa >= 1.0 - _TOTAL_EPS:
        raise TotalConflict(f"degree of conflict {kappa} leaves nothing to renormalize")
    return _normalized(m1.frame, raw)


def pignistic(m: MassFunction) -> np.ndarray:
    """Probability vector splitting each focal mass equally among its members."""
    p = np.zeros(m.frame.size)
    for a, v in m.masses.items():
        members = m.frame.members(a)
        share = v / len(members)
        for k in members:
            p[k] += share
    assert abs(p.sum() - 1.0) < 1e-12
    return p


"""Duration functions (Section 2 of the paper).

A *duration function* ``t_v(r)`` gives the time needed to complete job ``v``
when ``r`` units of resource are routed through it.  The paper considers
three classes (all non-increasing in ``r``):

* **General non-increasing step functions** (Equation 1) -- an arbitrary
  finite list of resource-time tuples ``<r_i, t(r_i)>`` with ``r_1 = 0``.
* **k-way splitting** (Equation 2) -- the duration obtained by splitting the
  ``d = t_v(0)`` incoming updates of a memory cell across ``k`` extra cells
  (a one-level "fan-in" reducer).
* **Recursive binary splitting** (Equation 3) -- the duration obtained by a
  recursive binary reducer of height ``h`` (``r = 2^h`` extra cells).

All classes expose the same small interface:

``duration(r)``
    time needed with ``r`` units of resource (non-increasing in ``r``);
``tuples()``
    the canonical breakpoint list ``[(r_1, t_1), (r_2, t_2), ...]`` with
    ``r_1 = 0``, strictly increasing resources and strictly decreasing
    times -- exactly the representation consumed by the DAG transformations
    of Section 3.1;
``max_useful_resource()``
    the smallest ``r`` attaining the minimum duration;
``base_duration`` / ``min_duration()``
    ``t(0)`` and ``min_r t(r)``.

Durations may be ``math.inf`` (used by the hardness gadgets of Section 4 and
Appendix A for "impossible without resource" activities).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Sequence, Tuple

from repro.utils.validation import ValidationError, check_non_negative, require

__all__ = [
    "DurationFunction",
    "GeneralStepDuration",
    "ConstantDuration",
    "ZERO_DURATION",
    "KWaySplitDuration",
    "RecursiveBinarySplitDuration",
    "LOG2_LOG2_E",
    "recursive_binary_height_bound",
]

#: ``log2(log2(e))`` -- the constant appearing in the optimal reducer height
#: ``k = floor(log2 t_v(0) - log2 log2 e)`` of Equation 3.
LOG2_LOG2_E = math.log2(math.log2(math.e))

ResourceTimeTuple = Tuple[float, float]


class DurationFunction(ABC):
    """Abstract non-increasing duration function ``t(r)``.

    Subclasses must provide :meth:`duration` and :meth:`tuples`.  The other
    helpers are derived from those two primitives.
    """

    @abstractmethod
    def duration(self, resource: float) -> float:
        """Return the duration when ``resource`` units are available."""

    @abstractmethod
    def tuples(self) -> List[ResourceTimeTuple]:
        """Return the canonical resource-time breakpoints.

        The list always starts with ``(0, t(0))``; resources are strictly
        increasing and times strictly decreasing, matching Equation 1.
        """

    # -- derived helpers -------------------------------------------------
    def __call__(self, resource: float) -> float:
        return self.duration(resource)

    @property
    def base_duration(self) -> float:
        """Duration with no extra resource, ``t(0)``."""
        return self.duration(0)

    def min_duration(self) -> float:
        """The smallest achievable duration, ``min_r t(r)``."""
        return self.tuples()[-1][1]

    def max_useful_resource(self) -> float:
        """Smallest resource level attaining :meth:`min_duration`."""
        return self.tuples()[-1][0]

    def num_tuples(self) -> int:
        """Number of breakpoints ``l_v`` (Section 2)."""
        return len(self.tuples())

    def resource_levels(self) -> List[float]:
        """The breakpoint resource values ``r_{v,1} < r_{v,2} < ...``."""
        return [r for r, _ in self.tuples()]

    def validate(self) -> None:
        """Check the Equation-1 invariants of :meth:`tuples`.

        Raises
        ------
        ValidationError
            If the first breakpoint is not at resource 0, resources are not
            strictly increasing, or times are not strictly decreasing.
        """
        tups = self.tuples()
        require(len(tups) >= 1, "duration function must have at least one tuple")
        require(tups[0][0] == 0, "first resource-time tuple must have resource 0")
        for (r1, t1), (r2, t2) in zip(tups, tups[1:]):
            require(r2 > r1, f"resource breakpoints must strictly increase ({r1} !< {r2})")
            require(t2 < t1, f"durations must strictly decrease ({t1} !> {t2})")
        for r, t in tups:
            check_non_negative(r, "resource breakpoint")
            if not math.isinf(t):
                check_non_negative(t, "duration value")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.tuples()!r})"


def _envelope(pairs: Sequence[ResourceTimeTuple]) -> List[ResourceTimeTuple]:
    """Reduce ``pairs`` to the canonical strictly-decreasing step envelope.

    Duplicated resource levels keep their best (smallest) time; breakpoints
    that do not strictly improve on the running minimum are dropped.  The
    result satisfies the Equation-1 invariants checked by
    :meth:`DurationFunction.validate`.
    """
    best: dict = {}
    for r, t in pairs:
        if r in best:
            best[r] = min(best[r], t)
        else:
            best[r] = t
    out: List[ResourceTimeTuple] = []
    current = math.inf
    for r in sorted(best):
        t = best[r]
        if not out:
            out.append((r, t))
            current = t
        elif t < current:
            out.append((r, t))
            current = t
    return out


class _StepDuration(DurationFunction):
    """The library's duration classes: a canonical breakpoint list fixed at build.

    ``_tuples`` never changes once an object is built, so :meth:`validate`
    runs its checks once per object and then remembers that they passed.
    Subclasses defined elsewhere are checked on every call, since they may
    not keep that promise.
    """

    _tuples: List[ResourceTimeTuple]
    _validated = False

    def duration(self, resource: float) -> float:
        check_non_negative(resource, "resource")
        result = self._tuples[0][1]
        for r, t in self._tuples:
            if resource >= r:
                result = t
            else:
                break
        return result

    def tuples(self) -> List[ResourceTimeTuple]:
        return list(self._tuples)

    @property
    def base_duration(self) -> float:
        """``t(0)``: the first breakpoint's time, read without a search."""
        return self._tuples[0][1]

    def validate(self) -> None:
        if not self._validated:
            super().validate()
            self._validated = type(self) in _LIBRARY_CLASSES


class GeneralStepDuration(_StepDuration):
    """General non-increasing step function of Equation 1.

    Parameters
    ----------
    pairs:
        Iterable of ``(resource, time)`` tuples.  A tuple at resource 0 is
        required (it defines ``t(0)``).  Redundant breakpoints (those that
        do not strictly improve the duration) are silently dropped so the
        stored representation is canonical.

    Examples
    --------
    >>> f = GeneralStepDuration([(0, 10), (2, 4), (5, 1)])
    >>> f(0), f(1), f(2), f(4), f(5), f(100)
    (10, 10, 4, 4, 1, 1)
    """

    def __init__(self, pairs: Sequence[ResourceTimeTuple]):
        pairs = [(r, t) for r, t in pairs]
        require(len(pairs) >= 1, "GeneralStepDuration requires at least one tuple")
        for r, t in pairs:
            check_non_negative(r, "resource breakpoint")
            if not (isinstance(t, (int, float)) and (math.isinf(t) or t >= 0)):
                raise ValidationError(f"duration must be a non-negative number or inf, got {t!r}")
        self._tuples = _envelope(pairs)
        require(self._tuples[0][0] == 0, "a tuple with resource 0 is required")
        self.validate()

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneralStepDuration) and self._tuples == other._tuples

    def __hash__(self) -> int:
        return hash(tuple(self._tuples))


class ConstantDuration(GeneralStepDuration):
    """A duration that cannot be improved by resources (single tuple).

    Dummy arcs introduced by the activity-on-arc transformation (Section 2)
    all share the one zero duration :data:`ZERO_DURATION`.
    """

    def __init__(self, value: float = 0.0):
        super().__init__([(0, value)])
        self.value = value


class KWaySplitDuration(_StepDuration):
    """k-way splitting duration function (Equation 2).

    A k-way split reducer distributes the ``d = t(0)`` incoming updates of a
    node across ``k`` extra cells (``2 <= k <= floor(sqrt(d))`` useful
    levels), each of which is later folded into the node, giving

    ``t(k) = ceil(d / k) + k``.

    Beyond ``k = floor(sqrt(d))`` no further improvement is possible.  The
    exact Equation-2 expression is not monotone in the last one or two
    integer steps before ``sqrt(d)`` for some ``d``; as in the paper we treat
    the duration function as non-increasing, so this class exposes the
    *monotone (running-minimum) envelope* of Equation 2, which agrees with
    Equation 2 wherever Equation 2 is itself non-increasing.

    Parameters
    ----------
    base_work:
        ``d = t(0)``, the number of updates received by the node (its
        in-degree in the race DAG).
    """

    def __init__(self, base_work: int):
        require(isinstance(base_work, int) and not isinstance(base_work, bool),
                "base_work must be an integer")
        require(base_work >= 0, "base_work must be non-negative")
        self.base_work = base_work
        d = base_work
        pairs: List[ResourceTimeTuple] = [(0, float(d))]
        kmax = int(math.isqrt(d)) if d > 0 else 0
        for k in range(2, kmax + 1):
            pairs.append((float(k), float(math.ceil(d / k) + k)))
        self._tuples = _envelope(pairs)

    def raw_equation2(self, resource: float) -> float:
        """The literal Equation-2 value (possibly non-monotone near sqrt(d))."""
        d = self.base_work
        k = int(resource)
        if k in (0, 1):
            return float(d)
        kmax = int(math.isqrt(d)) if d > 0 else 0
        if kmax < 2:
            return float(d)
        if k <= kmax:
            return float(math.ceil(d / k) + k)
        return float(math.ceil(d / kmax) + kmax)


def recursive_binary_height_bound(base_work: float) -> int:
    """Largest useful height exponent ``k = floor(log2 d - log2 log2 e)``.

    This is the value of ``k`` in Equation 3 beyond which increasing the
    reducer height no longer decreases ``ceil(d / 2^k) + k + 1``.
    Returns 0 when ``d`` is too small for any reducer to help.
    """
    if base_work <= 1:
        return 0
    k = int(math.floor(math.log2(base_work) - LOG2_LOG2_E))
    return max(k, 0)


class RecursiveBinarySplitDuration(_StepDuration):
    """Recursive binary splitting duration function (Equation 3).

    A recursive binary reducer of height ``i`` (``2^i`` units of extra
    space in the formalisation of Section 2) applies the ``d = t(0)``
    updates in time ``ceil(d / 2^i) + i + 1``.  The useful heights are
    ``i = 1 .. k`` with ``k = floor(log2 d - log2 log2 e)``; beyond that the
    ``+ i`` additive term dominates.

    The breakpoints are therefore at resources ``0`` and ``2^i`` for the
    heights that strictly improve the duration, and ``duration(r)`` is the
    step function through those breakpoints (constant between powers of
    two), exactly as in Equation 3.

    Parameters
    ----------
    base_work:
        ``d = t(0)``, the number of updates received by the node.
    """

    def __init__(self, base_work: int):
        require(isinstance(base_work, int) and not isinstance(base_work, bool),
                "base_work must be an integer")
        require(base_work >= 0, "base_work must be non-negative")
        self.base_work = base_work
        d = base_work
        self.height_bound = recursive_binary_height_bound(d)
        pairs: List[ResourceTimeTuple] = [(0, float(d))]
        for i in range(1, self.height_bound + 1):
            pairs.append((float(2 ** i), float(math.ceil(d / 2 ** i) + i + 1)))
        self._tuples = _envelope(pairs)

    def duration_at_height(self, height: int) -> float:
        """Duration with a reducer of height ``height`` (Equation 3 row)."""
        check_non_negative(height, "height")
        d = self.base_work
        if height == 0:
            return float(d)
        h = min(int(height), self.height_bound) if self.height_bound else 0
        if h == 0:
            return float(d)
        return float(math.ceil(d / 2 ** h) + h + 1)


#: The classes whose objects :meth:`_StepDuration.validate` checks only once.
_LIBRARY_CLASSES = frozenset({GeneralStepDuration, ConstantDuration,
                              KWaySplitDuration, RecursiveBinarySplitDuration})

#: The zero duration every dummy (pure-precedence) arc shares; like every
#: library duration it never changes once built, so one object serves all.
ZERO_DURATION = ConstantDuration(0.0)

"""Arithmetic of strictly increasing maps N -> N, stored by their breakpoints.

A map rho is stored by where its shift rho(i) - i grows: ``starts`` lists
those sources, ascending, and ``shifts`` the running shift with a leading 0,
so rho(i) = i + shifts[bisect_right(starts, i)].  The form is canonical, and
its size is the number of breakpoints, not the largest index: both
x[10**6] -> x[10**6 + 1] and x[0] -> x[10**6] are one breakpoint.  Every such
map has cofinite image, so it also has a unique weakly increasing word in the
shift generators t_i, where t_i skips the value i:

    t_i(j) = j for j < i,  j + 1 for j >= i.

That word is each start repeated by its shift increment (``map_to_tau``).
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from operator import neg


def _breakpoints(sources, targets):
    """``(starts, shifts)`` of ``extend_partial(sources, targets)``, or None."""
    starts, shifts, last = [], [0], 0
    for s, t in zip(sources, targets):
        d = t - s
        if d > last:
            starts.append(s)
            shifts.append(d)
            last = d
        elif d < last:
            return None
    return tuple(starts), tuple(shifts)


@dataclass(frozen=True, init=False)
class IncMap:
    """A strictly increasing map on the naturals, stored by its breakpoints.

    ``IncMap(values)`` is the map with image ``values[i]`` at ``i`` on the
    prefix given and step 1 beyond it; ``IncMap(())`` is the identity.
    Structural equality coincides with functional equality.
    """

    starts: tuple
    shifts: tuple

    def __init__(self, values=()):
        breakpoints = _breakpoints(range(len(values)), values)
        if breakpoints is None:
            raise ValueError("values must be strictly increasing naturals")
        object.__setattr__(self, "starts", breakpoints[0])
        object.__setattr__(self, "shifts", breakpoints[1])

    def __call__(self, i):
        return i + self.shifts[bisect_right(self.starts, i)]

    @property
    def is_identity(self):
        return not self.starts


IDENTITY = IncMap(())


def compose(a: IncMap, b: IncMap) -> IncMap:
    """The map a o b (apply b first).

    Its shift can grow only at a start of b or where b reaches a start of a,
    at s - d for a start s of a and a shift d of b; it is sampled there.
    """
    if a.is_identity:
        return b
    if b.is_identity:
        return a
    points = sorted({*b.starts, *(s - d for s in a.starts for d in b.shifts if s >= d)})
    return extend_partial(points, [a(b(p)) for p in points])


def extend_partial(sources, targets):
    """Minimal increasing map sending sources[k] to targets[k], or None.

    ``sources`` must be strictly increasing.  Elsewhere the map keeps the
    shift of the nearest source below (0 below the first), the smallest
    increasing choice; a breakpoint is recorded where targets[k] - sources[k]
    grows.  Returns None where it shrinks: no increasing map through the
    given points exists.
    """
    breakpoints = _breakpoints(sources, targets)
    if breakpoints is None:
        return None
    rho = object.__new__(IncMap)  # past __init__, which reads values
    object.__setattr__(rho, "starts", breakpoints[0])
    object.__setattr__(rho, "shifts", breakpoints[1])
    return rho


def increasing_maps(d, n):
    """Yield the strictly increasing maps from {0..d-1} into {0..n-1}, lazily:
    there are C(n, d).  Raises ValueError on the first draw when d > n."""
    if d > n:
        raise ValueError(f"no increasing maps from {d} points into {n}")
    for combo in itertools.combinations(range(n), d):
        yield IncMap(combo)


def map_to_tau(rho: IncMap):
    """The unique weakly increasing generator word of rho."""
    runs = zip(rho.starts, rho.shifts, rho.shifts[1:])
    return tuple(itertools.chain.from_iterable(itertools.repeat(s, e - d) for s, d, e in runs))


def word_key(rho: IncMap):
    """Sort key ordering maps as their value sequences do, and as their
    generator words negated letter by letter: the runs of the word,
    (-start, running shift), so O(breakpoints) however long the word."""
    return tuple(zip(map(neg, rho.starts), rho.shifts[1:]))

"""Arithmetic of strictly increasing maps N -> N and their shift-generator words.

An increasing map is stored by its values on an initial segment; beyond the
segment it continues with the minimal increasing extension (step 1).  Every
map represented this way has cofinite image, so it also has a unique weakly
increasing word in the shift generators t_i, where t_i skips the value i:

    t_i(j) = j for j < i,  j + 1 for j >= i.

Adjacent generators commute past each other via t_{j+1} t_i = t_i t_j for
j >= i, which is what makes the weakly increasing word unique.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce


def _trim(values):
    """Drop trailing entries implied by the minimal increasing extension."""
    vals = list(values)
    while vals:
        if len(vals) == 1:
            if vals[0] != 0:
                break
        elif vals[-1] != vals[-2] + 1:
            break
        vals.pop()
    return tuple(vals)


@dataclass(frozen=True)
class IncMap:
    """A strictly increasing map on the naturals, in canonical trimmed form.

    ``values[i]`` is the image of ``i`` for ``i < len(values)``; larger
    arguments follow the minimal increasing extension.  The empty tuple is
    the identity.  Structural equality coincides with functional equality.
    """

    values: tuple

    def __post_init__(self):
        vals = self.values
        for i, v in enumerate(vals):
            if v < 0 or (i > 0 and v <= vals[i - 1]):
                raise ValueError("values must be strictly increasing naturals")
        trimmed = _trim(vals)
        if trimmed != vals:
            object.__setattr__(self, "values", trimmed)

    def __call__(self, i):
        d = len(self.values)
        if i < d:
            return self.values[i]
        if d == 0:
            return i
        return self.values[-1] + (i - d + 1)

    @property
    def is_identity(self):
        return not self.values


IDENTITY = IncMap(())


def compose(a: IncMap, b: IncMap) -> IncMap:
    """The map a o b (apply b first), canonicalized."""
    if a.is_identity:
        return b
    if b.is_identity:
        return a
    span = len(a.values) + len(b.values) + 1
    return IncMap(tuple(a(b(i)) for i in range(span)))


def extend_partial(sources, targets):
    """Minimal increasing map sending sources[k] to targets[k], or None.

    Both argument sequences must be strictly increasing.  Unconstrained
    positions are filled with the smallest value keeping the map strictly
    increasing; returns None when no increasing map through the given
    points exists.
    """
    if not sources:
        return IDENTITY
    values = []
    prev = -1
    pos = 0
    for i in range(sources[-1] + 1):
        if pos < len(sources) and sources[pos] == i:
            v = targets[pos]
            if v <= prev:
                return None
            pos += 1
        else:
            v = prev + 1
            if pos < len(sources) and v > targets[pos] - (sources[pos] - i):
                return None
        values.append(v)
        prev = v
    return IncMap(tuple(values))


def increasing_maps(d, n):
    """All strictly increasing maps from {0..d-1} into {0..n-1}."""
    if d > n:
        raise ValueError(f"no increasing maps from {d} points into {n}")
    return [IncMap(combo) for combo in itertools.combinations(range(n), d)]


def tau(i):
    """The shift generator t_i as an increasing map."""
    return IncMap(tuple(range(i)) + (i + 1,))


def tau_to_map(word) -> IncMap:
    """Evaluate a generator word (left-to-right composition) to a map."""
    return reduce(compose, (tau(i) for i in word), IDENTITY)


def map_to_tau(rho: IncMap):
    """The unique weakly increasing generator word for a canonical map."""
    if rho.is_identity:
        return ()
    image = {rho(i) for i in range(len(rho.values))}
    missing = [v for v in range(rho.values[-1] + 1) if v not in image]
    return tuple(c - j for j, c in enumerate(missing))


def standard_form(word):
    """Rewrite an arbitrary generator word into its weakly increasing form."""
    return map_to_tau(tau_to_map(word))

"""Finite typed state spaces and their states.

A state space is an ordered list of variables, each ranging over a finite
integer interval or a fixed-size array of such intervals.  States are
immutable bindings of every variable to a value in its domain; array values
are tuples of ints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import CapacityError, RelcorError

#: Hard cap on enumerations (states of a space, pairs of a relation).
DEFAULT_CAP = 10**7


def hash_once(cls):
    """Make a frozen dataclass compute its structural hash on first use and
    keep it in the instance.

    The hash value is the one `dataclass` generates from the fields, so equal
    instances still hash equal; `__eq__`, `repr` and `dataclasses.fields` do
    not see the stored value.  This is sound only because instances are never
    mutated.  Pickled state leaves the value out: string hashes differ
    between processes, so a stored hash must not travel.
    """
    structural = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = structural(self)
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@dataclass(frozen=True)
class Interval:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise RelcorError(f"empty interval {self.lo}..{self.hi}")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, v) -> bool:
        return isinstance(v, int) and self.lo <= v <= self.hi

    def values(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1))


@dataclass(frozen=True)
class ArrayDomain:
    """Fixed-size array whose elements share one interval."""

    length: int
    elem: Interval

    def __post_init__(self):
        if self.length < 1:
            raise RelcorError("array length must be >= 1")

    @property
    def size(self) -> int:
        return self.elem.size ** self.length

    def __contains__(self, v) -> bool:
        return (
            isinstance(v, tuple)
            and len(v) == self.length
            and all(e in self.elem for e in v)
        )

    def values(self) -> Iterator[tuple]:
        return itertools.product(self.elem.values(), repeat=self.length)


@hash_once
@dataclass(frozen=True)
class StateSpace:
    """Ordered, uniquely named variables with finite domains."""

    vars: tuple  # of (name, Interval | ArrayDomain)

    def __post_init__(self):
        names = [n for n, _ in self.vars]
        if len(names) != len(set(names)):
            raise RelcorError(f"duplicate variable names in {names}")

    @property
    def names(self) -> tuple:
        return tuple(n for n, _ in self.vars)

    def domain_of(self, name: str):
        for n, d in self.vars:
            if n == name:
                return d
        raise KeyError(name)

    @property
    def num_states(self) -> int:
        n = 1
        for _, d in self.vars:
            n *= d.size
        return n

    def check_enumerable(self) -> None:
        if self.num_states > DEFAULT_CAP:
            raise CapacityError(
                f"state space has {self.num_states} states, over the cap of {DEFAULT_CAP}"
            )

    def states(self) -> Iterator["State"]:
        """All states in lexicographic order of the declared variables."""
        for combo in self.value_tuples():
            yield State(self, combo)

    def value_tuples(self) -> Iterator[tuple]:
        """The values of every state, in the order of `states`."""
        self.check_enumerable()
        return itertools.product(*(d.values() for _, d in self.vars))

    def state(self, bindings: dict) -> "State":
        """Build a state from a name->value map, validating domains."""
        if set(bindings) != set(self.names):
            raise RelcorError(
                f"bindings {sorted(bindings)} do not match variables {sorted(self.names)}"
            )
        values = []
        for name, dom in self.vars:
            v = bindings[name]
            if isinstance(v, list):
                v = tuple(v)
            if v not in dom:
                raise RelcorError(f"value {v!r} outside the domain of {name}")
            values.append(v)
        return State(self, tuple(values))

    def extend(self, name: str, dom) -> "StateSpace":
        """Space with one extra trailing variable (block locals)."""
        return StateSpace(self.vars + ((name, dom),))


@dataclass(frozen=True)
class State:
    space: StateSpace
    values: tuple

    def __getitem__(self, name: str):
        return self.values[self.space.names.index(name)]

    def bindings(self) -> dict:
        return dict(zip(self.space.names, self.values))

    def __repr__(self):
        inner = ", ".join(f"{n}={v}" for n, v in zip(self.space.names, self.values))
        return f"State({inner})"


@dataclass(frozen=True)
class StateSet:
    """A subset of a state space, e.g. dom(R) or a competence domain."""

    space: StateSpace
    members: frozenset

    def __contains__(self, s: State) -> bool:
        return s in self.members

    def __len__(self) -> int:
        return len(self.members)

    def sorted_states(self) -> list:
        return sorted(self.members, key=lambda s: s.values)

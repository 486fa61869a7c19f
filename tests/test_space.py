import dataclasses
import pickle

import pytest

from relcor.errors import CapacityError, RelcorError
from relcor.space import ArrayDomain, Interval, StateSpace


def test_interval_size_and_membership():
    iv = Interval(-2, 3)
    assert iv.size == 6
    assert -2 in iv and 3 in iv
    assert 4 not in iv and -3 not in iv


def test_interval_rejects_empty():
    with pytest.raises(RelcorError):
        Interval(5, 4)


def test_array_domain_size():
    dom = ArrayDomain(3, Interval(0, 1))
    assert dom.size == 8
    assert (0, 1, 0) in dom
    assert (0, 2, 0) not in dom
    assert (0, 1) not in dom


def two_var_space():
    return StateSpace((("x", Interval(0, 2)), ("y", Interval(0, 1))))


def test_state_count_is_product_of_domain_sizes():
    assert two_var_space().num_states == 6


def test_states_enumerate_lexicographically():
    sp = two_var_space()
    seen = [(s["x"], s["y"]) for s in sp.states()]
    assert seen == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def test_state_construction_validates_bindings():
    sp = two_var_space()
    s = sp.state({"x": 1, "y": 0})
    assert s["x"] == 1 and s["y"] == 0
    with pytest.raises(RelcorError):
        sp.state({"x": 3, "y": 0})
    with pytest.raises(RelcorError):
        sp.state({"x": 1})


def test_duplicate_variable_names_rejected():
    with pytest.raises(RelcorError):
        StateSpace((("x", Interval(0, 1)), ("x", Interval(0, 1))))


def test_capacity_guard():
    StateSpace((("x", Interval(1, 10**7)),)).check_enumerable()  # at the cap
    sp = StateSpace((("x", Interval(0, 10**7)),))
    with pytest.raises(CapacityError, match="over the cap of 10000000"):
        sp.check_enumerable()
    with pytest.raises(CapacityError):
        next(sp.states())


def test_bindings_map_names_to_values():
    sp = two_var_space()
    s = sp.state({"x": 0, "y": 1})
    assert s.bindings() == {"x": 0, "y": 1}


def test_extend_appends_a_variable():
    sp = two_var_space().extend("z", Interval(0, 0))
    assert sp.names == ("x", "y", "z")
    assert sp.num_states == 6


def test_stored_hash_stays_out_of_equality_repr_and_pickles():
    sp = StateSpace((("x", Interval(0, 3)),))
    fresh = StateSpace((("x", Interval(0, 3)),))
    h = hash(sp)  # stores the hash in `sp` only
    assert sp == fresh and hash(fresh) == h and repr(sp) == repr(fresh)
    assert [f.name for f in dataclasses.fields(sp)] == ["vars"]
    copy = pickle.loads(pickle.dumps(sp))
    assert "_hash" not in vars(copy)  # string hashes differ between processes
    assert copy == sp and hash(copy) == h

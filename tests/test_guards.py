"""Resource limits: immutable, scoped to a with block, private to a thread."""

import dataclasses
import threading

import pytest

from troplab import guards
from troplab.circuits import MINKOWSKI, Add, Circuit, Mul, Var, produced_set
from troplab.errors import GuardExceeded


def _doubling_circuit(levels: int) -> Circuit:
    # (x1 + x2) squared `levels` times: 2^levels + 1 produced vectors
    nodes = [("v1", Var(1)), ("v2", Var(2)), ("u", Add("v1", "v2"))]
    prev = "u"
    for i in range(levels):
        nodes.append((f"m{i}", Mul(prev, prev)))
        prev = f"m{i}"
    return Circuit(MINKOWSKI, 2, nodes, prev)


def test_defaults_and_immutability():
    lim = guards.current()
    assert lim == guards.Limits()
    assert (lim.produced_vectors, lim.dense_ground, lim.sidon_vectors, lim.matchings,
            lim.table_variables, lim.field_order) == (10**6, 24, 128, 10**5, 20, 1 << 16)
    with pytest.raises(dataclasses.FrozenInstanceError):
        lim.produced_vectors = 5


def test_limits_nest_and_restore_on_raise():
    with guards.limits(produced_vectors=10) as outer:
        assert guards.current() is outer
        assert outer == guards.Limits(produced_vectors=10)
        with pytest.raises(RuntimeError):
            with guards.limits(matchings=5):
                assert guards.current() == guards.Limits(produced_vectors=10, matchings=5)
                raise RuntimeError("inside")
        assert guards.current() is outer
    assert guards.current() == guards.Limits()


def test_unknown_limit_name_raises():
    with pytest.raises(TypeError):
        with guards.limits(produced_vector=10):
            pass
    assert guards.current() == guards.Limits()


def _attempt(c):
    try:
        return len(produced_set(c))
    except GuardExceeded as exc:
        return str(exc)


def test_two_threads_do_not_share_limits():
    c = _doubling_circuit(8)  # 257 vectors, 65 already at gate m5
    both_ready = threading.Barrier(2, timeout=10)
    both_done = threading.Barrier(2, timeout=10)
    outcome = {}

    def capped():
        with guards.limits(produced_vectors=50):
            both_ready.wait()
            outcome["capped"] = _attempt(c)
            both_done.wait()

    def default():
        both_ready.wait()  # the other thread is inside its limits block now
        outcome["limits"] = guards.current()
        outcome["default"] = _attempt(c)
        both_done.wait()

    threads = [threading.Thread(target=capped), threading.Thread(target=default)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert outcome == {
        "capped": "produced set exceeds 50 vectors at gate m5",
        "limits": guards.Limits(),
        "default": 257,
    }
    assert guards.current() == guards.Limits()

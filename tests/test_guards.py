"""Resource limits: immutable, scoped to a with block, private to a thread."""

import dataclasses
import sys
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


def _share_one_circuit(first):
    """Two threads attempt one Circuit, `first` to start; return both outcomes.

    The capped thread stays inside its limits block until both are done,
    so the other thread reads the limits while that block is open.
    """
    c = _doubling_circuit(8)  # 257 vectors, 65 already at gate m5
    both_ready = threading.Barrier(2, timeout=10)
    both_done = threading.Barrier(2, timeout=10)
    first_finished = threading.Event()
    outcome = {}

    def take_turn(name, attempt):
        both_ready.wait()
        if name != first:
            first_finished.wait(timeout=10)
        outcome[name] = attempt()
        if name == first:
            first_finished.set()
        both_done.wait()

    def capped():
        with guards.limits(produced_vectors=50):
            take_turn("capped", lambda: _attempt(c))

    def default():
        take_turn("default", lambda: (guards.current(), _attempt(c)))

    threads = [threading.Thread(target=capped), threading.Thread(target=default)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    return outcome


def test_two_threads_do_not_share_limits():
    # The default thread's cached set must not let the capped thread skip
    # its guard, and the capped thread's failure must not cache anything.
    for first in ("default", "capped"):
        assert _share_one_circuit(first) == {
            "capped": "produced set exceeds 50 vectors at gate m5",
            "default": (guards.Limits(), 257),
        }
    assert guards.current() == guards.Limits()


def test_threads_filling_one_cache_keep_their_own_limits():
    # more threads than cores, switching often, each filling or reading one
    # circuit's cached set five times under its own cap
    caps = (50, 100, 300, 10**6, 50, 300)
    want = {50: "produced set exceeds 50 vectors at gate m5",
            100: "produced set exceeds 100 vectors at gate m6",
            300: 257, 10**6: 257}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            c = _doubling_circuit(8)
            start = threading.Barrier(len(caps), timeout=10)
            got = [None] * len(caps)

            def attempt(i, cap):
                with guards.limits(produced_vectors=cap):
                    start.wait()
                    got[i] = {_attempt(c) for _ in range(5)}

            threads = [threading.Thread(target=attempt, args=item)
                       for item in enumerate(caps)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert got == [{want[cap]} for cap in caps]
    finally:
        sys.setswitchinterval(interval)

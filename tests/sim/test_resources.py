"""Unit tests: Container / Store."""

import pytest

from repro.errors import SimulationError
from repro.sim.resources import Container, Store
from tests.conftest import drive


# -- Container -----------------------------------------------------------------


def test_container_get_blocks_until_level(env):
    tank = Container(env, capacity=100, init=0)
    got = []

    def consumer(env):
        yield tank.get(30)
        got.append(env.now)

    def producer(env):
        yield env.timeout(1.0)
        tank.put(20)
        yield env.timeout(1.0)
        tank.put(20)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [2.0]
    assert tank.level == pytest.approx(10)


def test_container_overflow_rejected(env):
    tank = Container(env, capacity=10, init=5)
    with pytest.raises(SimulationError):
        tank.put(6)


def test_container_get_more_than_capacity_rejected(env):
    tank = Container(env, capacity=10)
    with pytest.raises(SimulationError):
        tank.get(11)


def test_container_fifo_getters(env):
    tank = Container(env, capacity=100, init=0)
    order = []

    def consumer(env, name, amount):
        yield tank.get(amount)
        order.append(name)

    env.process(consumer(env, "first", 50))
    env.process(consumer(env, "second", 10))

    def producer(env):
        yield env.timeout(1.0)
        tank.put(60)

    env.process(producer(env))
    env.run()
    # FIFO: even though 10 could be served first, "first" waits in line.
    assert order == ["first", "second"]


# -- Store ------------------------------------------------------------------------


def test_store_fifo(env):
    store = Store(env)
    store.put("a")
    store.put("b")

    def consumer(env):
        first = yield store.get()
        second = yield store.get()
        return (first, second)

    assert drive(env, consumer(env)) == ("a", "b")


def test_store_filtered_get_skips_nonmatching(env):
    store = Store(env)
    store.put({"tag": 1})
    store.put({"tag": 2})

    def consumer(env):
        item = yield store.get(lambda m: m["tag"] == 2)
        return item

    assert drive(env, consumer(env)) == {"tag": 2}
    assert store.items == [{"tag": 1}]


def test_store_get_blocks_until_put(env):
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((item, env.now))

    def producer(env):
        yield env.timeout(3.0)
        store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [("late", 3.0)]


def test_store_get_cancel_does_not_steal(env):
    store = Store(env)
    results = {}

    def canceller(env):
        get = store.get()
        yield env.timeout(1.0)
        get.cancel()
        results["cancelled"] = True

    def consumer(env):
        yield env.timeout(2.0)
        item = yield store.get()
        results["item"] = item

    def producer(env):
        yield env.timeout(3.0)
        store.put("payload")

    env.process(canceller(env))
    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert results == {"cancelled": True, "item": "payload"}


def test_store_multiple_filtered_getters(env):
    store = Store(env)
    got = {}

    def consumer(env, key):
        item = yield store.get(lambda m, key=key: m == key)
        got[key] = (item, env.now)

    env.process(consumer(env, "x"))
    env.process(consumer(env, "y"))

    def producer(env):
        yield env.timeout(1.0)
        store.put("y")
        yield env.timeout(1.0)
        store.put("x")

    env.process(producer(env))
    env.run()
    assert got["y"] == ("y", 1.0)
    assert got["x"] == ("x", 2.0)

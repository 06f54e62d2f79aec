"""Unit + property tests: the FairShare service (one-link flow engine).

The water-filling allocation itself is tested as one-link inputs to
``compute_maxmin_flow_rates`` in ``tests/network/test_flows.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.sim.core import Environment
from repro.sim.fairshare import FairShare


# -- FairShare service ----------------------------------------------------------


def test_single_task_full_rate(env):
    fs = FairShare(env, capacity=4.0)
    task = fs.submit(8.0)
    env.run()
    assert task.finished_at == pytest.approx(2.0)


def test_two_tasks_share(env):
    fs = FairShare(env, capacity=4.0)
    a = fs.submit(8.0)
    b = fs.submit(8.0)
    env.run()
    assert a.finished_at == pytest.approx(4.0)
    assert b.finished_at == pytest.approx(4.0)


def test_late_arrival_slows_first(env):
    fs = FairShare(env, capacity=2.0)
    results = {}

    def submit_late(env):
        yield env.timeout(1.0)
        task = fs.submit(2.0, label="late")
        yield task.done
        results["late"] = env.now

    first = fs.submit(4.0, label="first")
    env.process(submit_late(env))
    env.run()
    # First runs alone for 1 s (2 units), shares for 2 s (2 units): done at 3.
    assert first.finished_at == pytest.approx(3.0)
    assert results["late"] == pytest.approx(3.0)


def test_equal_weights_equal_rates(env):
    fs = FairShare(env, capacity=10.0)
    a = fs.submit(10.0, weight=1.0)
    b = fs.submit(10.0, weight=1.0)
    assert [a.rate_Bps, b.rate_Bps] == pytest.approx([5.0, 5.0])


def test_cap_redistributes(env):
    fs = FairShare(env, capacity=10.0)
    capped = fs.submit(10.0, cap=2.0)
    free = fs.submit(10.0)
    assert [capped.rate_Bps, free.rate_Bps] == pytest.approx([2.0, 8.0])
    assert fs.utilization == pytest.approx(1.0)


def test_weighted_split(env):
    fs = FairShare(env, capacity=9.0)
    light = fs.submit(3.0, weight=1.0)
    heavy = fs.submit(6.0, weight=2.0)
    assert fs.utilization == pytest.approx(1.0)
    env.run()
    # Rates 3 and 6: both finish at t=1.
    assert light.finished_at == pytest.approx(1.0)
    assert heavy.finished_at == pytest.approx(1.0)


def test_all_capped_leaves_capacity_unused(env):
    fs = FairShare(env, capacity=10.0)
    a = fs.submit(2.0, cap=1.0)
    b = fs.submit(2.0, cap=2.0)
    assert fs.utilization == pytest.approx(0.3)
    env.run()
    assert a.finished_at == pytest.approx(2.0)
    assert b.finished_at == pytest.approx(1.0)


def test_zero_weight_rejected(env):
    fs = FairShare(env, capacity=10.0)
    with pytest.raises(NetworkError, match="weight"):
        fs.submit(1.0, weight=0.0)
    assert fs.active_tasks == 0


def test_capped_task_leaves_room(env):
    fs = FairShare(env, capacity=10.0)
    capped = fs.submit(4.0, cap=2.0)
    free = fs.submit(16.0)
    env.run()
    assert capped.finished_at == pytest.approx(2.0)
    assert free.finished_at == pytest.approx(2.0)


def test_zero_amount_completes_instantly(env):
    fs = FairShare(env, capacity=1.0)
    task = fs.submit(0.0)
    env.run()
    assert task.finished_at == pytest.approx(0.0)


def test_cancel_stops_task(env):
    fs = FairShare(env, capacity=2.0)
    doomed = fs.submit(100.0)
    survivor = fs.submit(4.0)

    def cancel_later(env):
        yield env.timeout(1.0)
        fs.cancel(doomed)

    env.process(cancel_later(env))
    env.run()
    assert not doomed.finished
    # Survivor: 1 s at rate 1 (sharing) + 3 units at rate 2 alone.
    assert survivor.finished_at == pytest.approx(1.0 + 1.5)


@given(
    amounts=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=8),
    capacity=st.floats(min_value=0.5, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_fairshare_conserves_work(amounts, capacity):
    """Total completion time ≥ total work / capacity; all tasks finish."""
    env = Environment()
    fs = FairShare(env, capacity=capacity)
    tasks = [fs.submit(a) for a in amounts]
    env.run()
    assert all(t.finished for t in tasks)
    makespan = max(t.finished_at for t in tasks)
    assert makespan >= sum(amounts) / capacity * (1 - 1e-6)
    # With equal weights and no caps the service is work-conserving:
    assert makespan == pytest.approx(sum(amounts) / capacity, rel=1e-6)

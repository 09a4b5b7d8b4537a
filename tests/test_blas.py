"""``run_threads``: every item's call, per_cpu threads per CPU on at most two CPUs,
the calling thread among them."""

import os
import threading
import time

import pytest

from recsynvc.blas import run_threads


def _cpus(monkeypatch, n):
    """Make this process look as if it may run on ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _most_at_once(n_items, per_cpu=1):
    """The most calls of ``run_threads`` that ran at the same time, over ``n_items``."""
    lock, running, most = threading.Lock(), [0], [0]

    def fn(_item):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        time.sleep(0.02)
        with lock:
            running[0] -= 1

    run_threads(fn, range(n_items), per_cpu)
    return most[0]


def test_futures_come_back_in_item_order(monkeypatch):
    _cpus(monkeypatch, 2)

    def fn(item):
        time.sleep(0.01 * item)  # the later items end first
        return item * 10

    assert [f.result() for f in run_threads(fn, [3, 2, 1, 0])] == [30, 20, 10, 0]


@pytest.mark.parametrize("cpus", [1, 2])
def test_an_item_that_raises_stops_no_other_and_every_call_ends_first(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    ended = []

    def fn(item):
        if item == 0:
            raise ValueError("item 0 failed")
        time.sleep(0.05)  # still running when item 0 raises
        ended.append(item)
        return item

    threads = threading.active_count()
    futures = run_threads(fn, range(4))
    assert threading.active_count() == threads
    assert all(f.done() for f in futures) and sorted(ended) == [1, 2, 3]
    with pytest.raises(ValueError, match="^item 0 failed$"):
        futures[0].result()
    assert [f.result() for f in futures[1:]] == [1, 2, 3]


@pytest.mark.parametrize("cpus,per_cpu", [(2, 1), (1, 2)])
def test_two_threads_run_two_items_at_once_one_of_them_the_caller(monkeypatch, cpus,
                                                                   per_cpu):
    _cpus(monkeypatch, cpus)
    both = threading.Barrier(2, timeout=10)  # broken unless two calls wait at once

    def fn(_item):
        both.wait()
        return threading.current_thread()

    ran = [f.result() for f in run_threads(fn, range(2), per_cpu)]
    assert len(set(ran)) == 2 and threading.current_thread() in ran


def test_one_cpu_runs_one_item_at_a_time_on_the_caller(monkeypatch):
    _cpus(monkeypatch, 1)
    assert _most_at_once(4) == 1
    ran = run_threads(lambda _item: threading.current_thread(), range(3))
    assert [f.result() for f in ran] == [threading.current_thread()] * 3


def test_at_most_two_cpus_are_counted(monkeypatch):
    _cpus(monkeypatch, 8)
    assert _most_at_once(6) <= 2


def test_an_interrupt_in_the_caller_stops_the_helpers(monkeypatch):
    _cpus(monkeypatch, 2)
    caller, started = threading.current_thread(), []

    def fn(item):
        started.append(item)
        if threading.current_thread() is caller:
            raise KeyboardInterrupt
        time.sleep(0.1)  # still running when the caller is interrupted

    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        run_threads(fn, range(10))
    assert threading.active_count() == threads
    assert len(started) <= 2

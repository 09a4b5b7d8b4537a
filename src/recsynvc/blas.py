"""How the program's threads use the CPUs: ``run_threads`` starts them, on at
most two CPUs, and ``one_blas_thread`` keeps numpy's OpenBLAS on one thread.

That count is reached through ctypes.  numpy loads OpenBLAS when it is
imported, and OpenBLAS reads ``OPENBLAS_NUM_THREADS`` only then, so a program
that has imported numpy can change the count only through the library's own
functions.  OpenBLAS builds export them under different names: scipy-openblas
wheels, which numpy ships, prefix ``scipy_`` and suffix ``64_`` for 64-bit
integers.  The libraries are found among the files mapped into this process,
so off Linux (no ``/proc/self/maps``) none is found and nothing changes.
"""

from __future__ import annotations

import ctypes
import os
import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import Future
from contextlib import contextmanager, suppress
from pathlib import Path

_NAMES = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}")
_SIGNATURES = {  # action -> (argument types, result type)
    "get_num_threads": ([], ctypes.c_int),
    "set_num_threads": ([ctypes.c_int], None),
    "get_corename": ([], ctypes.c_char_p),
}


def openblas_functions(*actions: str) -> list[tuple]:
    """``openblas_<action>`` for each action, per OpenBLAS in this process that exports all.

    Each action is a key of ``_SIGNATURES``, which declares its C signature.
    """
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return []
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                   if "openblas" in line.rsplit("/", 1)[-1]})
    found = []
    for lib in map(ctypes.CDLL, libs):
        for name in _NAMES:
            functions = tuple(getattr(lib, name.format(a), None) for a in actions)
            if None not in functions:
                for function, action in zip(functions, actions):
                    function.argtypes, function.restype = _SIGNATURES[action]
                found.append(functions)
                break
    return found


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block with every loaded OpenBLAS on one thread, then restore each count."""
    controls = openblas_functions("get_num_threads", "set_num_threads")
    counts = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(controls, counts):
            set_threads(count)


def run_threads(fn: Callable, items: Iterable, per_cpu: int = 1) -> list[Future]:
    """``fn(item)`` for every item, ``per_cpu`` threads per allowed CPU, on at most two.

    The calling thread is one of them, so the memory it freed before serves
    its share of the calls, and each takes the next item until none is left.
    Returns the futures in item order once every call has ended: a call that
    raises stops no other, and its future holds the error.  An interrupt in the
    calling thread (``KeyboardInterrupt``) starts no further call and is
    raised once the calls already running have ended.
    """
    threads = per_cpu * min(2, len(os.sched_getaffinity(0)))
    pending = deque((item, Future()) for item in items)
    futures = [future for _, future in pending]

    def work():
        with suppress(IndexError):  # from popleft, once no item is left
            while True:
                item, future = pending.popleft()  # atomic: each item goes to one thread
                try:
                    future.set_result(fn(item))
                except Exception as exc:
                    future.set_exception(exc)

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:  # on an interrupt, each helper ends after its current call
        pending.clear()
        for helper in helpers:
            helper.join()
    return futures

"""The thread count of the OpenBLAS that numpy calls, reached through ctypes.

numpy loads OpenBLAS when it is imported, and OpenBLAS reads
``OPENBLAS_NUM_THREADS`` only then, so a program that has imported numpy can
change the count only through the library's own functions.  OpenBLAS builds
export them under different names: scipy-openblas wheels, which numpy ships,
prefix ``scipy_`` and suffix ``64_`` for 64-bit integers.  The libraries are
found among the files mapped into this process, so off Linux (no
``/proc/self/maps``) none is found and nothing changes.
"""

from __future__ import annotations

import ctypes
from collections.abc import Iterator
from contextlib import contextmanager
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

"""Importing projfree pins glibc's mmap threshold.

Unpinned, glibc raises the threshold past any mapped block that is freed,
so after a 16 MB array is dropped an 8 MB one comes from the heap.  The
check runs in a fresh interpreter, whose allocator no other test has used.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SNIPPET = """
import ctypes
import numpy as np
import projfree

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = MallInfo2
np.ones(2_000_000)
mapped = mallinfo2().hblkhd
large = np.ones(1_000_000)
after_large = mallinfo2().hblkhd
small = np.ones(128 * 1024 // 8 - 64)
print(after_large - mapped, mallinfo2().hblkhd - after_large)
"""


def _has_mallinfo2() -> bool:
    try:
        ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError, TypeError):
        return False
    return True


@pytest.mark.skipif(not _has_mallinfo2(), reason="needs glibc's mallinfo2")
def test_large_arrays_stay_mapped_after_a_larger_one_is_freed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SNIPPET], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    large, small = map(int, proc.stdout.split())
    assert large >= 8_000_000  # its own mapping
    assert small == 0  # under 128 KiB: from the heap

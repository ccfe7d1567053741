"""Projection-free constrained optimization over strongly convex norm balls.

Linear-minimization-oracle methods (Frank-Wolfe variants, primal averaging,
a growing-batch stochastic variant) with projected-gradient baselines,
perturbation machinery for degenerate gradients, and run diagnostics.
Since 0.2.0 each name is imported from its module (README, "Library use").
"""

import ctypes as _ctypes

# glibc's mmap threshold (M_MMAP_THRESHOLD, -3), pinned at its 128 KiB default
# so peak memory repeats from one process to the next (README, Library use).
try:
    _ctypes.CDLL(None).mallopt(-3, 128 * 1024)
except (AttributeError, OSError, TypeError):  # not glibc: nothing to pin
    pass

__version__ = "0.2.0"

"""Shared pytest set-up.

Property tests run under one hypothesis profile: derandomized, and no
per-example deadline, since wall time on a shared host swings too widely for
one.  Hypothesis (as of 6.155) also mixes literals from every loaded local
module into its draws, so the profile repeats its examples only for the same
source tree and the same loaded modules: an edit to a literal in `src/` can
change what every property test draws.  A property test that starts to fail
after such an edit has found a fault to fix, not a seed to change.
"""

from hypothesis import settings

settings.register_profile("reproducible", deadline=None, derandomize=True)
settings.load_profile("reproducible")

"""Shared pytest set-up.

Property tests run under one hypothesis profile: the same examples on every
run, and no per-example deadline, since wall time on a shared host swings
too widely for one.
"""

from hypothesis import settings

settings.register_profile("reproducible", deadline=None, derandomize=True)
settings.load_profile("reproducible")

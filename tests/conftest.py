"""Suite-wide hypothesis settings: a fixed set of examples per property, no
per-example deadline (timings vary with the host) and no example database,
so every run checks the same cases.  Hypothesis still writes its own caches
(constants, unicode_data) under the git-ignored .hypothesis/."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

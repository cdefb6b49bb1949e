"""Shared test configuration.

Property tests draw the same examples on every run: the hypothesis profile
derives them from each test's source rather than a random seed, keeps no
example database between runs and sets no per-example deadline.  Each
test's own ``max_examples`` still applies.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

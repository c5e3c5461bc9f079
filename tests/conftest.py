"""One Hypothesis profile for the whole suite, loaded on every run.

``derandomize=True`` seeds each property test's draws from a hash of the test
itself, so every run tries the same examples (and keeps no example database):
a test's time and outcome do not change from run to run.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

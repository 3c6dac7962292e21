"""Suite-wide settings.

Hypothesis runs derandomized: each property test draws the same examples
on every run (seeded from the test itself, no example database), so a
test run's outcome never depends on a lucky or unlucky draw.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

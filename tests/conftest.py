"""Hypothesis settings for the suite: derandomized, so every run draws the
same examples, and without a deadline, so a slow example on a loaded
machine is not a failure.  No example database is kept."""
from hypothesis import settings

settings.register_profile("ptslab", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("ptslab")

"""Shared test settings: one hypothesis profile, so that property tests draw
the same examples on every run."""

from hypothesis import settings

settings.register_profile("flowlab", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("flowlab")

"""Hypothesis profiles: `HYPOTHESIS_PROFILE=ci` explores a fixed sequence of
examples and prints the blob that replays a failure, so a property that
fails on CI fails the same way locally; without it, runs explore at random."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

"""Shared configuration for the unit tests.

Hypothesis profiles: ``ci`` is derandomized, so every CI run draws the same
examples; ``local`` explores fresh ones each run.  Neither has a
per-example deadline, since fitting a reference tree per example is slow on
a loaded machine.  ``HYPOTHESIS_PROFILE`` selects one (default ``local``).
"""

import os

from hypothesis import settings

settings.register_profile("ci", deadline=None, derandomize=True)
settings.register_profile("local", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "local"))

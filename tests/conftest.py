"""Test-suite configuration: Hypothesis profiles.

``--hypothesis-profile=deep`` runs every property test that leaves
``max_examples`` to the profile (the plane seam matrix among them) on
1,500 examples with no per-example deadline.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=1500, deadline=None)

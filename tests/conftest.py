"""Suite-wide settings: one hypothesis profile for every property test.

derandomize draws the same examples on every run, deadline=None keeps a
slow host from failing an example on time alone, and database=None writes
no example database into the tree.
"""

from hypothesis import settings

settings.register_profile("minsurf4", derandomize=True, deadline=None, database=None)
settings.load_profile("minsurf4")

"""One hypothesis profile for the whole suite.

No per-example deadline: the properties simulate circuits whose run
time varies with the drawn size.  ``print_blob`` makes a failure print
the ``@reproduce_failure`` line that replays its counterexample.
"""

from hypothesis import settings

settings.register_profile("eqnn", deadline=None, print_blob=True)
settings.load_profile("eqnn")

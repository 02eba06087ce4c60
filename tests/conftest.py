"""Test session setup.

When a hypothesis test fails, hypothesis's pytest plugin explains the
failure with ``hypothesis.extra._patching``, which imports libcst, and
libcst emits a ``DeprecationWarning`` on import.  ``pyproject.toml``
makes that warning an error, which would end the whole session with
INTERNALERROR at the first failing hypothesis test.  Importing the
module once here, with the warning ignored, lets the failure be
reported and the remaining tests run; the filter stays as it is for
every test.  Without libcst the plugin skips its explanation, and so
does this import.
"""

import warnings
from contextlib import suppress

with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

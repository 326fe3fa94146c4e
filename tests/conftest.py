"""Load hypothesis's failure-patch writer before any test runs.

Hypothesis imports ``hypothesis.extra._patching`` when it reports a failing
property test. That module imports ``libcst``, whose import raises
``mypy_extensions.TypedDict``'s DeprecationWarning; under ``-W error`` the
warning would end the session as an INTERNALERROR and hide the falsifying
example. Importing it here, with only that category ignored, leaves it cached
for the report.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no hypothesis or no libcst: nothing to pre-load
        pass

import warnings

# When a hypothesis test fails, hypothesis's report hook imports its
# patch-hint module, whose dependencies raise a DeprecationWarning
# (mypy_extensions.TypedDict) on import.  Under the suite's ``-W error``
# that warning turns the report into an INTERNALERROR, and the falsifying
# example is never printed.  Importing the module once here, with only
# that warning class ignored and only for this import, keeps the report.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

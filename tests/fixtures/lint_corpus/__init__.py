"""Seeded bad-fixture corpus for the lint self-check.

Each module here violates one lint rule along the call graph (or, for
``partial_bad``, at the call site); ``expected.json`` pins the precise
``(rule, file, line)`` triples the analyzer must produce -- no more, no
fewer.  ``python -m repro.lint.selfcheck`` (run in CI on py3.10 and
py3.12) fails if the analyzer drifts in either direction.

These files are never imported at runtime; they only exist to be parsed.
"""

"""Support code for ``bench/run.py`` and ``bench/compare.py``.

Everything here drives the repo through its public functions only; see
``bench/README.md`` for what is measured and why.
"""

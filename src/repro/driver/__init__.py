"""The compiler driver: a clang-like command line over the pipeline.

Entry points: ``repro.driver.cli`` (``miniclang``), ``repro.driver.serve``
(``miniclang-serve``) and ``repro.driver.cachectl`` (``miniclang-cache``),
each runnable with ``python -m``.
"""

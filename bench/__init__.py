"""Benchmark of the kcg tools; run it with ``python3 bench/run.py``."""

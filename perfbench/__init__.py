"""Benchmark of the bandres chain; see run.py."""

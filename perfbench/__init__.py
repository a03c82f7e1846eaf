"""Benchmark of the flagship quality-filter cascade (see README.md)."""

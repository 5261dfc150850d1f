"""Benchmark for sharelin: seeded workloads, output checks, end-to-end and
per-layer metrics. The entry point is ``perfbench/run.py``."""

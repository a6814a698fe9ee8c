"""Benchmark for fullerwalk: workloads, worker, tracing and output checks."""

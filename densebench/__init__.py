"""Benchmark for densemodal: workloads, independent checks and a traced per-layer run."""

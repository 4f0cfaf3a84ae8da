"""Benchmark of hypflow: seeded workloads, host-corrected timings,
independent answer checks and a traced per-layer view.  See README.md."""

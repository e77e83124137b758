"""The repository's benchmark: workloads, tracer and report (see README.md)."""

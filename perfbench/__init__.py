"""Per-layer benchmark for PaSh-on-Spark (see README.md in this directory)."""

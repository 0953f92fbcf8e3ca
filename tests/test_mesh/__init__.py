"""Suites for repro.mesh: DeviceMesh, TP/PP composition, the mesh plan."""

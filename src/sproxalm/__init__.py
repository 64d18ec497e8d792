"""Solver library and verification bench for linearly constrained
nonconvex smooth minimization via the smoothed proximal augmented
Lagrangian method, with fully computable theoretical step sizes."""

__version__ = "0.1.0"

"""Shared utilities: RNG plumbing, statistics, validation, and simulation time.

These helpers are deliberately small and dependency-light; every other
subpackage of :mod:`repro` builds on them.
"""

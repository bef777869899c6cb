"""Additive-precision Born-rule estimators and epsilon-samplers."""

__version__ = "0.1.0"

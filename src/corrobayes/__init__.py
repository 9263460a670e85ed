"""Bayes linear inference for corroding multi-component pipework systems.

The package simulates a dynamic linear corrosion model over an exchangeable
system of components, learns the local wall-variance and corrosion-variance
hyperparameters from sparse irregular minimum-thickness inspections, adjusts
beliefs about current and future state, and forecasts remnant life, with
discrepancy diagnostics at every stage.
"""

__version__ = "0.1.0"

"""Bayesian sequential detection with phase-type change times.

Subpackages: :mod:`phasestop.model` (domain types; one class per cost family
holds its parameters, stage costs, offset, belief updates and assumption
checks), :mod:`phasestop.filters`
(belief recursions), :mod:`phasestop.orders` (stochastic orders and
assumption checks), :mod:`phasestop.dp` (grid value iteration and region
structure), :mod:`phasestop.policy` (linear threshold policies and SPSA),
:mod:`phasestop.sim` (trajectory simulation), :mod:`phasestop.cli`
(experiment driver).
"""

__version__ = "0.1.0"

from . import dp, filters, model, orders, policy, sim  # noqa: F401

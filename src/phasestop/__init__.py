"""Bayesian sequential detection with phase-type change times.

Subpackages: :mod:`phasestop.model` (domain types; one class per cost family
holds its parameters, stage costs, offset, belief updates and assumption
checks), :mod:`phasestop.filters`
(belief recursions), :mod:`phasestop.orders` (the transition-matrix order
and assumption checks), :mod:`phasestop.dp` (grid value iteration and region
structure), :mod:`phasestop.policy` (linear threshold policies and SPSA),
:mod:`phasestop.sim` (trajectory simulation), :mod:`phasestop.cli`
(experiment driver).  The test oracles and random-instance generators of
the structural claims live with the tests, not here.
"""

__version__ = "0.1.0"

from . import dp, filters, model, orders, policy, sim  # noqa: F401

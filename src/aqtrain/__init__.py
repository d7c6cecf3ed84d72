"""aqtrain: train small neural networks by simulated adiabatic quantum evolution.

A run evaluates its objective (a network loss, a potential on the unit
interval) on every basis state, which is its diagonal target Hamiltonian,
or assembles a potential's momentum-basis matrix, and anneals a state-vector
simulator into it; only ``anneal-paulispin`` takes Trotterized split steps.
The package also ships the harness that reproduces the bundled configs.
"""

__version__ = "0.1.0"

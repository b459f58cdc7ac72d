"""Numerical laboratory for linear-Gaussian disentanglement.

Closed-form mutual-information and pair-coupling objectives over linear
Gaussian generators, projected-gradient optimizers that recover their
maximizers, the discrete discrimination objective and its Jensen-Shannon
identity, a disentanglement metric suite, and unsupervised model selection
over pools of (generator, encoder) pairs.
"""

__version__ = "0.1.0"

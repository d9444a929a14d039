"""Entanglement detection statistics of high-dimensional random bipartite
states, measured with decomposable entanglement witnesses.

The package simulates ensembles of Haar-random pure states and their
m-component mixtures, evaluates witness expectations and partial-transpose
spectra, and compares the Monte Carlo results against the matching
closed-form laws (Gaussian and exponential-mixture densities for the
rescaled statistic w, an elliptic-integral law and the Marcenko-Pastur law
for spectra).  Import each name from the module that defines it.
"""

__version__ = "0.16.0"

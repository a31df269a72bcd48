"""Discriminative subnetwork mining for global-state network databases.

A database holds many network instances over a shared node set; each
instance carries per-node values and one discrete global state.  The
library learns a low-dimensional spectral transformation that separates
the global states while staying smooth over frequently shared edges, then
ranks nodes by their transformation coefficients and reports the connected
subnetworks they induce.
"""

__version__ = "0.1.0"

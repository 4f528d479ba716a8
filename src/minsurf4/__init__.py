"""Minimal surfaces in Euclidean 4-space from rational Weierstrass-type data.

Exact verification of completeness, exceptional-value counts, and the
associated sharpness families; the minimal-Lagrangian pipeline; and the
Moebius-strip construction on involution-symmetric annulus data.
"""

__version__ = "0.1.0"

"""Spectral statistics of pseudo-Hermitian random-matrix ensembles.

Subpackages:

* ``specfun``   -- self-contained special functions and the Fourier transform
* ``pseudo2x2`` -- the five structured 2x2 families and the K0 spacing law
* ``circulant`` -- random real circulants and their three exact spacing laws
* ``blockcirc`` -- circulants of 2x2 blocks (Gaussian and coupled-chain forms)
* ``walk``      -- ring random walks, entropy relaxation, ensemble decay law
* ``stats``     -- histograms, unit-mean normalization, KS goodness of fit
* ``cli``       -- reproducible experiment runner writing CSV + JSON reports
"""

__version__ = "0.1.0"

from . import blockcirc, circulant, pseudo2x2, seeding, specfun, stats, walk

__all__ = [
    "__version__",
    "blockcirc",
    "circulant",
    "pseudo2x2",
    "seeding",
    "specfun",
    "stats",
    "walk",
]

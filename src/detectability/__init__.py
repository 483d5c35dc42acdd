"""Fundamental limits of machine-text detection, made computable.

The package answers three linked questions about telling machine-generated
text from human text:

* How well can *any* detector do when the two text distributions are a given
  total variation distance apart?  (``bounds``, ``distributions``)
* How many independent-ish samples close that gap, and what does dependence
  between samples cost?  (``bounds``, ``simulate``)
* What do those limits look like on actual token streams?  (``corpus``,
  ``textlab``)

Everything exact lives on categorical distributions; everything empirical is
seeded and reproducible.
"""

from . import bounds, corpus, detector, distributions, simulate, textlab
from .bounds import *
from .corpus import *
from .detector import *
from .distributions import *
from .simulate import *
from .textlab import *

__version__ = "0.1.0"

__all__ = [
    *bounds.__all__,
    *corpus.__all__,
    *detector.__all__,
    *distributions.__all__,
    *simulate.__all__,
    *textlab.__all__,
    "__version__",
]

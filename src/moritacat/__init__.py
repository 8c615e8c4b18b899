"""moritacat: exact computer algebra for finite-dimensional *-categories.

The library works throughout over the Gaussian rationals (pairs of
arbitrary-precision rationals), so every decision procedure is exact:
there is no floating point and no tolerance anywhere.

Subpackages by topic:

- ``scalar``        exact scalars, matrices, echelon forms, range projections
- ``starcat``       concrete *-categories and *-functors
- ``completion``    the lazy saturation (idempotent completion of the
                    additive hull), its finite full subcategories, and
                    the Morita-equivalence decision for functors
- ``presentations`` universal *-categories from generators and relations,
                    pushouts, lifting problems
- ``semisimple``    block decomposition (Wedderburn over Q(i)) and the
                    Morita-equivalence decision
- ``homotopy``      homotopy classes of functors as matrices of natural
                    numbers, the additive structure on them, Picard groups
- ``ktheory``       group completion, K0, tensor products, K0 rings
- ``generate``      seeded random instances for tests and probes
- ``jsonio``        JSON document (de)serialization
- ``cli``           command-line interface
"""

from .scalar import GaussianRational, ExactMatrix

__all__ = ["GaussianRational", "ExactMatrix"]
__version__ = "0.1.0"

"""Exact audits of algebraically constructed K_{2,t+1}-free graphs and
certified lower bounds for multicolor Ramsey numbers r_k(K_{2,t}; K_m).

Layers, bottom up:

- ``fields``       -- GF(p^a) arithmetic on int-encoded elements, subgroups, cosets
- ``graphs``       -- the two coset graph constructions, structural audits, g2t files
- ``spectral``     -- exact eigenvalue multiplicities via integer moments; Gauss sums
- ``independence`` -- exact max independent set search with budgets and witnesses
- ``random_model`` -- G(n,p) recipe, counter-based sampling, Monte-Carlo checks
- ``bounds``       -- closed-form bound arithmetic and certificate construction/replay
- ``cli``          -- ``ramseycert`` command line front end
"""

__version__ = "0.1.0"

from .fields import Field, make_field, subgroup
from .graphs import Graph, build_g_plus, build_g_times, structural_audit
from .spectral import verify_spectrum
from .independence import max_independent_set_exact
from .random_model import lemma_parameters, sample_gnp, monte_carlo_check
from .bounds import certify

__all__ = [
    "Field",
    "make_field",
    "subgroup",
    "Graph",
    "build_g_plus",
    "build_g_times",
    "structural_audit",
    "verify_spectrum",
    "max_independent_set_exact",
    "lemma_parameters",
    "sample_gnp",
    "monte_carlo_check",
    "certify",
    "__version__",
]

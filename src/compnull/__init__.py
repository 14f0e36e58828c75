"""Tests of the composite null "a product of effects is zero".

The package builds exact rejection regions for the two-coordinate product
null (minimax-optimal unit-fraction regions, their any-level extension, a
Bayes-risk LP refinement), a Latin-square construction for three factors,
generalized p-values with BH/Bonferroni adjustments, regression front ends
that produce the test statistics from data, and Monte Carlo harnesses.
"""

from .statmath import *
from .regions import *
from .closed_form import *
from .pvalues import *
from .latin3 import *
from .bayes_lp import *
from .mediation import *
from .simulate import *
from .cli import *
from . import bayes_lp, cli, closed_form, latin3, mediation, pvalues, regions, simulate, statmath

__version__ = "0.1.0"

# The package exports every module's public names, as each module lists them.
__all__ = [name for module in (statmath, regions, closed_form, pvalues, latin3, bayes_lp,
                               mediation, simulate, cli)
           for name in module.__all__] + ["__version__"]

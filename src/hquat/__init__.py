"""Quaternionic holomorphic function toolkit.

Quaternion algebra in component and Cayley-Dickson doubling form, pointwise
evaluation of function trees over one quaternionic variable, numerical
Wirtinger partials with a generalized Cauchy-Riemann holomorphy check, full
quaternionic derivatives, and real-coefficient power series with convergence
tests and Maclaurin coefficient extraction.

Each public name is listed once, in the ``__all__`` of the module that
defines it, and this package's ``__all__`` joins those five lists.  The
result records of :mod:`hquat.wirtinger` and :mod:`hquat.series` are
immutable named tuples.
"""

from . import functions, parser, quaternion, series, wirtinger
from .functions import *
from .parser import *
from .quaternion import *
from .series import *
from .wirtinger import *

__version__ = "0.1.0"

__all__ = quaternion.__all__ + functions.__all__ + wirtinger.__all__ + series.__all__ + parser.__all__

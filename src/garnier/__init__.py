"""Exact-arithmetic classification of complete algebraic Garnier solutions
obtained by pulling hypergeometric equations back along ramified coverings,
together with a fully verified explicit degree-4 covering family.

Layers: frozen (the value-type base), orbifold (weighted structures, Euler
characteristics, pullback), fuchsian (local exponent data), enumeration
(candidate branch data, classification tables), hurwitz (realizability by
permutation tuples), exactalg (rationals, Q(alpha) with alpha^2 = -3,
polynomials), covers (the degree-4 family), cli (the garnier command).

Import the module you need, e.g. ``from garnier.hurwitz import find_tuple``:
the package re-exports nothing, so importing it loads no layer.
"""

__version__ = "0.1.0"

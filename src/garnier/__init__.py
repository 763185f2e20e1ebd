"""Exact-arithmetic classification of complete algebraic Garnier solutions
obtained by pulling hypergeometric equations back along ramified coverings,
together with a fully verified explicit degree-4 covering family.

Layers: orbifold (weighted structures, Euler characteristics, pullback),
fuchsian (local exponent data), enumeration (candidate branch data and the
classification tables), hurwitz (constructive realizability by permutation
tuples), exactalg (rationals, Q(alpha) with alpha^2 = -3, polynomials),
covers (the degree-4 family), cli (the garnier command).
"""

__version__ = "0.1.0"

from .orbifold import (CurvatureClass, INF, OrbifoldStructure,
                       RamificationProfile, classify, euler_char, pullback,
                       underlying)
from .fuchsian import (Exponent, FuchsianSignature, PulledBackSignature,
                       is_elementary, orbifold_of, pullback_exponents,
                       underlying_orbifold_of)
from .enumeration import (CandidateVerdict, TripleSpec, VerdictKind,
                          enumerate_candidates, enumerate_profiles,
                          reproduce_table, verdict)
from .hurwitz import (PermutationTuple, RealizabilityCertificate, find_tuple,
                      realize_profile, verify_tuple)
from .exactalg import Poly, QuadElement, discriminant, exact_sqrt, resultant
from .covers import (DegFourParams, STPoint, SolutionRecord, UVPoint,
                     solution_record, uv_lift, verify_family)

"""Exact rational-function decomposition and q-series relation graphs.

The package discovers rational relations s1(q^r) = f(s2(q)) between
truncated q-series, computes all decompositions f = g o h of univariate
rational functions over the rationals, and uses those decompositions to
refine a relation graph, including modular polynomials from pairs of
relations at different powers.  All arithmetic is exact.
"""

from moondec.bivariate import PolyOverPoly
from moondec.decompose import (
    all_chains,
    candidate_components,
    chains_equivalent,
    decompose_one_level,
    left_component,
    unit_linking,
)
from moondec.errors import MoondecError
from moondec.factorization import Factorization, factor
from moondec.graph import (
    CatalogEntry,
    GraphEdge,
    GraphNode,
    RelationGraph,
    build_graph,
    eval_modular_polynomial,
    export_graph,
    load_catalog,
    load_graph,
    maximal_chains,
    modular_polynomial,
    refine_graph,
)
from moondec.parsing import parse_ratfun
from moondec.polynomials import (
    MINUS_INFINITY,
    Poly,
    poly_divrem,
    poly_gcd,
    squarefree_decomposition,
)
from moondec.ratfun import (
    INFINITY,
    RatFun,
    compose,
    evaluate,
    is_normal_form,
    ratfun_text,
    to_normal_form,
    unit,
    unit_inverse,
)
from moondec.relations import (
    LinearSystem,
    Relation,
    degree_from_areas,
    find_all_relations,
    find_relation,
    solve_linear,
    verify_relation,
)
from moondec.series import (
    GeneralLaurent,
    QSeries,
    eval_ratfun_at_series,
    inner_series_solve,
    power_support,
    substitute_power,
)

__version__ = "0.1.0"

"""troplab: a laboratory for tropical (min,+)/(max,+) circuits.

Build and transform circuits over the tropical, boolean, arithmetic and
Minkowski views; generate the classical hard families (polynomial
designs, separated-complement matroids, hypergraph matchings, cubic
Sidon sets); certify approximation factors and semantic degrees exactly
with rational LP witnesses; audit circuits against sumset, rectangle
and greedy structure.
"""

from .circuits import (
    ARITHMETIC,
    BOOLEAN,
    MAXPLUS,
    MINKOWSKI,
    MINPLUS,
    Add,
    Circuit,
    Const,
    Mul,
    Var,
    VectorSet,
    convert,
    evaluate,
    parse_circuit,
    produced_set,
    serialize_circuit,
    strip_constants,
    syntactic_degree,
    validate,
)
from .certify import (
    Certificate,
    CertificateBundle,
    DominanceQuery,
    FactorResult,
    arithmetic_witness_check,
    boolean_bound_check,
    bounded_copy_checks,
    certify_max,
    certify_min,
    exact_factor,
    lp_feasible,
    semantic_degree,
)
from .errors import (
    DegenerateCircuit,
    GuardExceeded,
    InternalCheck,
    TropLabError,
    UsageError,
)
from .families import (
    BooleanTable,
    SetFamily,
    Weighting,
    boolean_function_of,
    is_antichain,
    is_d_disjoint,
    is_k_dense,
    is_matroid,
    is_separated,
    is_sidon,
    is_sidon_vectors,
    kdense_sampling_experiment,
    matroid_check,
    optimum,
    predicates,
    similar,
    uniform_size,
)
from .builders import (
    bellman_ford_circuit,
    design_approximator,
    edge_var,
    floyd_warshall_circuit,
    selection_circuit,
    sidon_approximator,
    spanning_tree_boolean,
)
from .generators import (
    DesignSpec,
    HypergraphSpec,
    design_degree,
    graham_sloane,
    graham_sloane_best,
    graham_sloane_matroid,
    hypergraph_matchings,
    polynomial_design,
    sidon_cubic,
    uniform_complement,
)
from .greedy import (
    GreedyRun,
    greedy_factor_estimate,
    greedy_run,
    matroid_failure_witness,
    wrong_strategy_run,
)
from .sumsets import (
    Decomposition,
    GateSumset,
    NormMeasure,
    Rectangle,
    audit_circuit_rectangles,
    balanced_in_rectangle,
    counting_bound,
    decompose,
    design_bound,
    matching_bound,
    rectangle_below_family,
    residues,
)

__version__ = "0.1.0"

"""Graph folds, homotopy certificates and categorical constructions."""

__version__ = "0.1.0"

from .core import (
    BadLabel,
    BadParameter,
    BudgetExceeded,
    DomainMismatch,
    DuplicateVertex,
    Edge,
    Embedding,
    Graph,
    GraphError,
    GraphMap,
    NotAGraphMap,
    NotAPartition,
    SignatureMismatch,
    UnknownVertex,
    compose,
    disjoint_union,
    find_map_violation,
    graph_map,
    identity_map,
    induced_subgraph,
    interval,
    invert,
    is_graph_map,
    make_graph,
    product,
    relabel,
)
from .search import enumerate_copies, enumerate_homs, is_isomorphic
from .folds import (
    ConfluenceViolation,
    FoldSequence,
    FoldStep,
    InvalidSequence,
    NotAFold,
    NotInducedInclusion,
    QuasiCofibrationTrace,
    apply_fold,
    confluence_check,
    foldable_pairs,
    is_quasi_cofibration,
    is_stiff,
    is_unfold,
    stiff_reduction,
)
from .homotopy import (
    EquivalenceCertificate,
    HomotopyCertificate,
    StiffComparison,
    are_homotopic,
    graphs_equivalent,
    homotopy_classes,
    is_equivalence,
    one_step_homotopic,
    verify_homotopy,
)
from .constructions import (
    CounterexampleReport,
    CylinderFactorization,
    Factorization,
    NotAnEquivalence,
    NotNonInjective,
    PushoutSquare,
    cobase_change,
    complete,
    counterexample_pushout,
    cycle,
    factorize,
    looped_cycle_wedge,
    mapping_cylinder,
    mediating_map,
    named_graph,
    pushout,
    quotient_by_image,
    quotient_by_partition,
)
from .weq import (
    ChainReport,
    WMembershipVerdict,
    WSemantics,
    WxVerdict,
    check_two_of_six,
    check_two_of_three,
    in_W,
    in_W_times,
)
from .textio import Document, ParseError, parse_document, serialize_graph, serialize_map, to_dot

__all__ = [name for name in dir() if not name.startswith("_")]

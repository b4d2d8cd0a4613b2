"""Low-rank dynamical networks: modeling, simulation, causal Wiener-filter
estimation, and directed topology recovery."""

from .errors import (
    AmbiguousRank,
    DegenerateRestriction,
    GenerationFailed,
    InsufficientData,
    InvalidModel,
    LrdnError,
    NoDecay,
    RankDeficientDesign,
    SingularBlock,
    SingularLeadingCoefficient,
)
from .model import (
    DirectedGraph,
    GeneratorConfig,
    LrdnModel,
    ReducedForm,
    ValidationReport,
    model_hash,
    random_model,
    random_models,
    reduced_form,
    true_graph,
    validate,
)
from .polymat import PolynomialMatrix, selector_shift, truncated_inverse, vstack
from .sim import TimeSeries, read_csv, simulate, simulate_from_factor, write_csv
from .spectral import (
    SpectralGrid,
    h_closed_form,
    inverse_support_fullrank,
    spectral_factor_of_model,
    spectrum_l_of_model,
    spectrum_of_model,
    uniform_thetas,
)
from .topology import (
    EdgeTestResult,
    GraphMetrics,
    Partition,
    apply_partition,
    compare_graphs,
    inverse_factor_support_check,
    decide_graph,
    decide_graphs,
    edge_test,
    edge_test_table,
    partition_select,
    support_graph,
)
from .wiener import (
    L_BLOCK,
    M_BLOCK,
    ExactFilters,
    FilterEstimate,
    estimate_filters,
    estimate_h,
    estimate_s,
    exact_filters,
    exact_s_via_factor,
)

__version__ = "0.1.0"

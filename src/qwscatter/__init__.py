"""Scattering theory for quantum walks on graphs with semi-infinite tails.

The package builds unitary walk operators from a finite directed graph
with balanced degrees, attaches half-infinite incoming/outgoing tails,
and computes the tails-in to tails-out scattering matrix by two
independent analytic routes, plus closed forms for a family of builtin
models.  ``asymptotics`` quantifies what happens as the coupling eps
tends to zero: resonances detach from the unit circle, transmission
peaks sharpen, and the scattered wave's interior energy diverges.
"""

from .asymptotics import (
    NoCrossing,
    ResonanceOnCircle,
    ResonanceTrack,
    SimplicityViolated,
    TrackingAmbiguous,
    TunnelingReport,
    default_eps_grid,
    fit_loglog_slope,
    nonresonant_point,
    remainder_table,
    track_resonances,
    tunneling_check,
)
from .coins import (
    EvalError,
    Expr,
    ExprSyntaxError,
    NotUnitary,
    const_expr,
    eval_coins,
    parse,
    parse_coin_family,
)
from .graph import (
    Arc,
    DanglingArc,
    DuplicateTailIndex,
    EmptyInterior,
    GraphError,
    NotBalanced,
    Tail,
    TailedGraph,
    build_graph,
    from_finite_graph,
)
from .line import (
    BarrierSpec,
    ZeroCorner,
    barrier_scattering,
    double_barrier,
    double_barrier_peaks,
    double_barrier_state_balance,
    graph_transmission,
    line_to_graph,
    near_reflective_coin,
    rotation_coin,
    transfer_matrix,
)
from .modelfile import ModelFileError, family_from_file, load_model, save_model
from .models import (
    EpsOutOfRange,
    ModelFamily,
    closed_form_sigma_crossing,
    closed_form_sigma_cycle,
    closed_form_sigma_ms,
    crossing_family,
    cycle_family,
    matrix_schrodinger_family,
    partial_fraction_identity,
    random_walk,
)
from .scattering import (
    AtInteriorResonance,
    OrthogonalityViolated,
    PoleHit,
    SingularSystem,
    comfortability,
    generalized_eigenfunction,
    oracle_direct_solve,
    pole_block,
    resolvent_kernel,
    scattering_matrix,
    transmission_reflection,
    zero_pole_block,
)
from .spectral import (
    ClusterAmbiguity,
    EigenSystem,
    IllConditionedChain,
    NotSimple,
    NumericalError,
    Resonance,
    ZeroCluster,
    boundary_data,
    eigen_decompose,
    resonance_set,
)
from .walk import (
    DimensionMismatch,
    FreeRouting,
    LabelMismatch,
    NoExit,
    NotDeterministic,
    WalkOperator,
    assemble,
    free_routing_check,
    free_scattering_matrix,
)

__version__ = "0.1.0"

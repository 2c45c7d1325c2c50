"""Engine for classical and operational causal-inferential diagrams.

Diagrams wire boxes over causal and inferential systems; denotations
are exact substochastic matrices, with a quantum backend for procedure
semantics.  On top of the diagram layer sit normal forms, an axiom
battery, realist representations, and no-go checks: Bell local-polytope
membership by exact LP and simplex-embedding feasibility for theory
fragments.  Artifacts read and write a shared textual format, and the
``ci-engine`` entry point (``ci_engine.cli``, which the package does
not import) exposes the whole pipeline on the command line.
"""

from . import (
    caps,
    diagrams,
    errors,
    exactlp,
    fileformat,
    fstheory,
    funcdyn,
    nogo,
    optheory,
    substoch,
    tensornet,
)
from .caps import enumeration_cap
from .diagrams import (
    Abstract,
    Box,
    Clamp,
    Diagram,
    SystemType,
    causal_system,
    close_boundary,
    compose_parallel,
    compose_sequential,
    diagrams_equal,
    from_box,
    identity,
    inferential_system,
    insert_into_clamp,
    permutation,
    quantum_system,
)
from .fileformat import (
    dump_correlation,
    dump_fragment,
    dump_model,
    dump_pairs,
    dump_rep,
    load_correlation,
    load_diagram,
    load_fragment,
    load_model,
    load_pairs,
    load_rep,
    serialize_diagram,
)
from .fstheory import (
    RealistRep,
    apply_representation,
    bundle_carrier,
    denote,
    effect_box,
    embedded,
    hom_system,
    ignore,
    inferentially_equivalent,
    is_leibnizian,
    knowledge_box,
    normal_form,
    predict,
    prop_gain,
    quotient_normal_form,
    record_system,
    state_box,
    verify_fs_axioms,
)
from .nogo import (
    Bell,
    Correlation,
    Feasible,
    GPTFragment,
    Infeasible,
    Instrumental,
    Member,
    NonMember,
    PrepareMeasure,
    Triangle,
    VerdictBundle,
    bell_prediction_map,
    bell_template,
    chsh_scenario,
    chsh_value,
    classical_bit_fragment,
    correlation_from_channel,
    fs_compatible,
    hexagon_fragment,
    local_vertices,
    model_correlations,
    no_signalling_check,
    pr_box,
    product_model,
    quantum_correlations,
    qubit_stabilizer_fragment,
    rationalize,
    simplex_embed,
    singlet_model,
    strategy_diagram,
    tabulate,
    verdict_bundle,
)
from .optheory import (
    PredictionMap,
    ProcedureDecl,
    QuantumProcess,
    op_equivalent,
    op_knowledge_box,
    predict_closed,
    procedure_box,
    procedure_diagram,
)
from .substoch import (
    KnowledgeState,
    Proposition,
    SubstochMap,
    point_state,
    proposition,
    uniform_state,
)

__version__ = "0.1.0"

"""Spatio-temporal quantum error correction as quantum combs.

Strategic codes pair an initial codespace with an adaptive sequence of check
instruments driven by a classical memory.  This package represents both the
checks and temporally correlated noise as quantum combs, decides exact
correctability through two independent necessary-and-sufficient checkers,
synthesizes decoders from both proofs, and optimizes error-adapted
approximate codes by see-saw coordinate ascent on entanglement fidelity.
"""

from combsqec.combs import (
    ChoiOperator,
    CombReport,
    CombSignature,
    choi_from_kraus,
    link_product,
    validate_comb,
)
from combsqec.conditions import (
    ConditionReport,
    Decoder,
    RecoveryRecord,
    RecoveryReport,
    check_algebraic,
    check_info,
    check_static_kl,
    synth_decoder_algebraic,
    synth_decoder_schmidt,
    verify_recovery,
)
from combsqec.io import (
    InstanceDocument,
    ParseError,
    export_instance,
    instance_text,
    load_instance,
)
from combsqec.library import (
    NamedInstance,
    bitflip_code,
    build_instance,
    hexagon_honeycomb,
    instance_names,
    random_instance,
    spacetime_toy_circuit,
    syndrome_window,
)
from combsqec.model import (
    CheckInstrument,
    CodeSpace,
    ErrorModel,
    INITIAL_MEMORY,
    Interrogator,
    MemoryUpdate,
    StrategicCode,
    Trajectory,
    comb_vector,
    comb_vector_dense,
    compose_K,
    count_trajectories,
    enumerate_trajectories,
    error_comb,
    error_comb_vector,
    interrogator_operator,
)
from combsqec.optimize import (
    OptimizationState,
    OptimizerConfig,
    TraceRecord,
    coordinate_step,
    ent_fidelity,
    initial_state,
    project_cptp,
    seesaw,
    static_biconvex,
)
from combsqec.tensor import (
    LabeledOperator,
    dense_cap,
    identity_operator,
    partial_trace,
    partial_transpose,
    tensor_product,
    vectorize,
)

__version__ = "0.1.0"

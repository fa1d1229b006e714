"""Chi-matrix process tomography against a noisy 5-qubit simulator.

The pieces, bottom up: ``operators`` (gate matrices, embeddings,
expectations), ``channels`` (Kraus channels, T1/T2 decay), ``qasm``
(circuit container, parser, printer, coupling maps), ``backend``
(density-matrix execution, device configs), ``state_tomography`` and
``process_tomography`` (the reconstructions), ``reports`` + ``cli``
(serialisation and the command-line front end).
"""

from .backend import (
    DEFAULT_DURATIONS_NS,
    QUBIT_COUNT,
    BackendModel,
    ConfigError,
    ExecutionResult,
    TopologyError,
    builtin_backend,
    builtin_backend_names,
    execute,
    execute_exact,
    execute_many,
    load_backend,
    read_backend,
)
from .channels import (
    KrausChannel,
    NoiseParams,
    amplitude_damping,
    apply_channel,
    compose,
    decoherence_channel,
    embed_channel,
    identity_channel,
    pure_dephasing,
    unitary_as_channel,
    validate_completeness,
)
from .operators import (
    GATES,
    PAULIS,
    SINGLE_QUBIT_GATES,
    check_density_matrix,
    dagger,
    embed_gate,
    gate_arity,
    kron,
    pauli_expectation,
    pauli_string_matrix,
    standard_gate,
)
from .process_tomography import (
    ChiMatrix,
    FixedOperatorSet,
    PreparationRecipe,
    QptResult,
    beta_tensor,
    chi_from_outputs,
    chi_to_channel,
    fixed_operator_set,
    matrix_unit_basis,
    preparation_circuit,
    preparation_recipes,
    preparation_state,
    process_fidelity,
    project_chi_psd,
    project_result,
    qpt_channel,
    run_qpt,
    theoretical_chi,
    tp_deviation,
)
from .qasm import (
    Circuit,
    CircuitError,
    CouplingMap,
    Gate,
    Measure,
    QasmError,
    emit_qasm,
    parse_qasm,
    validate_topology,
)
from .reports import (
    GATE_TABLE_ORDER,
    ORDERING_NOTE,
    chi_grids,
    chi_report_dict,
    dump_report,
    load_report,
    parse_report,
    qst_report_dict,
    render_fidelity_tables,
    result_from_report,
    seed_summary_dict,
)
from .state_tomography import (
    QstRun,
    TomographyDataset,
    append_setting,
    child_seeds,
    collect_dataset,
    estimate_pauli,
    project_psd,
    qst_settings,
    read_dataset,
    reconstruct_density,
    reconstruct_from_dataset,
    run_qst,
    state_fidelity,
    write_dataset,
)

__version__ = "0.1.0"

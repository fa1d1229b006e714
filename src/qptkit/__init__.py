"""Chi-matrix process tomography against a noisy 5-qubit simulator.

The pieces, bottom up: ``operators`` (gate matrices, index conventions,
density-matrix checks), ``channels`` (Kraus channels, T1/T2 decay), ``qasm``
(circuit container, parser, printer, coupling maps), ``backend``
(density-matrix execution, device configs), ``state_tomography`` and
``process_tomography`` (the reconstructions), ``reports`` + ``cli``
(serialisation and the command-line front end).

The package top level exports the documented API only; everything else is
imported from its module.
"""

from .backend import (
    BackendModel,
    ConfigError,
    ExecutionResult,
    TopologyError,
    builtin_backend,
    execute,
    execute_exact,
    execute_many,
    load_backend,
    read_backend,
)
from .channels import KrausChannel, NoiseParams
from .process_tomography import (
    ChiMatrix,
    QptResult,
    chi_from_outputs,
    process_fidelity,
    qpt_channel,
    run_qpt,
    theoretical_chi,
)
from .qasm import Circuit, CircuitError, Gate, Measure, QasmError, emit_qasm, parse_qasm
from .reports import GATE_TABLE_ORDER, parse_report
from .state_tomography import QstRun, TomographyDataset, collect_dataset, run_qst

__all__ = [
    # functions
    "builtin_backend",
    "load_backend",
    "read_backend",
    "execute",
    "execute_exact",
    "execute_many",
    "parse_qasm",
    "emit_qasm",
    "collect_dataset",
    "run_qst",
    "run_qpt",
    "qpt_channel",
    "chi_from_outputs",
    "theoretical_chi",
    "process_fidelity",
    "parse_report",
    # constants
    "GATE_TABLE_ORDER",
    # types
    "BackendModel",
    "ExecutionResult",
    "NoiseParams",
    "KrausChannel",
    "Circuit",
    "Gate",
    "Measure",
    "ChiMatrix",
    "QptResult",
    "QstRun",
    "TomographyDataset",
    # errors
    "ConfigError",
    "TopologyError",
    "CircuitError",
    "QasmError",
]

__version__ = "0.1.0"

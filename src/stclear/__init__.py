"""Space-time multi-product market clearing with settlement and property audits."""

from .stgraph import Arc, Graph, SpaceTimeNode, TimeGrid, build_graph, graph_of
from .market_model import (
    Consumer,
    MarketInstance,
    Supplier,
    TechnologyProvider,
    TransportProvider,
    validate,
)
from .clearing_lp import LinearProgram, VariableIndex, assemble_dual, assemble_primal, row_residuals
from .simplex_solver import (
    KktReport,
    SolverResult,
    SolverStatus,
    solve,
    verify_kkt,
)
from .settlement import (
    ClearingSolution,
    Saturation,
    SettlementReport,
    capacity_duals,
    clear,
    clear_qss,
    settle,
    stakeholder_prices,
    stakeholder_profits,
)
from .property_auditor import AuditReport, CheckResult, run_full_audit
from .scenario_gen import (
    CaseParams,
    Variant,
    generate_waste_case,
    restrict_to_qss,
)
from .cli_io import load_instance, save_instance

__version__ = "0.1.0"

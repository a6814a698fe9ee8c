"""Continuous-time quantum walks on fullerene graphs.

Tools for building the tube-isomer fullerene family F_N and the C60
buckyball, diagonalizing their adjacency Hamiltonians, and analysing the
walk's long-time behaviour: limiting distributions, equilibration bounds,
pentagon Gibbs states, and energy-eigenbasis (ETH-style) diagnostics.
"""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    adjacency,
    build_c60_blocked,
    build_tube_fullerene,
    degrees,
    edge_checksum,
    graph_from_edges,
    is_connected,
    load_graph,
    save_graph,
    validate_fullerene,
)
from .spectral import (
    DEGENERACY_TOL,
    Spectrum,
    cluster_eigenvalues,
    eigendecompose,
    gap_count,
    graph_spectrum,
)
from .dynamics import (
    cumulative_time_average,
    evolve,
    limiting_distribution,
    limiting_orbit_rows,
    node_probability,
)
from .equilibration import (
    EquilibrationReport,
    bound_rhs,
    default_tau_grid,
    effective_dimension,
    empirical_lhs,
    equilibration_report,
    operator_norm_sq,
    time_averaged_state,
)
from .thermo import (
    GibbsComparisonRow,
    HamiltonianDecomposition,
    PentagonGibbs,
    decompose_hamiltonian,
    gibbs_node_probability,
    gibbs_partition_function,
    gibbs_vs_limiting,
    initial_state_dependence,
    pentagon_gibbs,
)
from .eth import (
    EthReport,
    SymmetryCheck,
    eth_report,
    eth_symmetry_check,
    haar_entropy_baseline,
    haar_orthogonal_state,
    node_entropies,
    observable_in_energy_basis,
    position_observable,
    projector_eth_stats,
)

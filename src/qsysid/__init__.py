"""Identifiability analysis and reconstruction of passive linear quantum systems."""

from types import ModuleType as _ModuleType

from .analysis import (
    StructureReport,
    observability_matrix,
    structure_report,
)
from .errors import (
    DimensionMismatch,
    InsufficientData,
    InvalidNetwork,
    NonMonic,
    NonMonotoneGrid,
    NotHermitian,
    NotHurwitz,
    NotMinimal,
    NotPassiveTF,
    NotUnitary,
    QsysidError,
    RankDeficientCoupling,
    SingularResolvent,
    SolverSingular,
)
from .identifiability import (
    EquivalenceVerdict,
    find_gauge,
    gauge_transform,
    markov_distinguishable,
    markov_sequence,
)
from .model import (
    PassiveSystem,
    new_system,
    transfer_at,
    transfer_rational,
)
from .network import (
    InfectionTrace,
    InfectionVerdict,
    NetworkModel,
    infection_closure,
    infection_identifiability_verdict,
    new_network,
    omega_from_network,
)
from .probe import (
    FitResult,
    ProbeDataset,
    fit_rational,
    identify_pipeline,
    sample_response,
)
from .ratfunc import RationalTF, make_rational_tf
from .realization import (
    CanonicalParams,
    ClassicalRealization,
    companion_realization,
    direct_reconstruction,
    eigenvalues_from_canonical,
    mimo_coupling_gram,
    reconstruct_passive,
    solve_lyapunov,
)

__version__ = "0.1.0"

# the public names are the ones imported above: each is written once
__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType))

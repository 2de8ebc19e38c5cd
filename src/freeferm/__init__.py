"""Classical toolkit for free-fermion (matchgate) quantum systems.

Modules
-------
majorana   exact monomial algebra, Jordan-Wigner images, signed permutations
gaussian   covariance matrices, Pfaffians, Wick calculus, exact sampling
dense      brute-force Fock-space oracle for validation at small n
oracle     fast paths checked against dense; import it explicitly
shadows    randomized-measurement tomography and symmetry-adjusted mitigation
circuits   compilation of orthogonal rotations into matchgate circuits
partition  Majorana form of electronic Hamiltonians, anticommuting grouping
io         JSON / CSV serialization
cli        command-line frontend (shadow-sim, compile, partition, verify)
"""

from .majorana import (
    MajoranaMonomial,
    PauliString,
    SignedPermutation,
    anticommutes,
    conjugate,
    diag_element,
    is_diagonal,
    multiply,
    to_pauli,
)
from .gaussian import (
    CanonicalForm,
    CovarianceMatrix,
    QuadraticHamiltonian,
    SlaterDeterminant,
    canonical_form,
    embed_unitary,
    evolve,
    fock_covariance,
    k_rdm_element,
    measurement_distribution,
    one_rdm,
    pfaffian,
    sample_bits,
    slater_amplitude,
    slater_covariance,
    spectrum,
    vacuum_covariance,
    wick_expectation,
)
from .shadows import (
    MitigationError,
    NoiseModel,
    ShadowAccumulator,
    SymmetrySpec,
    channel_eigenvalue,
    mitigate,
    observable_norm_bound,
    sample_bound,
    sample_snapshots,
    shadow_norm_sq,
    symmetry_spec,
    two_rdm,
)
from .circuits import (
    GateProgram,
    compile_blocked,
    compile_naive,
    program_to_orthogonal,
)
from .partition import (
    AnticommutingPartition,
    ElectronicIntegrals,
    MajoranaPolynomial,
    RotationPlan,
    analytic_partition,
    greedy_partition,
    majorana_form,
    norms_report,
    partition_from_template,
    rotation_plan,
)
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"

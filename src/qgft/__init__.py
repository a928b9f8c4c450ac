"""Numerical engine for quantum group structure carried by a multiplicative
unitary at finite dimension: slice algebras, Haar weights, antipodes, the
generalized Fourier transform with inversion and Plancherel, convolution
products, and the Haar-weight dual pairing, with finite group models as an
exact oracle."""

from .engine import (
    CheckReport,
    ClosureFailure,
    InconsistentSlices,
    MultiplicativeUnitary,
    NotInAlgebra,
    QuantumGroupPair,
    SharpFunctional,
    SingularAntipode,
    Weight,
    WeightDerivationError,
    antipode_from_slices,
    antipode_hat_from_slices,
    check_pentagon,
    comultiply,
    dual_comultiply,
    generate_M,
    generate_Mhat,
    lam,
    lam_hat,
    pair_from_unitary,
    sharp,
)
# The transform itself is reached through the submodule (qgft.fourier.fourier,
# mirroring scipy.fft.fft) so the function never shadows the submodule.
from .fourier import (
    FourierReport,
    PairingValue,
    convolve,
    convolve_direct,
    convolve_dual,
    convolve_dual_direct,
    check_inversion,
    check_plancherel,
    inverse_fourier,
    pairing,
)
from .groups import (
    CayleyTableError,
    FiniteGroup,
    MissingInverse,
    NoIdentity,
    NonAbelianInput,
    NotAssociative,
    NotLatinSquare,
    characters,
    cyclic,
    dihedral,
    direct_product,
    from_cayley_table,
    is_abelian,
    symmetric,
)
from .linalg import (
    Functional,
    flip,
    kron,
    leg_embed,
    slice_left,
    slice_right,
    span_basis,
    subspace_equal,
)
from .models import GroupModel, build, dft_compare
from .verify import VerificationReport, run_suite

__all__ = [
    "CheckReport", "ClosureFailure", "InconsistentSlices", "MultiplicativeUnitary",
    "NotInAlgebra", "QuantumGroupPair", "SharpFunctional", "SingularAntipode",
    "Weight", "WeightDerivationError", "antipode_from_slices",
    "antipode_hat_from_slices", "check_pentagon", "comultiply", "dual_comultiply",
    "generate_M", "generate_Mhat", "lam", "lam_hat", "pair_from_unitary", "sharp",
    "FourierReport", "PairingValue", "convolve", "convolve_direct", "convolve_dual",
    "convolve_dual_direct", "check_inversion", "check_plancherel", "fourier",
    "inverse_fourier", "pairing",  # "fourier" names the submodule
    "CayleyTableError", "FiniteGroup", "MissingInverse", "NoIdentity",
    "NonAbelianInput", "NotAssociative", "NotLatinSquare", "characters", "cyclic",
    "dihedral", "direct_product", "from_cayley_table", "is_abelian", "symmetric",
    "Functional", "flip", "kron", "leg_embed", "slice_left",
    "slice_right", "span_basis", "subspace_equal",
    "GroupModel", "build", "dft_compare",
    "VerificationReport", "run_suite",
]

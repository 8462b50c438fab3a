"""Singular wave fields: generators, defect detection, period integrals.

The library builds closed-form scalar dislocation and vector disclination
configurations, detects their defects and measures topological indices,
verifies gauge and wave-equation identities by finite-difference
residuals, and keeps the associated energy or momentum bookkeeping.
"""

from .detect import (
    DefectRecord,
    LoopPath,
    NonRationalIndexError,
    RigidRotationFitError,
    UndefinedIndexError,
    axial_twist_per_length,
    find_disclinations,
    find_dislocations,
    pattern_rotation_rate,
    phase_winding,
    tifold_index,
    wrap_angle,
)
from .fieldio import load_field, save_field
from .fields import (
    ComplexScalarField,
    GridSpec,
    PotentialField,
    SamplingError,
    SpaceTimePoint,
    curl,
    divergence,
    laplacian,
    sample_potential,
    sample_scalar,
)
from .forms import (
    Chain,
    CubicalComplex,
    DiscreteForm,
    ParametricCycle,
    angular_form_components,
    annulus_complex,
    boundary,
    closed_not_exact_witness,
    coboundary,
    evaluate,
    period_integral,
    stokes_residual,
    winding_one_form,
    ws_integral,
)
from .ledger import (
    GEOMETRIC,
    SI,
    PhotonLedger,
    UnitSystem,
    dispersion_check,
    ledger_summary,
    momentum,
    spin_energy,
    total_energy,
)
from .models import (
    ConstantScalar,
    DisclinationModel,
    DislocationModel,
    IndeterminateAzimuthError,
    PlaneWaveModel,
    PotentialModel,
    ProductSineModel,
    PureGaugeModel,
    ScalarModel,
    UnsupportedModelError,
    WaveParams,
    azimuth_beta,
    model_from_descriptor,
    phase_chi,
    strip_scalar_potential,
)
from .verify import (
    ResidualReport,
    claims,
    convergence_study,
    electric_field,
    interior_slices,
    interior_stats,
    lorentz_residual,
    magnetic_field,
    transverse_divergence,
    wave_residual,
)

__version__ = "0.1.0"

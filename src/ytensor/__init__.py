"""Exact and asymptotic analysis of isotypic-component dimensions of tensor
powers: Young diagram combinatorics, exact measures, RSK samplers, limit
shapes, the variational functionals and a CLI harness."""

from .diagrams import Cell, Partition, Profile, profile, profile_from_slopes
from .exact import (
    ExactDims,
    ExactMeasure,
    MeasureKind,
    dim_gl,
    dim_iso,
    dim_sym,
    enumerate_diagrams,
    exact_dims,
    neg_log_measure_scaled,
    partition_count,
    plancherel,
    schur_weyl_measure,
)
from .functionals import (
    FunctionalReport,
    alpha_constant,
    beta_constant,
    h_term,
    lemma_A,
    lemma_F3,
    lemma_I,
    lemma_intIOmega,
    m_series,
    profile_minus_shape,
    prop31_decompose,
    prop41_identity,
    rho,
    rho_hat,
    shape_curve,
    sobolev_half_sq,
    theta_hat,
    theta_profile,
    theta_shape,
)
from .quadrature import QuadratureConfig
from .rsk import sample_plancherel, sample_schur_weyl
from .shape import omega, omega_c, omega_c_prime

__version__ = "0.1.0"

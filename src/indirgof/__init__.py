"""Fourier-series estimation of convolution-distorted regression and an
asymptotically distribution-free goodness-of-fit test for the error law."""

from .bandwidth import CvReport, cv_select, default_radius_grid, select_and_fit
from .errors import (
    DataFormatError,
    DegenerateFitError,
    IndirgofError,
    InsufficientDataError,
    LatticeCapError,
    QuadratureError,
    SingularMatrixError,
)
from .estimation import (
    Dataset,
    DensityEstimate,
    RegressionFit,
    fit,
)
from .khmaladze import (
    ProcessTrace,
    TestReport,
    brownian_sup_log10_tail,
    brownian_sup_quantile,
    brownian_sup_tail,
    build_scan,
    decide,
    statistic,
    transform,
    transform_standardized,
)
from .nulls import (
    NullModel,
    gamma_closed_form_gaussian,
    gaussian_null,
    get_null,
    score_h,
    student_t_null,
)
from .simulation import (
    ERROR_LAWS,
    PowerTable,
    SyntheticModel,
    generate,
    ktheta_true,
    paper_model,
    power_study,
    sample_g1,
)
from .spectral import FreqLattice, enumerate_lattice

__version__ = "0.1.0"

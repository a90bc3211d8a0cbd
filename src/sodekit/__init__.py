"""sodekit: decide whether a vector field is a second-order differential
equation field in disguise, compute the associated connections and curvature
tests, and numerically construct the normalizing coordinates."""

__version__ = "0.1.0"

from .expressions import (  # noqa: F401
    Expr, Num, Sym, Add, Mul, Div, Pow, Fn,
    differentiate, evaluate, free_symbols, normalize, syms, to_str,
)
from .parser import parse, ParseError  # noqa: F401
from .sampling import ZeroProbe, ZeroVerdict, is_zero  # noqa: F401
from .geometry import (  # noqa: F401
    Chart, Frame, VectorField, coordinate_field, decompose_in_frame,
    frame_rank, is_involutive, lie_bracket,
)
from .analysis import (  # noqa: F401
    AnalysisReport, Options, SecondOrderProblem, adapt_commuting_basis,
    bracket_coefficients, build_extended_frame, check_regularity,
    check_w_involutive, classify, mixed_curvature,
    verify_bracket_integrability,
)
from .straighten import (  # noqa: F401
    CoordinateTransform, NumericFailure, build_normal_coordinates,
    integrate_flows, pushforward_residuals, transported_fibre_fields,
)
from .manifest import Manifest, ManifestError, load_manifest  # noqa: F401
from .corpus import corpus_get, corpus_list  # noqa: F401

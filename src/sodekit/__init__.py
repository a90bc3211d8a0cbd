"""sodekit: decide whether a vector field is a second-order differential
equation field in disguise, compute the associated connections and curvature
tests, and numerically construct the normalizing coordinates."""

__version__ = "0.1.0"

from .parser import parse  # noqa: F401
from .geometry import Chart, Frame, VectorField  # noqa: F401
from .analysis import SecondOrderProblem, classify  # noqa: F401
from .straighten import (  # noqa: F401
    build_normal_coordinates, pushforward_residuals,
)

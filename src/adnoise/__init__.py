"""Electric-field noise and ion heating from adsorbed-atom dipole fluctuations.

Pipeline: surface potential parameters -> bound vibrational states ->
induced dipole ladder -> phonon transition rates -> dipole fluctuation
spectrum -> field noise above the electrode -> ion heating rate.
"""

__version__ = "0.1.0"

from .errors import (AdnoiseError, AnalysisError, ConfigurationError,
                     DomainError, GridError, ModelError, NumericalError)
from .units import CODATA, convert_dipole, convert_energy, convert_length

__all__ = [
    "AdnoiseError", "AnalysisError", "ConfigurationError", "DomainError",
    "GridError", "ModelError", "NumericalError",
    "CODATA", "convert_dipole", "convert_energy", "convert_length",
    "__version__",
]

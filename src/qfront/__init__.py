"""Numerical toolkit for wave mechanics with a finite perturbation-front speed.

The package covers four connected pieces: fast-marching solution of the
front traveltime equation |grad t_P| = 1/v_P, Crank-Nicolson propagation
of the instantaneous Schrodinger equation with retarded (local-time)
evaluation behind the front, closed-form modified de Broglie dispersion
relations, and least-squares recovery of the front speed from electron
diffraction records.

Names resolve on first use (PEP 562), so ``import qfront`` loads no
submodule, and tabulating dispersion or fitting records imports neither
numpy nor scipy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "constants": ("CODATA2018", "PhysicalConstants", "natural_units"),
    "fields": ("Grid", "ScalarField", "ComplexField", "l2_norm_squared",
               "read_field_csv", "write_field_csv"),
    "eikonal": ("SourceSpec", "TraveltimeField", "solve_traveltime", "front_mask"),
    "localtime": ("LocalTimeField", "RegionClass", "local_time", "write_localtime_csv"),
    "schrodinger": ("QuantumProblem", "ClassicalSolution", "ConvergenceError",
                    "HistoryWindowError", "propagate_classical", "evaluate_modified",
                    "difference_estimate", "make_plane_wave", "gaussian_packet",
                    "box_eigenmode"),
    "dispersion": ("WavePhaseDecomposition", "FreeParticle", "WavelengthRegime",
                   "modified_wavenumber_general", "modified_wavenumber_free",
                   "modified_phase_velocity", "modified_group_velocity",
                   "wavelength_regime"),
    "fit": ("DiffractionRecord", "FitResult", "derive_kinematics", "fit_vp",
            "model_curves", "read_records_csv", "write_fit_json", "synthesize_records"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import the submodule that defines name, on first use only."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """The module's names and every public name, imported or not."""
    return sorted({*globals(), *__all__})

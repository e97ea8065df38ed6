"""Electron-nuclear spin bath simulator for a spin-1 defect in diamond.

Exact-diagonalization ESR spectra of an S = 1 electron coupled to up to six
spin-1/2 nuclei, analytic concentration-dependent linewidth models, Monte
Carlo bath coherence decays with model fitting, and density-matrix pulse
sequence simulation of nuclear-spin registers.
"""

__version__ = "0.1.0"

from .errors import (AmbiguousTransitionError, DimensionLimitError,
                     FitError, FlatSignalError, InsufficientSitesError,
                     ResourceLimitError, ValidationError)
from .spinsys import (HyperfineTensor, SpinSystemSpec, Spectrum,
                      TransitionLine, ZeemanField, ZfsParams,
                      build_hamiltonian, diagonalize, esr_transitions,
                      first_shell_tensor, synth_spectrum,
                      third_shell_tensor)
from .lattice import (BathSample, Lattice, LatticeSite, classify_shells,
                      generate_lattice, sample_bath, shell_summary)
from .linewidth import (ContactSiteSet, LinewidthPoint, contact_linewidth,
                        dipolar_linewidth_closed_form,
                        dipolar_second_moment_sum, linewidth_curve,
                        linewidth_to_t2star, t2star_to_linewidth)
from .decoherence import (BellT2Result, DecayCurve, DecayFit, ScalingModel,
                          bell_t2star_from_sq, bell_t2star_intervals,
                          fit_decay, fit_envelope_rate, fit_t2_scaling,
                          pair_couplings, simulate_bath_fid)
from .pulses import (Pulse, Register, RegisterState, Wait,
                     bell_prepare_and_fidelity, bell_sequence,
                     endor_transfer, hahn_echo_sequence, parse_sequence,
                     rabi_simulate, run_sequence)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Link-level simulation and closed-form analysis of RIS-aided high-mobility
links built on a Doppler-robust real-domain linear model."""

from .analysis import (GammaParams, SeriesControl, SeriesTruncationError,
                       closed_form_ser, gamma_difference_pdf, gaussian_approx,
                       generalized_gamma_pdf, rician_envelope_pdf)
from .channel import (Angles, ArrayGeometry, JakesFading, ReflectionPattern,
                      align_phases_to_los, cascade, cascade_decomposition,
                      complex_normal, los_component, rician_weights,
                      ula_steering, upa_steering)
from .config import ConfigError, ScenarioConfig, load_scenario
from .downlink import (PilotBlock, Precoder, RankDeficientChannel,
                       RankDeficientPilots, SearchTooLarge, equivalent_channel,
                       hadamard_pilots, joint_detect, ls_estimate,
                       output_snr_asymptotic, output_snr_exact,
                       precoded_ber_exact, precoded_roundtrip, zf_precoder)
from .harness import (CurveResult, export_csv, read_curve_csv, run_downlink_ber,
                      run_output_snr, run_pdf_fit, run_uplink_ser)
from .uplink import (DecisionRegions, LinearGains, UplinkChannelSet,
                     antenna_observation, build_regions, exact_linear_gains,
                     pilot_gain_estimate, region_detect)
from .waveform import (ComplementarySymbol, CorrelatorPair, TonePair,
                       equivalent_noise, magnitude_difference)

__version__ = "0.1.0"

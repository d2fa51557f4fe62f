"""Outage analysis of opportunistic relay selection over Nakagami-m fading:
exact closed forms, high-SNR asymptotics, and protocol-level Monte Carlo."""

from .analytic import (
    AfBounds,
    AsymptoticResult,
    ClosedFormUnavailableError,
    QuadratureError,
    RateSpec,
    af_bounds,
    af_path_cdf_closed,
    af_path_cdf_quadrature,
    asymptotic_outage_dfaf,
    coding_gain_dfaf,
    diversity_order_dfaf,
    outage_af_sc,
    outage_df_sc,
    outage_dfaf_sc,
)
from .channel import (
    ChannelSpec,
    LinkSnr,
    NetworkSpec,
    PowerSpec,
    link_snr,
    make_stream,
    network_link_snrs,
    sample_snr,
    snr_cdf,
)
from .experiments import (
    DiversityFit,
    Scenario,
    ScenarioError,
    ZeroOutageError,
    fit_diversity,
    load_scenario,
    preset,
    preset_names,
    run_diversity_surface,
    run_scenario,
    sweep_alpha,
)
from .montecarlo import (
    Combiner,
    CoupledEstimates,
    OutageEstimate,
    Scheme,
    estimate_outage_coupled,
    wilson_interval,
)

__version__ = "0.1.0"

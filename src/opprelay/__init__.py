"""Outage analysis of opportunistic relay selection over Nakagami-m fading:
exact closed forms, high-SNR asymptotics, and protocol-level Monte Carlo."""

from .analytic import (
    AfBounds,
    QuadratureError,
    RateSpec,
    Scheme,
    af_bounds,
    af_path_cdf_quadrature,
    asymptotic_outage,
    diversity_order_dfaf,
    outage_sc,
)
from .channel import (
    ChannelSpec,
    LinkSnr,
    NetworkSpec,
    PowerSpec,
    make_stream,
    network_link_snrs,
    sample_snr,
    snr_cdf,
)
from .experiments import (
    AlphaSweep,
    Curve,
    Scenario,
    ScenarioError,
    Surface,
    ZeroOutageError,
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
    estimate_outage_coupled,
    wilson_interval,
)

__version__ = "0.1.0"

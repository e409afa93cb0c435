"""Desk-scale plant electrophysiology bench.

Impedance and biopotential estimators, multi-rate retention pipes, a detector
bank with an expression-driven actuation engine, and a physically grounded
plant simulator to drive it all deterministically.
"""

from .actuation import (
    ACTUATOR_KINDS,
    ActuationEngine,
    Binding,
    ElectricalStimulation,
    Expression,
    ExpressionError,
    Firing,
    GenericSink,
    HomeostatConfig,
    MessageToFile,
    MessageToIp,
    Relay,
    RgbLed,
)
from .channels import (
    ChannelCategory,
    ChannelId,
    ChannelKind,
    ChannelSpec,
    Record,
    default_channels,
    quantize_for,
)
from .config import BenchConfig, ConfigError, load_config, parse_config
from .detectors import DETECTOR_KINDS, DetectorBank, build_detector
from .fra import (
    ImpedanceAnalysis,
    OpenCircuitError,
    PeriodStabilityError,
    SweepSpec,
    analyze_pair,
    exact_cycles,
    fra_single_point,
    lockin_correlation,
    lockin_phase,
    magnitude_phase,
    plan_sweep,
    rms,
    rms_resistivity,
    run_sweep,
    scope_spectrum,
    synthesize_excitation,
    write_sweep_csv,
)
from .logstore import LogStore, emit_report, iter_store, replay
from .pipes import TieredPipes, TierLayout
from .runtime import Runtime, RunSummary
from .simulator import (
    Event,
    EventKind,
    PlantSimulator,
    SimParams,
    TissueModel,
    sweep_responder,
    tissue_response,
)

__version__ = "0.1.0"

__all__ = [
    "ACTUATOR_KINDS",
    "ActuationEngine",
    "BenchConfig",
    "Binding",
    "ChannelCategory",
    "ChannelId",
    "ChannelKind",
    "ChannelSpec",
    "ConfigError",
    "DETECTOR_KINDS",
    "DetectorBank",
    "ElectricalStimulation",
    "Event",
    "EventKind",
    "Expression",
    "ExpressionError",
    "Firing",
    "GenericSink",
    "HomeostatConfig",
    "ImpedanceAnalysis",
    "LogStore",
    "MessageToFile",
    "MessageToIp",
    "OpenCircuitError",
    "PeriodStabilityError",
    "PlantSimulator",
    "Record",
    "Relay",
    "RgbLed",
    "RunSummary",
    "Runtime",
    "SimParams",
    "SweepSpec",
    "TieredPipes",
    "TierLayout",
    "TissueModel",
    "analyze_pair",
    "build_detector",
    "default_channels",
    "emit_report",
    "exact_cycles",
    "fra_single_point",
    "iter_store",
    "load_config",
    "lockin_correlation",
    "lockin_phase",
    "magnitude_phase",
    "parse_config",
    "plan_sweep",
    "quantize_for",
    "replay",
    "rms",
    "rms_resistivity",
    "run_sweep",
    "scope_spectrum",
    "sweep_responder",
    "synthesize_excitation",
    "tissue_response",
    "write_sweep_csv",
]

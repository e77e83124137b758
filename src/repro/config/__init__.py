"""System configuration for the NDPBridge model (paper Table I / II)."""

from .system import (
    BalanceConfig,
    BridgeConfig,
    CommConfig,
    CoreConfig,
    Design,
    DRAMTimingConfig,
    EnergyConfig,
    GATHER_HEADROOM_BLOCKS,
    HostConfig,
    SketchConfig,
    SRAMConfig,
    SystemConfig,
    TopologyConfig,
    TriggerMode,
    UnitMemConfig,
)
from .presets import (
    ablation_config,
    default_config,
    scaled_config,
    small_config,
    tiny_config,
)
from .validation import ConfigError, validate_config

__all__ = [
    "BalanceConfig",
    "BridgeConfig",
    "CommConfig",
    "CoreConfig",
    "Design",
    "DRAMTimingConfig",
    "EnergyConfig",
    "GATHER_HEADROOM_BLOCKS",
    "HostConfig",
    "SketchConfig",
    "SRAMConfig",
    "SystemConfig",
    "TopologyConfig",
    "TriggerMode",
    "UnitMemConfig",
    "ConfigError",
    "validate_config",
    "ablation_config",
    "default_config",
    "scaled_config",
    "small_config",
    "tiny_config",
]

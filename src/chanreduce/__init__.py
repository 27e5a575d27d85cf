"""Greedy per-macroblock channel reduction for convolutional networks.

The package finds, for each macroblock of a trained CNN, the smallest uniform
width multiplier that keeps accuracy within a tolerance of the unmodified
network, using binary search over the multiplier and a pluggable evaluation
oracle (analytic surrogate, recorded ledger, or an external trainer process).
"""

from .accounting import (BYTES_PER_SCALAR, MB, BlockUsage, SizeReport,
                         count_parameters, saving_percent)
from .arch import (BatchNorm, ChannelConfig, Conv, FullyConnected, GlobalAvgPool,
                   Macroblock, MacroblockPartition, ModelMeta, ModelSpec, Pool,
                   apply_alpha_scaling, apply_constant_lesion, apply_macroblock_scale,
                   apply_proportional_lesion, build_sequential_cnn, channel_config,
                   partition_macroblocks, scale_width, structural_key, with_config)
from .config import ConfigError, RunConfig
from .lesion import (SWEEP_CONSTANT, SWEEP_MACROBLOCK, SWEEP_PROPORTIONAL, SweepObservation,
                     SweepPlan, run_onehot_sweep, write_onehot_csv, write_rd_points_csv)
from .oracle import (FINAL_BUDGET, SEARCH_BUDGET, STATUS_FAILED, STATUS_OK,
                     STATUS_TIMEOUT, EvaluationLedger, EvaluationRecord,
                     MissingEvaluationError, RecordingOracle, SurrogateOracle,
                     SurrogateParams, TrainingBudget, config_digest, distortion,
                     surrogate_accuracy)
from .presets import (load_descriptor, mobilenet, resnet18, resnet34, save_descriptor,
                      spec_from_dict, spec_to_dict)
from .rdcurve import (RDPoint, build_alpha_curve, build_alpha_plus_backward_curve,
                      export_curve, export_gnuplot)
from .search import (BetaMode, ReductionResult, SearchProbe, backward_reduction,
                     forward_reduction, search_macroblock_multiplier)
from .trainer import ExternalTrainerOracle, build_request

__version__ = "0.1.0"

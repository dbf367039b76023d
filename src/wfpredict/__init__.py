"""Online incremental task-runtime prediction for workflow schedulers."""

from .domain import (
    CategoryVocab,
    MetricKind,
    MetricSeries,
    Prediction,
    PreRuntimeFeatures,
    Scenario,
    TaskExecutionRecord,
    encode_pre_runtime,
)
from .evaluation import EvalReport, generate_synthetic, rae, run_batch_offline, run_online
from .forecaster import SequenceModel
from .knn import InstanceWindow
from .pipeline import PipelineConfig, Registry
from .store import RecordLog, downsample
from .tsfeat import strip_padding, trev

__version__ = "0.1.0"

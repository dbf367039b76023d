"""Online incremental task-runtime prediction for workflow schedulers."""

__version__ = "0.1.0"

"""Reverse-mode autodiff core: tensors, tape, Adam, checkpoints."""

from mtss.diffnum.tape import (
    Tensor,
    Tape,
    ShapeMismatchError,
    attend,
    lstm_row_step,
)
from mtss.diffnum.optim import Adam, DivergenceError
from mtss.diffnum.checkpoint import CheckpointError, load_checkpoint, save_checkpoint

__all__ = [
    "Tensor",
    "Tape",
    "ShapeMismatchError",
    "attend",
    "lstm_row_step",
    "Adam",
    "DivergenceError",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
]

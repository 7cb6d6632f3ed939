"""Reverse-mode autodiff core: tensors, tape, Adam, checkpoints."""

from mtss.diffnum.tape import (
    Tensor,
    Tape,
    ShapeMismatchError,
    TapeError,
    attend,
)
from mtss.diffnum.optim import Adam, AdamState, DivergenceError, adam_step
from mtss.diffnum.checkpoint import CheckpointError, load_checkpoint, save_checkpoint

__all__ = [
    "Tensor",
    "Tape",
    "ShapeMismatchError",
    "TapeError",
    "attend",
    "Adam",
    "AdamState",
    "DivergenceError",
    "adam_step",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
]

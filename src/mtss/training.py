"""Loss functions, warm-start curriculum, and the training loop.

The student objective is the response negative log likelihood plus two
weighted distillation terms: a text-level cross entropy against the frozen
teacher's per-position distributions and a policy-level squared distance
between the teacher's and the student's action vectors. Teachers never
receive gradients from student training.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from mtss import check_count, check_number
from mtss.corpus import Corpus, Vocabulary
from mtss.corpus.state import state_size
from mtss.diffnum import Adam, Tape, Tensor
from mtss.metrics import mean_entity_recall, score_corpus
from mtss.models import (
    ModelConfig,
    PreparedTurn,
    StudentModel,
    TeacherEnsemble,
    TeacherModel,
    ensemble_domains,
    generate_responses,
    prepare_turns,
)

log = logging.getLogger(__name__)


class TrainingDivergenceError(RuntimeError):
    """A training step overflowed or its loss became non-finite; the message
    names the model, epoch, episode and turn."""


@dataclass(frozen=True)
class TrainingConfig:
    """The training recipe; a bad value raises ``ValueError`` (a bool is not a number)."""

    alpha1: float = 0.005          # text-level distillation weight
    alpha2: float = 0.005          # policy-level distillation weight
    lr: float = 0.005
    epochs: int = 5
    seed: int = 0
    grad_clip: float | None = None
    teacher_epochs: int = 6
    finetune_epochs: int = 3
    val_fraction: float = 0.1
    max_decode_len: int = 30
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "lr", "val_fraction"):
            check_number(name, getattr(self, name))
        if not self.val_fraction < 1:
            raise ValueError(f"val_fraction must lie in [0, 1), got {self.val_fraction!r}")
        if self.grad_clip is not None:
            check_number("grad_clip", self.grad_clip, positive=True)
        for name in ("seed", "epochs", "teacher_epochs", "finetune_epochs"):
            check_count(name, getattr(self, name), 0)
        check_count("max_decode_len", self.max_decode_len, 1)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainingConfig":
        doc = dict(doc)
        model = doc.pop("model", None)
        return cls(**doc) if model is None else cls(**doc, model=ModelConfig(**model))


@dataclass
class EpochStats:
    epoch: int
    nll: float
    kd_text: float
    kd_policy: float
    total: float
    seconds: float
    val_success: float | None = None
    val_bleu: float | None = None
    val_entity_recall: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


# -- loss functions ------------------------------------------------------------


def nll_loss(tape: Tape, log_probs: Tensor, target_ids: Sequence[int]) -> Tensor:
    """Summed negative log likelihood of the gold tokens under the (T, V)
    per-position log-probabilities.
    """
    return tape.neg(tape.sum(tape.pick(log_probs, target_ids)))


def kd_text_loss(tape: Tape, teacher_probs: np.ndarray, log_probs: Tensor) -> Tensor:
    """Cross entropy -sum(p_teacher * log q_student) from the frozen teacher
    probabilities to the student's (T, V) log-probabilities.

    Both sides must be teacher-forced on the same gold prefix; the teacher
    matrix is a constant, so no gradient reaches teacher parameters.
    """
    return tape.neg(tape.sum(tape.mul(Tensor(teacher_probs), log_probs)))


def kd_policy_loss(tape: Tape, teacher_action: np.ndarray, student_action: Tensor) -> Tensor:
    """Summed squared distance between action vectors; the teacher's is constant."""
    diff = tape.sub(student_action, Tensor(teacher_action))
    return tape.sum(tape.mul(diff, diff))


def combined_loss(tape: Tape, j_nll: Tensor, j_kd: Tensor | None, j_kd_policy: Tensor | None,
                  alpha1: float, alpha2: float) -> Tensor:
    """j_nll + alpha1 * j_kd + alpha2 * j_kd_policy; degenerates to j_nll exactly."""
    total = j_nll
    if alpha1 != 0.0 and j_kd is not None:
        total = tape.add(total, tape.scale(j_kd, alpha1))
    if alpha2 != 0.0 and j_kd_policy is not None:
        total = tape.add(total, tape.scale(j_kd_policy, alpha2))
    return total


# -- splits and run records ------------------------------------------------------


def split_train_val(corpus: Corpus, val_fraction: float) -> tuple[Corpus, Corpus]:
    """Deterministic episode-level holdout: every k-th episode validates."""
    if val_fraction <= 0 or len(corpus.episodes) < 2:
        return corpus, Corpus(corpus.schemas, corpus.database, [])
    # Once the stride reaches the episode count only episode 0 validates, so
    # a tiny fraction (whose inverse may be infinite) gives that split too.
    stride = max(2, round(min(1.0 / val_fraction, len(corpus.episodes))))
    train_eps = [e for i, e in enumerate(corpus.episodes) if i % stride != 0]
    val_eps = [e for i, e in enumerate(corpus.episodes) if i % stride == 0]
    return (
        Corpus(corpus.schemas, corpus.database, train_eps),
        Corpus(corpus.schemas, corpus.database, val_eps),
    )


def _append_log(log_path, record: dict) -> None:
    if log_path is None:
        return
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def _snapshot(model, into: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """A copy of the model's parameters, written into ``into`` (an earlier
    snapshot of the same model) when one is given."""
    if into is None:
        return {name: p.data.copy() for name, p in model.params.items()}
    for name, p in model.params.items():
        np.copyto(into[name], p.data)
    return into


# -- the training loop ----------------------------------------------------------------

# losses(tape, index, item) -> (J_NLL, J_KD or None, J_KD_pi or None, total) on the tape.
Losses = Callable[[Tape, int, PreparedTurn], tuple]


def _epoch(
    items: list[PreparedTurn],
    optimizer: Adam,
    rng: np.random.Generator,
    epoch: int,
    label: str,
    losses: Losses,
) -> EpochStats:
    """One pass over the items in a fresh random order, one Adam step per
    turn. A non-finite loss, or an overflow or invalid operation anywhere in
    a step, is a divergence."""
    start = time.monotonic()
    sums = [0.0, 0.0, 0.0, 0.0]
    for index in rng.permutation(len(items)):
        item = items[index]
        tape = Tape()
        try:
            with np.errstate(over="raise", invalid="raise"):
                terms = losses(tape, index, item)
                value = terms[-1].item()
                if not np.isfinite(value):
                    raise FloatingPointError(f"loss={value!r}")
                optimizer.zero_grad()
                tape.backward(terms[-1])
                optimizer.step()
        except FloatingPointError as exc:
            raise TrainingDivergenceError(f"{label} diverged at epoch {epoch}, episode {item.episode_id} "
                                          f"turn {item.turn_index}: {exc}") from None
        for k, term in enumerate(terms):
            sums[k] += term.item() if term is not None else 0.0
    n = max(1, len(items))
    return EpochStats(epoch, *(s / n for s in sums), time.monotonic() - start)


def _fit(
    model,
    items: list[PreparedTurn],
    epochs: int,
    rng: np.random.Generator,
    label: str,
    losses: Losses,
    config: TrainingConfig,
    log_path,
    score: Callable[[EpochStats], object] | None = None,
    best: tuple = (None, None),
) -> list[EpochStats]:
    """Train for ``epochs`` epochs and log one record per epoch.

    ``score(record)``, when given, fills the record's validation fields and
    returns a comparable key, or None when nothing was scored. The model
    ends with the parameters of the highest key; ``best`` is the
    (key, parameters) candidate to beat before the first epoch. A better
    epoch is copied into the one snapshot ``_fit`` holds.
    """
    optimizer = Adam(model.parameter_list(), lr=config.lr, clip_norm=config.grad_clip)
    best_key, best_params = best
    stats = []
    for epoch in range(1, epochs + 1):
        record = _epoch(items, optimizer, rng, epoch, label, losses)
        key = score(record) if score is not None else None
        if key is not None and (best_key is None or key > best_key):
            best_key, best_params = key, _snapshot(model, best_params)
        stats.append(record)
        _append_log(log_path, {"model": label, **record.to_dict()})
    # Nothing reads the last step's gradients, so the model keeps none.
    optimizer.zero_grad()
    if best_key is not None:
        model.load_arrays(best_params)
    return stats


# -- teacher training ----------------------------------------------------------------


def _teacher_losses(model: TeacherModel) -> Losses:
    def losses(tape: Tape, index: int, item: PreparedTurn):
        log_probs, _ = model.respond_forced(tape, item.user_ids, item.state, item.gold_ids)
        nll = nll_loss(tape, log_probs, item.gold_ids[1:])
        return nll, None, None, nll

    return losses


def train_universal_teacher(
    items: list[PreparedTurn],
    in_vocab: Vocabulary,
    out_vocab: Vocabulary,
    state_dim: int,
    config: TrainingConfig,
    log_path=None,
) -> tuple[TeacherModel, list[EpochStats]]:
    """Train the warm-start base on every domain's prepared turns with the
    NLL objective; ``state_dim`` is the length of the oracle state vector.
    """
    model = TeacherModel(
        config.model, len(in_vocab), len(out_vocab), state_dim, domain="all",
        seed=int(np.random.default_rng([config.seed, 0]).integers(2**31)),
    )
    rng = np.random.default_rng([config.seed, 1])
    return model, _fit(model, items, config.teacher_epochs, rng, "teacher-all",
                       _teacher_losses(model), config, log_path)


def finetune_domain_teacher(
    universal: TeacherModel,
    domain: str,
    domain_index: int,
    bucket: list[PreparedTurn],
    val_bucket: list[PreparedTurn],
    out_vocab: Vocabulary,
    config: TrainingConfig,
    log_path=None,
) -> tuple[TeacherModel, list[EpochStats]]:
    """Fine-tune a copy of the universal teacher on one domain's prepared turns.

    ``domain_index`` (the domain's position among the ensemble's teachers)
    seeds the shuffling. The checkpoint with the best validation Entity
    Recall on ``val_bucket`` is kept, and the unmodified copy is candidate
    zero, so the result never validates worse than the universal teacher.
    Domains without placeholder-bearing validation turns (generic chatter)
    keep the final epoch.
    """
    model = universal.clone(domain=domain)
    if not bucket:
        log.warning("empty training bucket for domain %r; returning the universal teacher", domain)
        return model, []

    def validation_recall(record: EpochStats | None = None) -> float | None:
        generated = generate_responses(model, val_bucket, out_vocab, config.max_decode_len)
        recall = mean_entity_recall(
            (generated[(item.episode_id, item.turn_index)], out_vocab.decode(item.gold_ids))
            for item in val_bucket
        )
        if record is not None:
            record.val_entity_recall = recall
        return recall

    recall = validation_recall()
    best = (recall, _snapshot(model)) if recall is not None else (None, None)
    rng = np.random.default_rng([config.seed, 2, domain_index])
    return model, _fit(model, bucket, config.finetune_epochs, rng, f"teacher-{domain}",
                       _teacher_losses(model), config, log_path, validation_recall, best)


def train_teacher_ensemble(
    corpus: Corpus,
    in_vocab: Vocabulary,
    out_vocab: Vocabulary,
    config: TrainingConfig,
    log_path=None,
) -> tuple[TeacherEnsemble, dict[str, list[EpochStats]]]:
    """Universal teacher on all training turns, then one fine-tuned teacher
    per domain bucket. Each split is prepared once and shared by every teacher.
    """
    train_part, val_part = split_train_val(corpus, config.val_fraction)
    items = prepare_turns(train_part, in_vocab, out_vocab)
    val_items = prepare_turns(val_part, in_vocab, out_vocab)
    universal, universal_stats = train_universal_teacher(
        items, in_vocab, out_vocab, state_size(corpus.schemas), config, log_path
    )
    all_stats = {"all": universal_stats}
    teachers: dict[str, TeacherModel] = {}
    for index, domain in enumerate(ensemble_domains(corpus.schemas)):
        teachers[domain], all_stats[domain] = finetune_domain_teacher(
            universal, domain, index,
            [i for i in items if i.domain == domain],
            [i for i in val_items if i.domain == domain],
            out_vocab, config, log_path,
        )
    return TeacherEnsemble(teachers, universal), all_stats


# -- student training -----------------------------------------------------------------


def _teacher_targets(
    teacher: TeacherModel, item: PreparedTurn
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen teacher outputs for one turn: per-position probabilities and action."""
    tape = Tape(record=False)
    log_probs, action = teacher.respond_forced(tape, item.user_ids, item.state, item.gold_ids)
    return np.exp(log_probs.data), action.data.copy()


@dataclass
class DistillationData:
    """What student training reads: the prepared training turns, each turn's
    teacher targets (None when no teacher runs), and the validation split."""

    items: list[PreparedTurn]
    targets: list[tuple[np.ndarray, np.ndarray]] | None
    val_part: Corpus
    val_items: list[PreparedTurn]


def distillation_data(
    corpus: Corpus,
    ensemble: TeacherEnsemble,
    in_vocab: Vocabulary,
    out_vocab: Vocabulary,
    config: TrainingConfig,
) -> DistillationData:
    """The targets phase of distilling the ensemble into one HRED student:
    split and prepare the corpus, then run the teacher of each training
    turn's domain teacher-forced on the oracle state, once. Every epoch of
    ``fit_student`` reads these targets, so no teacher is needed once this
    returns: a caller that passes the only reference to a temporary ensemble
    frees it before the student is built, as ``mtss train-student`` does.
    The targets are dense, turns × gold length × V_out float64 values
    (ROADMAP item 10); recomputing them each epoch instead made student
    training 4.4% slower (CHANGES.md, "Losses on log-probabilities"). With
    both weights zero (the plain history-only baseline), or no epoch to
    train, no teacher runs.
    """
    train_part, val_part = split_train_val(corpus, config.val_fraction)
    # Only a teacher reads oracle states, and only for the targets, so each
    # turn's state is dropped once its targets exist.
    needs_teacher = (config.alpha1 > 0 or config.alpha2 > 0) and config.epochs > 0
    items = prepare_turns(train_part, in_vocab, out_vocab, states=needs_teacher)
    val_items = prepare_turns(val_part, in_vocab, out_vocab, states=False)
    targets = None
    if needs_teacher:
        targets = []
        for item in items:
            targets.append(_teacher_targets(ensemble.teachers[item.domain], item))
            item.state = None
    return DistillationData(items, targets, val_part, val_items)


def fit_student(
    data: DistillationData,
    in_vocab: Vocabulary,
    out_vocab: Vocabulary,
    config: TrainingConfig,
    log_path=None,
) -> tuple[StudentModel, list[EpochStats]]:
    """The training phase, on the targets of ``distillation_data``: the
    student runs teacher-forced on the raw history, and the combined loss
    backpropagates into student parameters only."""
    student = StudentModel(
        config.model, len(in_vocab), len(out_vocab),
        seed=int(np.random.default_rng([config.seed, 10]).integers(2**31)),
    )
    rng = np.random.default_rng([config.seed, 11])

    def losses(tape: Tape, index: int, item: PreparedTurn):
        log_probs, action = student.respond_forced(tape, item.history_ids, item.gold_ids)
        j_nll = nll_loss(tape, log_probs, item.gold_ids[1:])
        j_kd = j_policy = None
        if data.targets is not None:
            teacher_probs, teacher_action = data.targets[index]
            if config.alpha1 > 0:
                j_kd = kd_text_loss(tape, teacher_probs, log_probs)
            if config.alpha2 > 0:
                j_policy = kd_policy_loss(tape, teacher_action, action)
        return j_nll, j_kd, j_policy, combined_loss(
            tape, j_nll, j_kd, j_policy, config.alpha1, config.alpha2
        )

    def score(record: EpochStats) -> tuple | None:
        if not data.val_part.episodes:
            return None
        generated = generate_responses(student, data.val_items, out_vocab, config.max_decode_len)
        report = score_corpus(data.val_part, generated)
        record.val_success, record.val_bleu = report.success, report.bleu4
        return report.success, report.bleu4, record.epoch

    return student, _fit(student, data.items, config.epochs, rng, "student", losses, config,
                         log_path, score)


# -- evaluation ---------------------------------------------------------------------


def evaluate_model(
    model,
    corpus: Corpus,
    in_vocab: Vocabulary,
    out_vocab: Vocabulary,
    max_len: int = 30,
):
    """Generate responses for every turn and score them; returns (report, generated)."""
    items = prepare_turns(corpus, in_vocab, out_vocab, states=not isinstance(model, StudentModel))
    generated = generate_responses(model, items, out_vocab, max_len)
    return score_corpus(corpus, generated), generated


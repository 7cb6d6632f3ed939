"""Loss functions, teacher routing, warm-start curriculum, and training loops.

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
from typing import Sequence

import numpy as np

from mtss.corpus import GENERAL_DOMAIN, Corpus, Vocabulary
from mtss.corpus.state import BeliefLayout, state_size, turn_state
from mtss.corpus.types import iter_turns
from mtss.diffnum import Adam, Tape, Tensor
from mtss.metrics import entity_recall, score_corpus
from mtss.models import (
    ModelConfig,
    StudentModel,
    TeacherModel,
    generate_responses,
    history_token_ids,
)

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12


class TrainingDivergenceError(RuntimeError):
    """Loss became non-finite; the message carries the state dump."""


class ClampCounter:
    """Counts gold tokens whose predicted probability had to be clamped."""

    def __init__(self):
        self.count = 0

    def add(self, n: int) -> None:
        self.count += n

    def reset(self) -> None:
        self.count = 0


nll_clamp_warnings = ClampCounter()


@dataclass
class TrainingConfig:
    alpha1: float = 0.005          # text-level distillation weight
    alpha2: float = 0.005          # policy-level distillation weight
    lr: float = 0.005
    epochs: int = 5
    seed: int = 0
    grad_clip: float | None = None
    warm_start: bool = True
    teacher_epochs: int = 6
    finetune_epochs: int = 3
    val_fraction: float = 0.1
    select_best: bool = True
    max_decode_len: int = 30
    cache_teacher_outputs: bool = True
    model: ModelConfig = field(default_factory=ModelConfig)

    def validate(self) -> None:
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ValueError("distillation weights must be non-negative")
        if self.lr < 0:
            raise ValueError("learning rate must be non-negative")
        for name in ("epochs", "teacher_epochs", "finetune_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainingConfig":
        doc = dict(doc)
        model = doc.pop("model", None)
        config = cls(**doc, model=ModelConfig(**model)) if model else cls(**doc)
        config.validate()
        return config


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


@dataclass
class TeacherEnsemble:
    """One fine-tuned teacher per domain plus the generic one and the universal base."""

    teachers: dict[str, TeacherModel]
    universal: TeacherModel
    domains: tuple[str, ...]

    def validate(self) -> None:
        shapes = {name: p.data.shape for name, p in self.universal.params.items()}
        for domain, teacher in self.teachers.items():
            for name, p in teacher.params.items():
                if p.data.shape != shapes[name]:
                    raise ValueError(f"teacher {domain!r} parameter {name!r} shape mismatch")


# -- loss functions ------------------------------------------------------------


def nll_loss(tape: Tape, dists: Tensor, target_ids: Sequence[int]) -> Tensor:
    """Summed negative log likelihood of the gold tokens under the (T, V)
    per-position distributions.
    """
    if dists.data.ndim != 2 or dists.data.shape[0] != len(target_ids):
        raise ValueError(
            f"need one distribution per gold position: {dists.shape} vs {len(target_ids)}"
        )
    picked = tape.pick(dists, target_ids)
    clamped_positions = int((picked.data < PROB_FLOOR).sum())
    if clamped_positions:
        nll_clamp_warnings.add(clamped_positions)
    return tape.neg(tape.sum(tape.log(tape.clamp_min(picked, PROB_FLOOR))))


def kd_text_loss(tape: Tape, teacher_probs: np.ndarray, student_dists: Tensor) -> Tensor:
    """Cross entropy from the frozen teacher distributions to the student's.

    Both sides must be teacher-forced on the same gold prefix; the teacher
    matrix is a constant, so no gradient reaches teacher parameters.
    """
    if teacher_probs.ndim != 2 or student_dists.data.shape[0] != teacher_probs.shape[0]:
        raise ValueError(
            f"teacher/student position counts differ: {teacher_probs.shape} vs {student_dists.shape}"
        )
    if student_dists.data.shape[1] != teacher_probs.shape[1]:
        raise ValueError("teacher and student vocabulary widths differ")
    logs = tape.log(tape.clamp_min(student_dists, PROB_FLOOR))
    return tape.neg(tape.sum(tape.mul(Tensor(teacher_probs), logs)))


def kd_policy_loss(tape: Tape, teacher_action: np.ndarray, student_action: Tensor) -> Tensor:
    """Summed squared distance between action vectors; the teacher's is constant."""
    if teacher_action.shape != student_action.data.shape:
        raise ValueError(
            f"action dimensions differ: {teacher_action.shape} vs {student_action.data.shape}"
        )
    diff = tape.sub(student_action, Tensor(teacher_action))
    return tape.sum(tape.mul(diff, diff))


def combined_loss(tape: Tape, j_nll: Tensor, j_kd: Tensor | None, j_kd_policy: Tensor | None,
                  alpha1: float, alpha2: float) -> Tensor:
    """j_nll + alpha1 * j_kd + alpha2 * j_kd_policy; degenerates to j_nll exactly."""
    if alpha1 < 0 or alpha2 < 0:
        raise ValueError("loss weights must be non-negative")
    total = j_nll
    if alpha1 != 0.0 and j_kd is not None:
        total = tape.add(total, tape.scale(j_kd, alpha1))
    if alpha2 != 0.0 and j_kd_policy is not None:
        total = tape.add(total, tape.scale(j_kd_policy, alpha2))
    return total


# -- teacher routing -------------------------------------------------------------


def route_teacher(turn, ensemble: TeacherEnsemble) -> TeacherModel:
    """The teacher whose domain matches the turn's tag; the generic one otherwise."""
    domain = turn.domain
    if domain in ensemble.domains:
        if domain not in ensemble.teachers:
            raise KeyError(f"no teacher available for tagged domain {domain!r}")
        return ensemble.teachers[domain]
    if GENERAL_DOMAIN not in ensemble.teachers:
        raise KeyError(f"no {GENERAL_DOMAIN!r} teacher available")
    return ensemble.teachers[GENERAL_DOMAIN]


# -- prepared training items -------------------------------------------------------


@dataclass
class PreparedTurn:
    episode_id: str
    turn_index: int
    domain: str
    user_ids: list[int]
    gold_ids: list[int]
    history_ids: list[list[int]]
    state: np.ndarray


def split_train_val(corpus: Corpus, val_fraction: float) -> tuple[Corpus, Corpus]:
    """Deterministic episode-level holdout: every k-th episode validates."""
    if val_fraction <= 0 or len(corpus.episodes) < 2:
        return corpus, Corpus(corpus.schemas, corpus.database, [])
    stride = max(2, round(1.0 / val_fraction))
    train_eps = [e for i, e in enumerate(corpus.episodes) if i % stride != 0]
    val_eps = [e for i, e in enumerate(corpus.episodes) if i % stride == 0]
    return (
        Corpus(corpus.schemas, corpus.database, train_eps),
        Corpus(corpus.schemas, corpus.database, val_eps),
    )


def prepare_turns(corpus: Corpus, in_vocab: Vocabulary, out_vocab: Vocabulary) -> list[PreparedTurn]:
    layout = BeliefLayout(corpus.schemas)
    prepared = []
    for ref in iter_turns(corpus):
        turn = ref.turn
        prepared.append(
            PreparedTurn(
                episode_id=ref.episode.episode_id,
                turn_index=ref.turn_index,
                domain=turn.domain if turn.domain in corpus.schemas else GENERAL_DOMAIN,
                user_ids=in_vocab.encode(turn.user),
                gold_ids=out_vocab.encode(turn.system),
                history_ids=history_token_ids(ref.episode, ref.turn_index, in_vocab),
                state=turn_state(turn, corpus.schemas, corpus.database, layout),
            )
        )
    return prepared


def _append_log(log_path, record: dict) -> None:
    if log_path is None:
        return
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def _check_finite(value: float, what: str, epoch: int, item: PreparedTurn) -> None:
    if not np.isfinite(value):
        raise TrainingDivergenceError(
            f"{what} diverged at epoch {epoch}, episode {item.episode_id} "
            f"turn {item.turn_index}: loss={value!r}"
        )


def _snapshot(model) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in model.params.items()}


# -- teacher training ----------------------------------------------------------------


def _teacher_epoch(
    model: TeacherModel,
    items: list[PreparedTurn],
    optimizer: Adam,
    rng: np.random.Generator,
    epoch: int,
    label: str,
) -> EpochStats:
    start = time.monotonic()
    total = 0.0
    for index in rng.permutation(len(items)):
        item = items[index]
        tape = Tape()
        dists, _ = model.respond_forced(tape, item.user_ids, item.state, item.gold_ids)
        loss = nll_loss(tape, dists, item.gold_ids[1:])
        value = loss.item()
        _check_finite(value, label, epoch, item)
        optimizer.zero_grad()
        tape.backward(loss)
        optimizer.step()
        total += value
    mean = total / max(1, len(items))
    return EpochStats(epoch, mean, 0.0, 0.0, mean, time.monotonic() - start)


def train_universal_teacher(
    corpus: Corpus,
    in_vocab: Vocabulary,
    out_vocab: Vocabulary,
    config: TrainingConfig,
    log_path=None,
    progress=None,
) -> tuple[TeacherModel, list[EpochStats]]:
    """Train the warm-start base on every domain's turns with the NLL objective.

    ``progress(model, stats)``, when given, runs after each epoch and may
    return True to stop early.
    """
    config.validate()
    if not corpus.episodes:
        raise ValueError("cannot train on an empty corpus")
    train_part, _ = split_train_val(corpus, config.val_fraction)
    items = prepare_turns(train_part, in_vocab, out_vocab)
    model = TeacherModel(
        config.model,
        in_vocab_size=len(in_vocab),
        out_vocab_size=len(out_vocab),
        state_size=state_size(corpus.schemas),
        domain="all",
        seed=int(np.random.default_rng([config.seed, 0]).integers(2**31)),
    )
    optimizer = Adam(model.parameter_list(), lr=config.lr, clip_norm=config.grad_clip)
    rng = np.random.default_rng([config.seed, 1])
    stats = []
    for epoch in range(1, config.teacher_epochs + 1):
        record = _teacher_epoch(model, items, optimizer, rng, epoch, "teacher-all")
        stats.append(record)
        _append_log(log_path, {"model": "teacher-all", **record.to_dict()})
        if progress is not None and progress(model, record):
            break
    return model, stats


def _teacher_entity_recall(
    model: TeacherModel, items: list[PreparedTurn], out_vocab: Vocabulary, max_len: int
) -> float | None:
    scores = []
    for item in items:
        gold_tokens = out_vocab.decode(item.gold_ids)
        generated = out_vocab.decode(model.generate(item.user_ids, item.state, max_len))
        score = entity_recall(generated, gold_tokens)
        if score is not None:
            scores.append(score)
    if not scores:
        return None
    return sum(scores) / len(scores)


def finetune_domain_teacher(
    universal: TeacherModel,
    domain: str,
    corpus: Corpus,
    in_vocab: Vocabulary,
    out_vocab: Vocabulary,
    config: TrainingConfig,
    log_path=None,
) -> tuple[TeacherModel, list[EpochStats]]:
    """Fine-tune a copy of the universal teacher on one domain's turns.

    The checkpoint with the best validation Entity Recall is kept, and the
    unmodified copy is candidate zero, so the result never validates worse
    than the universal teacher. Domains without placeholder-bearing
    validation turns (generic chatter) keep the final epoch.
    """
    config.validate()
    train_part, val_part = split_train_val(corpus, config.val_fraction)
    bucket = [i for i in prepare_turns(train_part, in_vocab, out_vocab) if i.domain == domain]
    val_bucket = [i for i in prepare_turns(val_part, in_vocab, out_vocab) if i.domain == domain]
    model = universal.clone(domain=domain)
    if not bucket:
        log.warning("empty training bucket for domain %r; returning the universal teacher", domain)
        return model, []

    def validation_recall() -> float | None:
        if not config.select_best:
            return None
        return _teacher_entity_recall(model, val_bucket, out_vocab, config.max_decode_len)

    best_recall = validation_recall()
    best_params = _snapshot(model)
    domain_index = sorted(corpus.schemas).index(domain) if domain in corpus.schemas else len(corpus.schemas)
    optimizer = Adam(model.parameter_list(), lr=config.lr, clip_norm=config.grad_clip)
    rng = np.random.default_rng([config.seed, 2, domain_index])
    label = f"teacher-{domain}"
    stats = []
    for epoch in range(1, config.finetune_epochs + 1):
        record = _teacher_epoch(model, bucket, optimizer, rng, epoch, label)
        recall = validation_recall()
        record.val_entity_recall = recall
        stats.append(record)
        _append_log(log_path, {"model": label, **record.to_dict()})
        if recall is not None and (best_recall is None or recall > best_recall):
            best_recall = recall
            best_params = _snapshot(model)
    if config.select_best and best_recall is not None:
        model.load_arrays(best_params)
    return model, stats


def train_teacher_ensemble(
    corpus: Corpus,
    in_vocab: Vocabulary,
    out_vocab: Vocabulary,
    config: TrainingConfig,
    log_path=None,
) -> tuple[TeacherEnsemble, dict[str, list[EpochStats]]]:
    """Universal teacher first, then one fine-tuned teacher per domain bucket.

    With warm_start disabled each domain teacher trains from scratch instead
    of from the universal base.
    """
    universal, universal_stats = train_universal_teacher(corpus, in_vocab, out_vocab, config, log_path)
    all_stats = {"all": universal_stats}
    teachers: dict[str, TeacherModel] = {}
    for domain in sorted(corpus.schemas) + [GENERAL_DOMAIN]:
        if config.warm_start:
            base = universal
        else:
            base = TeacherModel(
                config.model,
                in_vocab_size=len(in_vocab),
                out_vocab_size=len(out_vocab),
                state_size=state_size(corpus.schemas),
                domain=domain,
                seed=int(np.random.default_rng([config.seed, 3]).integers(2**31)),
            )
        teacher, stats = finetune_domain_teacher(
            base, domain, corpus, in_vocab, out_vocab, config, log_path
        )
        teachers[domain] = teacher
        all_stats[domain] = stats
    ensemble = TeacherEnsemble(teachers, universal, tuple(sorted(corpus.schemas)))
    ensemble.validate()
    return ensemble, all_stats


# -- student training -----------------------------------------------------------------


def _teacher_targets(
    teacher: TeacherModel, item: PreparedTurn
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen teacher outputs for one turn: per-position probabilities and action."""
    tape = Tape(record=False)
    dists, action = teacher.respond_forced(tape, item.user_ids, item.state, item.gold_ids)
    return dists.data.copy(), action.data.copy()


def _student_validation(
    student: StudentModel,
    val_corpus: Corpus,
    in_vocab: Vocabulary,
    out_vocab: Vocabulary,
    max_len: int,
) -> tuple[float | None, float | None]:
    if not val_corpus.episodes:
        return None, None
    generated = generate_responses(student, val_corpus, in_vocab, out_vocab, max_len)
    report = score_corpus(val_corpus, generated)
    return report.success, report.bleu4


def train_student(
    corpus: Corpus,
    ensemble: TeacherEnsemble,
    in_vocab: Vocabulary,
    out_vocab: Vocabulary,
    config: TrainingConfig,
    log_path=None,
    progress=None,
) -> tuple[StudentModel, list[EpochStats]]:
    """Distill the teacher ensemble into one HRED student.

    Per turn the routed teacher runs teacher-forced on the oracle state to
    produce constants; the student runs teacher-forced on the raw history;
    the combined loss backpropagates into student parameters only. With both
    weights zero this is the plain history-only baseline and no teacher runs.
    """
    config.validate()
    if not corpus.episodes:
        raise ValueError("cannot train on an empty corpus")
    train_part, val_part = split_train_val(corpus, config.val_fraction)
    items = prepare_turns(train_part, in_vocab, out_vocab)
    student = StudentModel(
        config.model,
        in_vocab_size=len(in_vocab),
        out_vocab_size=len(out_vocab),
        seed=int(np.random.default_rng([config.seed, 10]).integers(2**31)),
    )
    optimizer = Adam(student.parameter_list(), lr=config.lr, clip_norm=config.grad_clip)
    rng = np.random.default_rng([config.seed, 11])
    needs_teacher = config.alpha1 > 0 or config.alpha2 > 0
    teacher_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    best_key: tuple | None = None
    best_params = None
    stats: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        start = time.monotonic()
        sums = {"nll": 0.0, "kd": 0.0, "policy": 0.0, "total": 0.0}
        for index in rng.permutation(len(items)):
            item = items[index]
            tape = Tape()
            dists, action = student.respond_forced(tape, item.history_ids, item.gold_ids)
            j_nll = nll_loss(tape, dists, item.gold_ids[1:])
            j_kd = j_policy = None
            if needs_teacher:
                cached = teacher_cache.get(index)
                if cached is None:
                    teacher = route_teacher(item, ensemble)
                    cached = _teacher_targets(teacher, item)
                    if config.cache_teacher_outputs:
                        teacher_cache[index] = cached
                teacher_probs, teacher_action = cached
                if config.alpha1 > 0:
                    j_kd = kd_text_loss(tape, teacher_probs, dists)
                if config.alpha2 > 0:
                    j_policy = kd_policy_loss(tape, teacher_action, action)
            loss = combined_loss(tape, j_nll, j_kd, j_policy, config.alpha1, config.alpha2)
            value = loss.item()
            _check_finite(value, "student", epoch, item)
            optimizer.zero_grad()
            tape.backward(loss)
            optimizer.step()
            sums["nll"] += j_nll.item()
            sums["kd"] += j_kd.item() if j_kd is not None else 0.0
            sums["policy"] += j_policy.item() if j_policy is not None else 0.0
            sums["total"] += value

        n = max(1, len(items))
        record = EpochStats(
            epoch,
            sums["nll"] / n,
            sums["kd"] / n,
            sums["policy"] / n,
            sums["total"] / n,
            time.monotonic() - start,
        )
        if config.select_best:
            success, bleu = _student_validation(
                student, val_part, in_vocab, out_vocab, config.max_decode_len
            )
            record.val_success, record.val_bleu = success, bleu
            if success is not None:
                key = (success, bleu, epoch)
                if best_key is None or key > best_key:
                    best_key = key
                    best_params = _snapshot(student)
        stats.append(record)
        _append_log(log_path, {"model": "student", **record.to_dict()})
        if progress is not None and progress(student, record):
            break

    if best_params is not None:
        student.load_arrays(best_params)
    return student, stats


# -- evaluation ---------------------------------------------------------------------


def evaluate_model(
    model,
    corpus: Corpus,
    in_vocab: Vocabulary,
    out_vocab: Vocabulary,
    max_len: int = 30,
):
    """Generate responses for every turn and score them; returns (report, generated)."""
    generated = generate_responses(model, corpus, in_vocab, out_vocab, max_len)
    return score_corpus(corpus, generated), generated


def token_accuracy(model, items: Sequence[PreparedTurn]) -> float:
    """Teacher-forced next-token accuracy over prepared turns."""
    correct = 0
    total = 0
    for item in items:
        tape = Tape(record=False)
        if model.kind == "teacher":
            dists, _ = model.respond_forced(tape, item.user_ids, item.state, item.gold_ids)
        else:
            dists, _ = model.respond_forced(tape, item.history_ids, item.gold_ids)
        predicted = np.argmax(dists.data, axis=1)
        for guess, target in zip(predicted, item.gold_ids[1:]):
            correct += int(guess) == target
            total += 1
    return correct / max(1, total)

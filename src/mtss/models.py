"""Teacher and student networks, the prepared turns they read, and greedy generation.

Both models expose a latent action vector that seeds the decoder's hidden
state, and both decode with dot-product attention over the word-level
encoder outputs of the current user utterance. Action dimension equals the
LSTM hidden size so teacher and student actions are directly comparable.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from mtss.corpus import GENERAL_DOMAIN, Corpus, CorpusError, DomainSchema, schema_hash
from mtss.corpus.state import BeliefLayout, turn_state
from mtss.corpus.vocab import BOS_ID, EOS_ID, Vocabulary
from mtss.diffnum import (
    CheckpointError,
    ShapeMismatchError,
    Tape,
    Tensor,
    attend,
    load_checkpoint,
    save_checkpoint,
)


@dataclass(frozen=True)
class ModelConfig:
    embed_size: int = 50
    hidden_size: int = 150
    init_scale: float = 0.08


def _uniform(rng: np.random.Generator, shape, scale: float) -> Tensor:
    return Tensor(rng.uniform(-scale, scale, shape), requires_grad=True)


def _zeros(*shape: int) -> Tensor:
    return Tensor(np.zeros(shape))


def _read_length(token_ids: Sequence[int]) -> int:
    """How many tokens the encoder reads: up to and including the first EOS."""
    if len(token_ids) == 0:
        raise ValueError("cannot encode an empty id sequence")
    for t, token in enumerate(token_ids):
        if token == EOS_ID:
            return t + 1
    return len(token_ids)


def _output_rows(start: int, read: int, size: int) -> list[int]:
    """Encoder output rows for a ``size``-token utterance whose ``read``
    tokens were encoded from row ``start``: positions past EOS repeat its state."""
    return list(range(start, start + read)) + [start + read - 1] * (size - read)


class _SeqModel:
    """Parameter bookkeeping and the decoder shared by teacher and student."""

    kind = ""

    def __init__(self, config: ModelConfig, in_vocab_size: int, out_vocab_size: int):
        self.config = config
        self.in_vocab_size = in_vocab_size
        self.out_vocab_size = out_vocab_size
        self.params: dict[str, Tensor] = {}

    def _init_params(self, rng: np.random.Generator, shapes: dict[str, tuple[int, ...]]) -> None:
        self.params = {name: _uniform(rng, shape, self.config.init_scale) for name, shape in shapes.items()}

    def parameter_list(self) -> list[Tensor]:
        return list(self.params.values())

    # -- word-level utterance encoder ------------------------------------------

    def encode_utterance(self, tape: Tape, token_ids: Sequence[int]) -> tuple[Tensor, Tensor]:
        """Per-token encoder outputs and the final hidden state.

        One output per input position; the recurrence stops at the first EOS
        and later positions repeat its state, so padding beyond EOS cannot
        change the final hidden vector.
        """
        hidden = self.config.hidden_size
        read = _read_length(token_ids)
        emb = tape.take_rows(self.params["embed_in"], token_ids[:read])
        outs, h_last, _ = tape.lstm_sequence(
            emb, _zeros(hidden), _zeros(hidden), self.params["enc_w"], self.params["enc_b"]
        )
        if read < len(token_ids):
            outs = tape.take_rows(outs, _output_rows(0, read, len(token_ids)))
        return outs, h_last

    # -- attention decoder ------------------------------------------------------

    def decode_teacher_forced(
        self,
        tape: Tape,
        action: Tensor,
        enc_outs: Tensor,
        gold_ids: Sequence[int],
    ) -> Tensor:
        """One log-softmax row over the output vocabulary per gold position
        after BOS, each conditioned on the gold prefix; returned as a (T, V) tensor.
        """
        if len(gold_ids) < 2:
            raise ValueError("gold response must contain at least BOS and EOS")
        if gold_ids[-1] != EOS_ID:
            raise ValueError("gold response must end with EOS")
        emb_prefix = tape.take_rows(self.params["embed_out"], gold_ids[:-1])
        logits = tape.attn_decoder_sequence(
            emb_prefix,
            action,
            _zeros(self.config.hidden_size),
            enc_outs,
            self.params["dec_w"],
            self.params["dec_b"],
            self.params["att_w"],
            self.params["out_w"],
            self.params["out_b"],
        )
        return tape.log_softmax(logits)

    def decode_greedy(self, tape: Tape, action: Tensor, enc_outs: Tensor, max_len: int) -> list[int]:
        """Greedy argmax decoding from BOS, stopping at EOS or max_len tokens.

        Each step is one step of the teacher-forced decoder: the LSTM cell on
        the previous token's embedding, then ``attend``, then the projection.
        """
        if max_len < 1:
            raise ValueError("max_len must be at least 1")
        p = self.params
        h, c = action, _zeros(self.config.hidden_size)
        token = BOS_ID
        out: list[int] = []
        for _ in range(max_len):
            h, c = tape.lstm_step(Tensor(p["embed_out"].data[token]), h, c, p["dec_w"], p["dec_b"])
            _, _, merged = attend(h.data, enc_outs.data, p["att_w"].data)
            token = int(np.argmax(p["out_w"].data @ merged + p["out_b"].data))
            if token == EOS_ID:
                break
            out.append(token)
        return out

    # -- persistence ---------------------------------------------------------------

    def save(self, path: str | Path, schemas: dict[str, DomainSchema], in_vocab: Vocabulary,
             out_vocab: Vocabulary, train_config: dict) -> None:
        """Write the parameters with a manifest that pairs them with the
        vocabularies and the schema set they were trained on."""
        meta = {
            "kind": self.kind,
            "config": asdict(self.config),
            "in_vocab_size": self.in_vocab_size,
            "out_vocab_size": self.out_vocab_size,
            "schema_hash": schema_hash(schemas),
            "in_vocab": in_vocab.tokens,
            "out_vocab": out_vocab.tokens,
            "train_config": train_config,
        }
        meta.update(self._extra_save_meta())
        save_checkpoint(path, {name: p.data for name, p in self.params.items()}, meta)

    def _extra_save_meta(self) -> dict:
        return {}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, param in self.params.items():
            if name not in arrays:
                raise ValueError(f"checkpoint is missing tensor {name!r}")
            if arrays[name].shape != param.data.shape:
                raise ShapeMismatchError(f"load[{name}]", arrays[name].shape, param.data.shape)
            param.data = arrays[name].copy()


class TeacherModel(_SeqModel):
    """Seq2seq over the current user utterance, conditioned on the oracle state."""

    kind = "teacher"

    def __init__(
        self,
        config: ModelConfig,
        in_vocab_size: int,
        out_vocab_size: int,
        state_size: int,
        domain: str = "all",
        seed: int = 0,
    ):
        super().__init__(config, in_vocab_size, out_vocab_size)
        self.state_size = state_size
        self.domain = domain
        e, h = config.embed_size, config.hidden_size
        self._init_params(
            np.random.default_rng(seed),
            {
                "embed_in": (in_vocab_size, e),
                "enc_w": (4 * h, e + h),
                "enc_b": (4 * h,),
                "policy_w": (h, h + state_size),
                "embed_out": (out_vocab_size, e),
                "dec_w": (4 * h, e + h),
                "dec_b": (4 * h,),
                "att_w": (h, 2 * h),
                "out_w": (out_vocab_size, h),
                "out_b": (out_vocab_size,),
            },
        )

    def action_vector(self, tape: Tape, utterance_vec: Tensor, state: np.ndarray | None) -> Tensor:
        """tanh(W [v_u; belief; pointer]); every component lands in (-1, 1)."""
        if state is None:
            raise ValueError("a teacher needs the turn's oracle state; prepare the turns with states")
        if state.shape != (self.state_size,):
            raise ShapeMismatchError("action_vector", state.shape, (self.state_size,))
        merged = tape.concat([utterance_vec, Tensor(state)])
        return tape.tanh(tape.matmul(self.params["policy_w"], merged))

    def respond_forced(
        self, tape: Tape, user_ids: Sequence[int], state: np.ndarray, gold_ids: Sequence[int]
    ) -> tuple[Tensor, Tensor]:
        """(T, V) log-probabilities of the gold response and the action vector."""
        enc_outs, v_u = self.encode_utterance(tape, user_ids)
        action = self.action_vector(tape, v_u, state)
        return self.decode_teacher_forced(tape, action, enc_outs, gold_ids), action

    def generate(self, user_ids: Sequence[int], state: np.ndarray, max_len: int = 30) -> list[int]:
        tape = Tape(record=False)
        enc_outs, v_u = self.encode_utterance(tape, user_ids)
        action = self.action_vector(tape, v_u, state)
        return self.decode_greedy(tape, action, enc_outs, max_len)

    def clone(self, domain: str | None = None) -> "TeacherModel":
        copy = TeacherModel(
            self.config, self.in_vocab_size, self.out_vocab_size, self.state_size,
            domain if domain is not None else self.domain,
        )
        copy.load_arrays({name: p.data for name, p in self.params.items()})
        return copy

    def _extra_save_meta(self) -> dict:
        return {"state_size": self.state_size, "domain": self.domain}


def ensemble_domains(schemas: dict[str, DomainSchema]) -> list[str]:
    """The domains of a teacher ensemble, in training order: every schema
    domain, sorted, then the generic one."""
    return sorted(schemas) + [GENERAL_DOMAIN]


@dataclass
class TeacherEnsemble:
    """The universal teacher and the complete ``{domain: teacher}`` map; the
    teacher of a turn is ``teachers[turn.domain]``."""

    teachers: dict[str, TeacherModel]
    universal: TeacherModel

    def validate(self, schemas: dict[str, DomainSchema]) -> None:
        """Exactly one teacher per domain of ``ensemble_domains(schemas)``,
        each shaped like the universal teacher; raises ``ValueError``."""
        domains = ensemble_domains(schemas)
        for domain in domains:
            if domain not in self.teachers:
                raise ValueError(f"no teacher for domain {domain!r}")
        shapes = {name: p.data.shape for name, p in self.universal.params.items()}
        for domain, teacher in self.teachers.items():
            if domain not in domains:
                raise ValueError(f"teacher for domain {domain!r}, which is not in the schemas "
                                 f"or {GENERAL_DOMAIN!r}")
            for name, p in teacher.params.items():
                if p.data.shape != shapes[name]:
                    raise ValueError(f"teacher {domain!r} parameter {name!r} shape mismatch")


# A decoding pass of the perfbench workloads meets at most 176 distinct
# utterances (its 793-turn evaluate split; a cycle of its chat scripts meets
# 123), so such a pass evicts nothing. `generate_responses` looks up a turn's
# whole history on each reply, so a history longer than the cap would miss on
# every lookup; the longest perfbench test episode has 6 turns, which is 11
# utterances. README gives the memory an entry holds.
ENCODING_MEMO_SIZE = 512

# Token-id tuple -> (per-token encoder outputs, final hidden state).
EncodingMemo = Callable[[tuple[int, ...]], tuple[Tensor, Tensor]]


class StudentModel(_SeqModel):
    """HRED: word-level encoder per utterance, context LSTM over utterance vectors."""

    kind = "student"

    def __init__(self, config: ModelConfig, in_vocab_size: int, out_vocab_size: int, seed: int = 0):
        super().__init__(config, in_vocab_size, out_vocab_size)
        e, h = config.embed_size, config.hidden_size
        self._init_params(
            np.random.default_rng(seed),
            {
                "embed_in": (in_vocab_size, e),
                "enc_w": (4 * h, e + h),
                "enc_b": (4 * h,),
                "ctx_w": (4 * h, h + h),
                "ctx_b": (4 * h,),
                "embed_out": (out_vocab_size, e),
                "dec_w": (4 * h, e + h),
                "dec_b": (4 * h,),
                "att_w": (h, 2 * h),
                "out_w": (out_vocab_size, h),
                "out_b": (out_vocab_size,),
            },
        )

    def action_vector(self, tape: Tape, utterance_vecs: Tensor) -> Tensor:
        """Final hidden state of the context LSTM over the (n, H) utterance vectors."""
        hidden = self.config.hidden_size
        _, h_last, _ = tape.lstm_sequence(
            utterance_vecs, _zeros(hidden), _zeros(hidden), self.params["ctx_w"], self.params["ctx_b"]
        )
        return h_last

    def encode_history(self, tape: Tape, history: Sequence[Sequence[int]]) -> tuple[Tensor, Tensor]:
        """Encode every history utterance; returns (current-utterance outputs, action).

        One packed ``lstm_sequence`` encodes all the utterances, each read as
        ``encode_utterance`` reads it; the context LSTM then runs over their
        final states.
        """
        if not history:
            raise ValueError("history must contain at least the current user utterance")
        reads = [_read_length(ids) for ids in history]
        emb = tape.take_rows(self.params["embed_in"], [t for ids, n in zip(history, reads) for t in ids[:n]])
        zeros = _zeros(len(history), self.config.hidden_size)
        outs, finals, _ = tape.lstm_sequence(emb, zeros, zeros, self.params["enc_w"], self.params["enc_b"], reads)
        current = tape.take_rows(outs, _output_rows(sum(reads) - reads[-1], reads[-1], len(history[-1])))
        return current, self.action_vector(tape, finals)

    def respond_forced(
        self, tape: Tape, history: Sequence[Sequence[int]], gold_ids: Sequence[int]
    ) -> tuple[Tensor, Tensor]:
        """(T, V) log-probabilities of the gold response and the action vector."""
        enc_outs, action = self.encode_history(tape, history)
        return self.decode_teacher_forced(tape, action, enc_outs, gold_ids), action

    def encoding_memo(self) -> EncodingMemo:
        """``encode_utterance`` of a token-id tuple, kept for the last
        ``ENCODING_MEMO_SIZE`` distinct tuples. It holds results of the current
        weights, so make one per decoding pass and drop it when they change."""
        tape = Tape(record=False)
        return functools.lru_cache(maxsize=ENCODING_MEMO_SIZE)(
            lambda token_ids: self.encode_utterance(tape, token_ids))

    def reply(self, encoded: Sequence[tuple[Tensor, Tensor]], max_len: int = 30) -> list[int]:
        """Greedy response to a history given as its utterances'
        ``encode_utterance`` results, oldest first: the context LSTM runs over
        their final states and the decoder attends over the last one's outputs.
        This is ``encode_history`` bit for bit on one utterance, and to
        rounding (about 1e-15) on more, which it packs into one sequence.
        """
        if not encoded:
            raise ValueError("history must contain at least the current user utterance")
        tape = Tape(record=False)
        action = self.action_vector(tape, tape.stack([vector for _, vector in encoded]))
        return self.decode_greedy(tape, action, encoded[-1][0], max_len)


def load_model(path: str | Path, kind: str | None = None,
               schemas: dict[str, DomainSchema] | None = None):
    """Load a checkpoint; returns (model, in_vocab, out_vocab).

    Checks the model kind (against ``kind`` when given), then the schema hash
    when ``schemas`` is given, then the config, the sizes and the vocabulary
    token lists the sizes must match. Each failure raises ``CheckpointError``.
    """
    arrays, meta = load_checkpoint(path)
    found = meta.get("kind")
    if found not in ("teacher", "student"):
        raise CheckpointError(f"unknown model kind {found!r} in {path}")
    if kind is not None and found != kind:
        raise CheckpointError(f"{path}: checkpoint holds a {found} model, expected {kind}")
    if schemas is not None and meta.get("schema_hash") != schema_hash(schemas):
        raise CheckpointError(f"{path}: checkpoint was trained against a different schema set")
    try:
        config = ModelConfig(**meta.get("config"))
    except TypeError as exc:
        raise CheckpointError(f"{path}: bad model config in manifest ({exc})") from None
    keys = ["in_vocab_size", "out_vocab_size"] + (["state_size"] if found == "teacher" else [])
    sizes = {"config.embed_size": config.embed_size, "config.hidden_size": config.hidden_size,
             **{key: meta.get(key) for key in keys}}
    for key, value in sizes.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise CheckpointError(f"{path}: manifest {key} must be a positive integer, got {value!r}")
    if isinstance(config.init_scale, bool) or not isinstance(config.init_scale, (int, float)):
        raise CheckpointError(f"{path}: manifest config.init_scale must be a number")
    vocabs = []
    for role, key in (("input", "in_vocab"), ("output", "out_vocab")):
        tokens = meta.get(key)
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise CheckpointError(f"{path}: manifest {key} must be a list of tokens")
        try:
            vocabs.append(Vocabulary(role, tokens))
        except CorpusError as exc:
            raise CheckpointError(f"{path}: {exc}") from None
        if len(tokens) != meta[f"{key}_size"]:
            raise CheckpointError(f"{path}: manifest {key} has {len(tokens)} tokens, "
                                  f"{key}_size is {meta[f'{key}_size']}")
    if found == "teacher":
        domain = meta.get("domain", "all")
        if not isinstance(domain, str):
            raise CheckpointError(f"{path}: manifest domain must be a string, got {domain!r}")
        model: _SeqModel = TeacherModel(
            config, meta["in_vocab_size"], meta["out_vocab_size"], meta["state_size"], domain
        )
    else:
        model = StudentModel(config, meta["in_vocab_size"], meta["out_vocab_size"])
    try:
        model.load_arrays(arrays)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return model, *vocabs


# -- model inputs and corpus-level generation ------------------------------------


@dataclass
class PreparedTurn:
    episode_id: str
    turn_index: int
    domain: str
    user_ids: list[int]
    gold_ids: list[int]
    history_ids: list[list[int]]
    state: np.ndarray | None


def prepare_turns(corpus: Corpus, in_vocab: Vocabulary, out_vocab: Vocabulary,
                  states: bool = True) -> list[PreparedTurn]:
    """Every turn in corpus order, as the models read it. Each utterance of
    an episode is encoded once; turn t's history is the first 2t + 1 of them
    (all prior user and system utterances, then the current user utterance).
    With ``states`` False no oracle state is built and every ``state`` is
    None: only a student can read such turns, and a teacher raises.
    """
    layout = BeliefLayout(corpus.schemas) if states else None
    prepared = []
    for episode in corpus.episodes:
        utterances = [in_vocab.encode(u) for turn in episode.turns for u in (turn.user, turn.system)]
        for index, turn in enumerate(episode.turns):
            history = utterances[:2 * index + 1]
            prepared.append(PreparedTurn(
                episode_id=episode.episode_id, turn_index=index, domain=turn.domain,
                user_ids=history[-1], gold_ids=out_vocab.encode(turn.system), history_ids=history,
                state=turn_state(turn, corpus.schemas, corpus.database, layout) if states else None))
    return prepared


def generate_responses(model, items: Sequence[PreparedTurn], out_vocab: Vocabulary,
                       max_len: int = 30) -> dict[tuple[str, int], list[str]]:
    """Greedy responses for the prepared turns, keyed by (episode id, turn index).

    ``model`` is a student, a teacher, or a ``TeacherEnsemble``, which
    answers each turn with the teacher of the turn's domain. Teachers read
    the user utterance and the oracle state. A student replies to the
    encodings of the turn's history, looked up in one encoding memo for the
    call, so each distinct utterance is encoded once.
    """
    memo = model.encoding_memo() if isinstance(model, StudentModel) else None
    generated: dict[tuple[str, int], list[str]] = {}
    for item in items:
        if isinstance(model, StudentModel):
            ids = model.reply([memo(tuple(utterance)) for utterance in item.history_ids], max_len)
        else:
            teacher = model.teachers[item.domain] if isinstance(model, TeacherEnsemble) else model
            ids = teacher.generate(item.user_ids, item.state, max_len)
        generated[(item.episode_id, item.turn_index)] = out_vocab.decode(ids)
    return generated

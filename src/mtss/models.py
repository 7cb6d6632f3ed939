"""Network architectures: the state-conditioned seq2seq teacher and the HRED student.

Both models expose a latent action vector that seeds the decoder's hidden
state, and both decode with dot-product attention over the word-level
encoder outputs of the current user utterance. Action dimension equals the
LSTM hidden size so teacher and student actions are directly comparable.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from mtss.corpus import Corpus
from mtss.corpus.state import BeliefLayout, turn_state
from mtss.corpus.vocab import BOS_ID, EOS_ID, Vocabulary
from mtss.diffnum import ShapeMismatchError, Tape, Tensor, attend, load_checkpoint, save_checkpoint


@dataclass(frozen=True)
class ModelConfig:
    embed_size: int = 50
    hidden_size: int = 150
    init_scale: float = 0.08

    def hash(self) -> str:
        return hashlib.sha256(json.dumps(asdict(self), sort_keys=True).encode()).hexdigest()[:12]


def _uniform(rng: np.random.Generator, shape, scale: float) -> Tensor:
    return Tensor(rng.uniform(-scale, scale, shape), requires_grad=True)


def _zeros(n: int) -> Tensor:
    return Tensor(np.zeros(n))


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

    def parameter_names(self) -> list[str]:
        return list(self.params)

    def param_bytes(self) -> bytes:
        return b"".join(p.data.tobytes() for p in self.params.values())

    # -- word-level utterance encoder ------------------------------------------

    def encode_utterance(self, tape: Tape, token_ids: Sequence[int]) -> tuple[Tensor, Tensor]:
        """Per-token encoder outputs and the final hidden state.

        One output per input position; the recurrence stops at the first EOS
        and later positions repeat its state, so padding beyond EOS cannot
        change the final hidden vector.
        """
        if len(token_ids) == 0:
            raise ValueError("cannot encode an empty id sequence")
        hidden = self.config.hidden_size
        consumed = len(token_ids)
        for t, token in enumerate(token_ids):
            if token == EOS_ID:
                consumed = t + 1
                break
        emb = tape.take_rows(self.params["embed_in"], token_ids[:consumed])
        outs, h_last, _ = tape.lstm_sequence(
            emb, _zeros(hidden), _zeros(hidden), self.params["enc_w"], self.params["enc_b"]
        )
        if consumed < len(token_ids):
            rows = list(range(consumed)) + [consumed - 1] * (len(token_ids) - consumed)
            outs = tape.take_rows(outs, rows)
        return outs, h_last

    # -- attention decoder ------------------------------------------------------

    def decode_teacher_forced(
        self,
        tape: Tape,
        action: Tensor,
        enc_outs: Tensor,
        gold_ids: Sequence[int],
    ) -> Tensor:
        """One softmax row over the output vocabulary per gold position after
        BOS, each conditioned on the gold prefix; returned as a (T, V) tensor.
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
        return tape.softmax(logits)

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

    def save(self, path: str | Path, extra_meta: dict | None = None) -> None:
        meta = {
            "kind": self.kind,
            "config": asdict(self.config),
            "config_hash": self.config.hash(),
            "in_vocab_size": self.in_vocab_size,
            "out_vocab_size": self.out_vocab_size,
        }
        meta.update(self._extra_save_meta())
        if extra_meta:
            meta.update(extra_meta)
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

    def action_vector(self, tape: Tape, utterance_vec: Tensor, state: np.ndarray) -> Tensor:
        """tanh(W [v_u; belief; pointer]); every component lands in (-1, 1)."""
        if state.shape != (self.state_size,):
            raise ShapeMismatchError("action_vector", state.shape, (self.state_size,))
        merged = tape.concat([utterance_vec, Tensor(state)])
        return tape.tanh(tape.matmul(self.params["policy_w"], merged))

    def respond_forced(
        self, tape: Tape, user_ids: Sequence[int], state: np.ndarray, gold_ids: Sequence[int]
    ) -> tuple[list[Tensor], Tensor]:
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

    def action_vector(self, tape: Tape, utterance_vecs: Sequence[Tensor]) -> Tensor:
        """Final hidden state of the context LSTM over the utterance vectors."""
        if not utterance_vecs:
            raise ValueError("student action needs at least one utterance vector")
        hidden = self.config.hidden_size
        stacked = tape.stack(utterance_vecs)
        _, h_last, _ = tape.lstm_sequence(
            stacked, _zeros(hidden), _zeros(hidden), self.params["ctx_w"], self.params["ctx_b"]
        )
        return h_last

    def encode_history(self, tape: Tape, history: Sequence[Sequence[int]]) -> tuple[Tensor, Tensor]:
        """Encode every history utterance; returns (current-utterance outputs, action)."""
        if not history:
            raise ValueError("history must contain at least the current user utterance")
        vecs = []
        enc_outs = None
        for ids in history:
            enc_outs, v = self.encode_utterance(tape, ids)
            vecs.append(v)
        return enc_outs, self.action_vector(tape, vecs)

    def respond_forced(
        self, tape: Tape, history: Sequence[Sequence[int]], gold_ids: Sequence[int]
    ) -> tuple[list[Tensor], Tensor]:
        enc_outs, action = self.encode_history(tape, history)
        return self.decode_teacher_forced(tape, action, enc_outs, gold_ids), action

    def generate(self, history: Sequence[Sequence[int]], max_len: int = 30) -> list[int]:
        dialogue = self.dialogue()
        for ids in history:
            dialogue.add(ids)
        return dialogue.reply(max_len)

    def dialogue(self) -> "Dialogue":
        return Dialogue(self)

    def clone(self) -> "StudentModel":
        copy = StudentModel(self.config, self.in_vocab_size, self.out_vocab_size)
        copy.load_arrays({name: p.data for name, p in self.params.items()})
        return copy


class Dialogue:
    """Incremental student inference: each utterance is encoded once, when added.
    Keeps its vector and the latest utterance's encoder outputs; every reply
    reruns the context LSTM, so it computes exactly what ``encode_history`` would.
    """

    def __init__(self, model: StudentModel):
        self.model = model
        self.tape = Tape(record=False)
        self.vectors: list[Tensor] = []
        self.latest_outputs: Tensor | None = None

    def add(self, token_ids: Sequence[int]) -> None:
        self.latest_outputs, vector = self.model.encode_utterance(self.tape, token_ids)
        self.vectors.append(vector)

    def truncate(self, size: int) -> None:
        """Forget utterances past the first ``size``; the next reply needs an add."""
        if size < len(self.vectors):
            del self.vectors[size:]
            self.latest_outputs = None

    def reply(self, max_len: int = 30) -> list[int]:
        """Greedy response attending over the latest utterance."""
        if self.latest_outputs is None:
            raise ValueError("add an utterance before asking for a reply")
        action = self.model.action_vector(self.tape, self.vectors)
        return self.model.decode_greedy(self.tape, action, self.latest_outputs, max_len)


def load_model(path: str | Path):
    """Load either model kind; returns (model, meta). The manifest's kind decides."""
    arrays, meta = load_checkpoint(path)
    config = ModelConfig(**meta["config"])
    if meta["kind"] == "teacher":
        model: _SeqModel = TeacherModel(
            config, meta["in_vocab_size"], meta["out_vocab_size"], meta["state_size"],
            meta.get("domain", "all"),
        )
    elif meta["kind"] == "student":
        model = StudentModel(config, meta["in_vocab_size"], meta["out_vocab_size"])
    else:
        raise ValueError(f"unknown model kind {meta['kind']!r} in {path}")
    model.load_arrays(arrays)
    return model, meta


def load_model_as(path: str | Path, expected_kind: str):
    model, meta = load_model(path)
    if model.kind != expected_kind:
        raise ValueError(f"{path}: checkpoint holds a {model.kind} model, expected {expected_kind}")
    return model, meta


# -- corpus-level generation ---------------------------------------------------


def history_token_ids(episode, turn_index: int, in_vocab: Vocabulary) -> list[list[int]]:
    """Raw dialogue history for the student: all prior user and system
    utterances plus the current user utterance, oldest first.
    """
    history = []
    for past in episode.turns[:turn_index]:
        history.append(in_vocab.encode(past.user))
        history.append(in_vocab.encode(past.system))
    history.append(in_vocab.encode(episode.turns[turn_index].user))
    return history


def worker_count() -> int:
    """Sweep process cap from MTSS_THREADS; defaults to sequential."""
    try:
        return max(1, int(os.environ.get("MTSS_THREADS", "1")))
    except ValueError:
        return 1


def generate_responses(
    model,
    corpus: Corpus,
    in_vocab: Vocabulary,
    out_vocab: Vocabulary,
    max_len: int = 30,
) -> dict[tuple[str, int], list[str]]:
    """Greedy responses for every turn, keyed by (episode id, turn index).

    Students see only the raw history, each utterance encoded once per
    episode; teachers get the oracle state of the turn.
    """
    layout = BeliefLayout(corpus.schemas)
    generated: dict[tuple[str, int], list[str]] = {}
    for episode in corpus.episodes:
        dialogue = model.dialogue() if model.kind == "student" else None
        for index, turn in enumerate(episode.turns):
            if dialogue is None:
                state = turn_state(turn, corpus.schemas, corpus.database, layout)
                ids = model.generate(in_vocab.encode(turn.user), state, max_len)
            else:
                if index:
                    dialogue.add(in_vocab.encode(episode.turns[index - 1].system))
                dialogue.add(in_vocab.encode(turn.user))
                ids = dialogue.reply(max_len)
            generated[(episode.episode_id, index)] = out_vocab.decode(ids)
    return generated

"""Teacher and student networks, the prepared turns they read, and greedy generation.

Both models expose a latent action vector that seeds the decoder's hidden
state, and both decode with dot-product attention over the word-level
encoder outputs of the current user utterance. Action dimension equals the
LSTM hidden size so teacher and student actions are directly comparable.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path
from typing import Container, Sequence

import numpy as np

from mtss import check_count, check_number
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
    lstm_row_step,
    save_checkpoint,
)
from mtss.diffnum.tape import _cell


@dataclass(frozen=True)
class ModelConfig:
    """Model sizes and the init range; a bad value raises ``ValueError``."""

    embed_size: int = 50
    hidden_size: int = 150
    init_scale: float = 0.08

    def __post_init__(self):
        check_count("embed_size", self.embed_size, 1)
        check_count("hidden_size", self.hidden_size, 1)
        # The init draws uniformly from (-s, s), a range 2s wide that must be finite.
        check_number("init_scale", self.init_scale, positive=True, most=sys.float_info.max / 2)


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

    def __init__(self, config: ModelConfig, in_vocab_size: int, out_vocab_size: int, seed: int,
                 middle: dict[str, tuple[int, ...]]):
        """Draw the parameters from ``seed``, in order: the word encoder's,
        a subclass's ``middle`` shapes, then the decoder's."""
        self.config = config
        self.in_vocab_size = in_vocab_size
        self.out_vocab_size = out_vocab_size
        e, h, s = config.embed_size, config.hidden_size, config.init_scale
        shapes = {
            "embed_in": (in_vocab_size, e), "enc_w": (4 * h, e + h), "enc_b": (4 * h,), **middle,
            "embed_out": (out_vocab_size, e), "dec_w": (4 * h, e + h), "dec_b": (4 * h,),
            "att_w": (h, 2 * h), "out_w": (out_vocab_size, h), "out_b": (out_vocab_size,),
        }
        rng = np.random.default_rng(seed)
        self.params = {name: Tensor(rng.uniform(-s, s, shape), requires_grad=True) for name, shape in shapes.items()}

    def parameter_list(self) -> list[Tensor]:
        return list(self.params.values())

    # -- word-level utterance encoder ------------------------------------------

    def encode_utterances(self, tape: Tape, utterances: Sequence[Sequence[int]],
                          vector: bool = False) -> tuple[Tensor, Tensor, list[list[int]]]:
        """Encode the utterances in one packed ``lstm_sequence``, each read up
        to and including its first EOS.

        Returns (the hidden state after each read token, utterance after
        utterance; the final hidden state of each utterance, one row per
        utterance, or with ``vector`` a vector for the one utterance; each
        utterance's rows of the first, one per token, where positions past
        EOS repeat its state).
        """
        hidden = self.config.hidden_size
        reads = [_read_length(ids) for ids in utterances]
        emb = tape.take_rows(self.params["embed_in"], [t for ids, n in zip(utterances, reads) for t in ids[:n]])
        zeros = _zeros(hidden) if vector else _zeros(len(utterances), hidden)
        outs, finals, _ = tape.lstm_sequence(emb, zeros, zeros, self.params["enc_w"], self.params["enc_b"], reads)
        starts = accumulate(reads, initial=0)
        return outs, finals, [_output_rows(s, n, len(ids)) for s, n, ids in zip(starts, reads, utterances)]

    def encode_off_tape(self, utterances: Sequence[Sequence[int]], attended: Container[int]
                        ) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
        """``encode_utterances`` of the utterances as arrays, in as few packed
        calls as hold at most ``ENCODER_ROWS`` token ids each: the outputs of
        the utterances whose indices are in ``attended``, one after another
        in one array; every utterance's final state; and each utterance's
        rows of those outputs, empty for one not attended.
        """
        reads = [_read_length(ids) if i in attended else 0 for i, ids in enumerate(utterances)]
        starts = list(accumulate(reads, initial=0))
        hidden, tape = self.config.hidden_size, Tape(record=False)
        outs, finals = np.empty((starts[-1], hidden)), np.empty((len(utterances), hidden))
        start = 0
        while start < len(utterances):
            end, size = start + 1, len(utterances[start])
            while end < len(utterances) and size + len(utterances[end]) <= ENCODER_ROWS:
                end, size = end + 1, size + len(utterances[end])
            part, part_finals, part_rows = self.encode_utterances(tape, utterances[start:end])
            finals[start:end] = part_finals.data
            for i, each in enumerate(part_rows, start):
                outs[starts[i]:starts[i + 1]] = part.data[each[0]:each[0] + reads[i]]
            start = end
        return outs, finals, [_output_rows(s, n, len(ids)) if n else []
                              for s, n, ids in zip(starts, reads, utterances)]

    def encode_utterance(self, tape: Tape, token_ids: Sequence[int]) -> tuple[Tensor, Tensor]:
        """Per-token encoder outputs and the final hidden state: the
        one-utterance case of ``encode_utterances``.

        One output per input position; the recurrence stops at the first EOS
        and later positions repeat its state, so padding beyond EOS cannot
        change the final hidden vector.
        """
        outs, final, (rows,) = self.encode_utterances(tape, [token_ids], vector=True)
        return (outs if len(rows) == len(outs.data) else tape.take_rows(outs, rows)), final

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

    def decode_greedy(self, actions: np.ndarray, enc_outs: np.ndarray, max_len: int) -> list[list[int]]:
        """Greedy replies from BOS, one per row of the (B, H) ``actions`` and
        the (B, P, H) ``enc_outs``, decoded in lockstep: row r starts from
        ``actions[r]``, attends over ``enc_outs[r]`` and stops at EOS or after
        max_len tokens, when it leaves the batch.

        Each step is one step of the teacher-forced decoder for every running
        row: one ``[x; h] @ dec_w.T`` product and the LSTM cell, ``attend``,
        then the projection. The weights are read through ``.T`` views, never
        cached copies, which an in-place update such as Adam's would leave
        stale. Through the views a lone row runs the matrix-vector products
        of a one-reply decode, bit for bit; rows decoded together go through
        matrix products, whose results can differ in the last bits.
        """
        if max_len < 1:
            raise ValueError("max_len must be at least 1")
        hidden = self.config.hidden_size
        rows = len(actions) if actions.ndim else 0
        positions = enc_outs.shape[1] if enc_outs.ndim == 3 else 0
        if actions.shape != (rows, hidden) or enc_outs.shape != (rows, positions, hidden) or not positions:
            raise ShapeMismatchError("decode_greedy", actions.shape, enc_outs.shape)
        embed, w, b, att_w, out_w, out_b = (
            self.params[name].data for name in ("embed_out", "dec_w", "dec_b", "att_w", "out_w", "out_b"))
        replies: list[list[int]] = [[] for _ in range(rows)]
        running, n = replies, rows
        # A lone running row steps on vectors, as _Recurrence steps one
        # sequence: the same products, cheaper to dispatch.
        one = 0 if n == 1 else slice(None)
        h, c, enc, tokens = actions[one], np.zeros(actions.shape)[one], enc_outs[one], np.full(n, BOS_ID)[one]
        for _ in range(max_len):
            z = np.concatenate([embed[tokens], h], axis=-1) @ w.T + b
            h, c, _ = _cell(z, c, np.empty_like(z))
            tokens = (attend(h, enc, att_w)[2] @ out_w.T + out_b).argmax(axis=-1)
            emitted = [int(tokens)] if n == 1 else tokens.tolist()
            if EOS_ID in emitted:  # the rows that emitted EOS leave the batch
                keep = [i for i, token in enumerate(emitted) if token != EOS_ID]
                if not keep:
                    break
                n = len(keep)
                one = keep[0] if n == 1 else keep
                h, c, enc, tokens = h[one], c[one], enc[one], tokens[one]
                running, emitted = [running[i] for i in keep], [emitted[i] for i in keep]
            for reply, token in zip(running, emitted):
                reply.append(token)
        return replies

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
        h = config.hidden_size
        super().__init__(config, in_vocab_size, out_vocab_size, seed, {"policy_w": (h, h + state_size)})
        self.state_size = state_size
        self.domain = domain

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

    def encode_turns(self, turns: Sequence["PreparedTurn"]) -> tuple[np.ndarray, list[list[int]], np.ndarray]:
        """Encodings of the turns for greedy decoding, off the tape: (encoder
        outputs; each turn's rows of them, its user utterance's; the (B, H)
        actions). ``encode_off_tape`` encodes the turns' distinct user
        utterances packed; each turn's action is ``action_vector`` of its own.
        """
        tape, index = Tape(record=False), {}
        slots = [index.setdefault(turn.user_ids, len(index)) for turn in turns]
        outs, finals, rows = self.encode_off_tape(list(index), range(len(index)))
        actions = [self.action_vector(tape, Tensor(finals[u]), turn.state).data
                   for u, turn in zip(slots, turns)]
        return outs, [rows[u] for u in slots], np.stack(actions)

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
    """The universal teacher and the ``{domain: teacher}`` map over
    ``ensemble_domains``; the teacher of a turn is ``teachers[turn.domain]``.
    ``train_teacher_ensemble`` builds it complete, and ``cli.load_ensemble``
    judges one read from a directory."""

    teachers: dict[str, TeacherModel]
    universal: TeacherModel


# ``generate_responses`` encodes and decodes its turns in runs of DECODE_ROWS
# consecutive turns: it holds one run's encodings at once, and one
# ``decode_greedy`` call gets at most that many rows. With perfbench's
# reference student on a 2,600-turn synthetic split of ten encoder lengths
# (one core), decoding took 194, 174, 128 and 134 µs a turn in runs of 256,
# 512, 1,024 and 2,048 turns, 128 in one run, and 630 one turn at a time:
# the gain is flat once groups reach about 100 rows. perfbench's 793-turn
# evaluate split (seed 11) is one run: a pass over it peaked 16.2 MB above
# its start under tracemalloc and took 126 ms on one core, against 14.7 MB
# and 157 ms in runs of 512 turns and 13.2 MB and 188 ms in runs of 256.
# Most of the peak is the one word-encoder call (below), so it shrinks more
# slowly than the runs; a pass that looked each turn up in an encoding memo
# peaked at 9.6 MB.
DECODE_ROWS = 1024

# ``encode_off_tape`` packs at most ENCODER_ROWS token ids into one
# word-encoder call; a longer utterance gets a call of its own. Until it
# returns, a call holds about 8.3 kB a token id at hidden size 150, most of
# it the input projection its steps read. perfbench's evaluate split has
# 1,761 ids in its distinct utterances, so one call. A run of 1,024 turns
# whose utterances are all distinct, as MultiWOZ's nearly are (synthetic
# 7-turn episodes of 11 to 18 ids), peaked at 227 MB in one call and 38 MB
# in calls of 2,048 ids, against 32 MB looked up in an encoding memo.
ENCODER_ROWS = 2048

# ``mtss chat`` keeps one memo for the process. A cycle of perfbench's chat
# scripts meets 123 distinct utterances, so it evicts nothing. README gives
# the memory an entry holds.
ENCODING_MEMO_SIZE = 512


class EncodingMemo:
    """A student's utterance encodings for ``mtss chat``, which answers one
    reply at a time, as arrays: a least-recently-used map of
    ``ENCODING_MEMO_SIZE`` entries from an utterance's token ids to its
    ``encode_utterance`` (outputs, final state). A chat session carries the
    context LSTM's (h, c) itself, and the memo steps it over the utterances
    said since its last step. It holds results of the current weights, so
    drop it when they change.
    """

    def __init__(self, student: "StudentModel"):
        self.student = student
        self.tape = Tape(record=False)
        self.utterances: OrderedDict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = OrderedDict()

    def _encode(self, token_ids: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """``encode_utterance`` of ``token_ids``, from the map when it holds them."""
        found = self.utterances.pop(token_ids, None)
        if found is None:
            outs, final = self.student.encode_utterance(self.tape, token_ids)
            found = outs.data, final.data
        self.utterances[token_ids] = found
        if len(self.utterances) > ENCODING_MEMO_SIZE:
            self.utterances.popitem(last=False)
        return found

    def __call__(self, utterances: Sequence[Sequence[int]], state: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """(the last utterance's encoder outputs, the context LSTM's (h, c)
        after it). The context LSTM starts from ``state``, its (h, c) after
        the utterances before these, or from zeros, and steps one utterance
        at a time with ``lstm_row_step``: bit for bit the one-row
        ``lstm_sequence`` that ``action_vector`` runs on a one-utterance
        history.
        """
        if not utterances:
            raise ValueError("history must contain at least the current user utterance")
        p = self.student.params
        h, c = state if state is not None else (np.zeros(self.student.config.hidden_size),) * 2
        for utterance in utterances:
            h, c = lstm_row_step(self._encode(tuple(utterance))[1], h, c, p["ctx_w"].data, p["ctx_b"].data)
        return self._encode(tuple(utterances[-1]))[0], (h, c)


class StudentModel(_SeqModel):
    """HRED: word-level encoder per utterance, context LSTM over utterance vectors."""

    kind = "student"

    def __init__(self, config: ModelConfig, in_vocab_size: int, out_vocab_size: int, seed: int = 0):
        h = config.hidden_size
        super().__init__(config, in_vocab_size, out_vocab_size, seed, {"ctx_w": (4 * h, 2 * h), "ctx_b": (4 * h,)})

    def action_vector(self, tape: Tape, utterance_vecs: Tensor) -> Tensor:
        """Final hidden state of the context LSTM over the (n, H) utterance vectors."""
        hidden = self.config.hidden_size
        _, h_last, _ = tape.lstm_sequence(
            utterance_vecs, _zeros(hidden), _zeros(hidden), self.params["ctx_w"], self.params["ctx_b"]
        )
        return h_last

    def encode_history(self, tape: Tape, history: Sequence[Sequence[int]]) -> tuple[Tensor, Tensor]:
        """Encode every history utterance; returns (current-utterance outputs, action).

        One packed ``encode_utterances`` call encodes all the utterances; the
        context LSTM then runs over their final states.
        """
        if not history:
            raise ValueError("history must contain at least the current user utterance")
        outs, finals, rows = self.encode_utterances(tape, history)
        return tape.take_rows(outs, rows[-1]), self.action_vector(tape, finals)

    def respond_forced(
        self, tape: Tape, history: Sequence[Sequence[int]], gold_ids: Sequence[int]
    ) -> tuple[Tensor, Tensor]:
        """(T, V) log-probabilities of the gold response and the action vector."""
        enc_outs, action = self.encode_history(tape, history)
        return self.decode_teacher_forced(tape, action, enc_outs, gold_ids), action

    def encode_turns(self, turns: Sequence["PreparedTurn"]) -> tuple[np.ndarray, list[list[int]], np.ndarray]:
        """Encodings of the turns' histories for greedy decoding, off the tape:
        (encoder outputs; each turn's rows of them, its current utterance's;
        the (B, H) actions, the context LSTM's h after each history).

        ``encode_off_tape`` encodes the turns' distinct utterances packed and
        keeps the outputs of their current utterances only, and one packed
        ``lstm_sequence`` runs the context LSTM over their final states: one
        sequence per distinct history that begins no other. A history that
        begins another is read from that one's per-step states, so the turns
        of an episode cost the steps of its last turn. Histories that share
        only a beginning each run it.
        """
        if not all(turn.history_ids for turn in turns):
            raise ValueError("history must contain at least the current user utterance")
        tape, index = Tape(record=False), {}
        keys = [tuple(index.setdefault(u, len(index)) for u in turn.history_ids) for turn in turns]
        outs, finals, rows = self.encode_off_tape(list(index), {key[-1] for key in keys})
        # In sorted order a history that begins any other begins the next one,
        # so walking backwards each history is run or read from the next's.
        sequence_of, sequences, following = {}, [], ()
        for key in sorted(set(keys), reverse=True):
            if following[:len(key)] != key:
                sequences.append(key)
            sequence_of[key] = len(sequences) - 1
            following = key
        lengths = [len(key) for key in sequences]
        zeros = _zeros(len(sequences), self.config.hidden_size)
        states, _, _ = tape.lstm_sequence(Tensor(finals[[u for key in sequences for u in key]]), zeros, zeros,
                                          self.params["ctx_w"], self.params["ctx_b"], lengths)
        starts = list(accumulate(lengths, initial=0))
        actions = states.data[[starts[sequence_of[key]] + len(key) - 1 for key in keys]]
        return outs, [rows[key[-1]] for key in keys], actions

    def encoding_memo(self) -> EncodingMemo:
        """A new, empty memo of this student's encodings, for ``mtss chat``."""
        return EncodingMemo(self)

    def reply(self, context: tuple[np.ndarray, tuple[np.ndarray, np.ndarray]], max_len: int = 30) -> list[int]:
        """Greedy response to a history as ``EncodingMemo`` steps it: the
        last utterance's encoder outputs, which the decoder attends over,
        and the context LSTM's (h, c) after the whole history, whose h is
        the action. That h is ``encode_history``'s bit for bit on one
        utterance, and within about 1e-12 relative on more, whose inputs
        ``encode_history`` projects in one product.
        """
        enc_outs, (action, _) = context
        return self.decode_greedy(action[None], enc_outs[None], max_len)[0]


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
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad model config in manifest ({exc})") from None
    for key in ["in_vocab_size", "out_vocab_size"] + (["state_size"] if found == "teacher" else []):
        value = meta.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise CheckpointError(f"{path}: manifest {key} must be a positive integer, got {value!r}")
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
    user_ids: tuple[int, ...]
    gold_ids: list[int]
    history_ids: list[tuple[int, ...]]
    state: np.ndarray | None


def prepare_turns(corpus: Corpus, in_vocab: Vocabulary, out_vocab: Vocabulary,
                  states: bool = True) -> list[PreparedTurn]:
    """Every turn in corpus order, as the models read it. Each utterance of
    an episode is encoded once, as a tuple of ids; turn t's history is the
    first 2t + 1 of them (all prior user and system utterances, then the
    current user utterance), so the turns of an episode share each tuple.
    With ``states`` False no oracle state is built and every ``state`` is
    None: only a student can read such turns, and a teacher raises.
    """
    layout = BeliefLayout(corpus.schemas) if states else None
    prepared = []
    for episode in corpus.episodes:
        utterances = [tuple(in_vocab.encode(u)) for turn in episode.turns for u in (turn.user, turn.system)]
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
    the user utterance and the oracle state; a student reads the turn's
    history.

    The turns are encoded and decoded in runs of ``DECODE_ROWS`` consecutive
    turns. Each decoding model encodes its turns of a run in lockstep
    (``encode_turns``), then one ``decode_greedy`` call answers all those
    that share an encoder length.
    """
    replies: list[list[int]] = [[] for _ in items]
    for start in range(0, len(items), DECODE_ROWS):
        by_model: dict[_SeqModel, list[int]] = {}
        for i in range(start, min(start + DECODE_ROWS, len(items))):
            decoder = model.teachers[items[i].domain] if isinstance(model, TeacherEnsemble) else model
            by_model.setdefault(decoder, []).append(i)
        for decoder, turns in by_model.items():
            outs, rows, actions = decoder.encode_turns([items[i] for i in turns])
            groups: dict[int, list[int]] = {}
            for k, turn_rows in enumerate(rows):
                groups.setdefault(len(turn_rows), []).append(k)
            for group in groups.values():
                decoded = decoder.decode_greedy(actions[group], outs[[rows[k] for k in group]], max_len)
                for k, ids in zip(group, decoded):
                    replies[turns[k]] = ids
    return {(item.episode_id, item.turn_index): out_vocab.decode(ids) for item, ids in zip(items, replies)}

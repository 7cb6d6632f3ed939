"""Model architectures: shapes, determinism, masking, gradients, persistence."""

import numpy as np
import pytest

from mtss.corpus import Corpus, DomainSchema, Vocabulary, build_vocab
from mtss.corpus.vocab import BOS_ID, EOS_ID, PAD_ID, RESERVED
from mtss.diffnum import (
    Adam,
    CheckpointError,
    ShapeMismatchError,
    Tape,
    Tensor,
    grad_check_params,
    load_checkpoint,
    save_checkpoint,
)
from mtss.models import (
    ModelConfig,
    StudentModel,
    TeacherModel,
    generate_responses,
    load_model,
)
from mtss.synthcorpus import SynthConfig, gen_corpus

TINY = ModelConfig(embed_size=5, hidden_size=7)
V_IN, V_OUT, STATE = 12, 10, 6
IN_VOCAB = Vocabulary("input", RESERVED + [f"in{i}" for i in range(V_IN - len(RESERVED))])
OUT_VOCAB = Vocabulary("output", RESERVED + [f"out{i}" for i in range(V_OUT - len(RESERVED))])
SCHEMAS = {"hotel": DomainSchema("hotel", {"area": ["north"]}, ["phone"])}


def full_history(episode, turn_index, in_vocab):
    """All prior user and system utterances plus the current user utterance."""
    history = []
    for past in episode.turns[:turn_index]:
        history += [in_vocab.encode(past.user), in_vocab.encode(past.system)]
    return history + [in_vocab.encode(episode.turns[turn_index].user)]


@pytest.fixture
def teacher():
    return TeacherModel(TINY, V_IN, V_OUT, STATE, domain="hotel", seed=1)


@pytest.fixture
def student():
    return StudentModel(TINY, V_IN, V_OUT, seed=2)


def ids(*tokens):
    return [BOS_ID, *tokens, EOS_ID]


def rand_state(rng):
    state = np.zeros(STATE)
    state[rng.integers(0, STATE)] = 1.0
    return state


class TestEncoder:
    def test_output_per_position_and_hidden_size(self, teacher):
        enc, v_u = teacher.encode_utterance(Tape(), ids(4, 5, 6))
        assert enc.data.shape == (5, TINY.hidden_size)
        assert v_u.data.shape == (TINY.hidden_size,)

    def test_bos_eos_only(self, teacher):
        enc, _ = teacher.encode_utterance(Tape(), ids())
        assert enc.data.shape == (2, TINY.hidden_size)

    def test_determinism(self, teacher):
        a = teacher.encode_utterance(Tape(), ids(4, 5))[1].data
        b = teacher.encode_utterance(Tape(), ids(4, 5))[1].data
        assert np.array_equal(a, b)

    def test_out_of_range_id_errors(self, teacher):
        with pytest.raises(IndexError):
            teacher.encode_utterance(Tape(), [BOS_ID, V_IN + 3, EOS_ID])

    def test_empty_sequence_errors(self, teacher):
        with pytest.raises(ValueError):
            teacher.encode_utterance(Tape(), [])


class TestTeacherAction:
    def test_zero_weights_give_zero_action(self, teacher):
        teacher.params["policy_w"].data[:] = 0.0
        tape = Tape()
        _, v_u = teacher.encode_utterance(tape, ids(4))
        action = teacher.action_vector(tape, v_u, np.ones(STATE))
        assert np.array_equal(action.data, np.zeros(TINY.hidden_size))

    def test_components_inside_open_interval(self, teacher):
        rng = np.random.default_rng(0)
        teacher.params["policy_w"].data = rng.normal(scale=5.0, size=teacher.params["policy_w"].shape)
        tape = Tape()
        _, v_u = teacher.encode_utterance(tape, ids(4, 7))
        action = teacher.action_vector(tape, v_u, rand_state(rng))
        assert np.abs(action.data).max() < 1.0

    def test_state_dim_checked(self, teacher):
        tape = Tape()
        _, v_u = teacher.encode_utterance(tape, ids(4))
        with pytest.raises(ShapeMismatchError):
            teacher.action_vector(tape, v_u, np.zeros(STATE + 1))

    def test_action_gradient_wrt_policy_weights(self, teacher):
        rng = np.random.default_rng(3)
        state = rand_state(rng)
        weights = Tensor(rng.normal(size=TINY.hidden_size))

        def f(tape):
            _, v_u = teacher.encode_utterance(tape, ids(4, 5))
            action = teacher.action_vector(tape, v_u, state)
            return tape.sum(tape.mul(action, weights))

        assert grad_check_params(f, [teacher.params["policy_w"]], eps=1e-5) < 1e-4

    def test_action_invariant_to_padding_after_eos(self, teacher):
        rng = np.random.default_rng(4)
        state = rand_state(rng)
        tape = Tape()
        _, v_u = teacher.encode_utterance(tape, ids(4, 5))
        clean = teacher.action_vector(tape, v_u, state).data
        tape = Tape()
        _, v_u = teacher.encode_utterance(tape, ids(4, 5) + [PAD_ID, PAD_ID, 7])
        padded = teacher.action_vector(tape, v_u, state).data
        assert np.array_equal(clean, padded)


class TestStudentAction:
    def test_single_utterance_history(self, student):
        tape = Tape()
        _, action = student.encode_history(tape, [ids(4)])
        assert action.data.shape == (TINY.hidden_size,)

    def test_empty_history_errors(self, student):
        with pytest.raises(ValueError):
            student.encode_history(Tape(), [])

    def test_appending_utterance_changes_action(self, student):
        tape = Tape()
        _, short = student.encode_history(tape, [ids(4)])
        tape = Tape()
        _, longer = student.encode_history(tape, [ids(4), ids(5, 6)])
        assert not np.array_equal(short.data, longer.data)


class TestIncrementalInference:
    """The per-dialogue state must compute exactly what re-encoding the whole
    history computes, while encoding each utterance only once."""

    # A larger init scale than TINY so greedy replies depend on the history.
    CONFIG = ModelConfig(embed_size=8, hidden_size=12, init_scale=0.5)

    @pytest.fixture(scope="class")
    def episode_setup(self):
        train, _ = gen_corpus(SynthConfig(seed=3, train_episodes=6, test_episodes=1,
                                          entities_per_domain=3))
        in_vocab, out_vocab = build_vocab(train, "input"), build_vocab(train, "output")
        episode = max(train.episodes, key=lambda e: len(e.turns))
        student = StudentModel(self.CONFIG, len(in_vocab), len(out_vocab), seed=4)
        return Corpus(train.schemas, train.database, [episode]), in_vocab, out_vocab, student

    def test_state_matches_encode_history_bitwise(self, episode_setup):
        corpus, in_vocab, _, student = episode_setup
        episode = corpus.episodes[0]
        dialogue = student.dialogue()
        for index, turn in enumerate(episode.turns):
            dialogue.add(in_vocab.encode(turn.user))
            tape = Tape(record=False)
            enc_outs, action = student.encode_history(tape, full_history(episode, index, in_vocab))
            assert np.array_equal(dialogue.latest_outputs.data, enc_outs.data)
            assert np.array_equal(student.action_vector(tape, dialogue.vectors).data, action.data)
            dialogue.add(in_vocab.encode(turn.system))

    def test_generate_responses_matches_reference(self, episode_setup, monkeypatch):
        corpus, in_vocab, out_vocab, student = episode_setup
        episode = corpus.episodes[0]
        turns = len(episode.turns)
        assert turns >= 3
        calls = []
        encode = StudentModel.encode_utterance

        def counting(self, tape, token_ids):
            calls.append(len(token_ids))
            return encode(self, tape, token_ids)

        monkeypatch.setattr(StudentModel, "encode_utterance", counting)
        generated = generate_responses(student, corpus, in_vocab, out_vocab, max_len=8)
        monkeypatch.undo()
        assert len(calls) == 2 * turns - 1

        replies = []
        for index in range(turns):
            history = full_history(episode, index, in_vocab)
            tape = Tape(record=False)
            enc_outs, action = student.encode_history(tape, history)
            reference = student.decode_greedy(tape, action, enc_outs, 8)
            dialogue = student.dialogue()
            for utterance in history:
                dialogue.add(utterance)
            assert dialogue.reply(8) == reference
            expected = out_vocab.decode(reference)
            assert generated[(episode.episode_id, index)] == expected
            replies.append(tuple(expected))
        assert len(set(replies)) > 1  # replies really depend on the history

    def test_reply_needs_an_utterance(self, student):
        dialogue = student.dialogue()
        with pytest.raises(ValueError):
            dialogue.reply()
        dialogue.add(ids(4))
        dialogue.add(ids(5))
        dialogue.truncate(1)
        assert len(dialogue.vectors) == 1
        with pytest.raises(ValueError):
            dialogue.reply()


class TestDecoder:
    def test_distribution_per_gold_position(self, teacher):
        tape = Tape()
        gold = ids(5, 6, 7)
        log_probs = self._forced(teacher, tape, gold)
        assert log_probs.data.shape == (len(gold) - 1, V_OUT)
        assert np.abs(np.exp(log_probs.data).sum(axis=1) - 1.0).max() <= 1e-12
        assert (log_probs.data <= 0).all()

    def _forced(self, teacher, tape, gold):
        enc_outs, v_u = teacher.encode_utterance(tape, ids(4, 5))
        action = teacher.action_vector(tape, v_u, np.zeros(STATE))
        return teacher.decode_teacher_forced(tape, action, enc_outs, gold)

    def test_empty_gold_errors(self, teacher):
        tape = Tape()
        with pytest.raises(ValueError):
            self._forced(teacher, tape, [BOS_ID])
        with pytest.raises(ValueError, match="EOS"):
            self._forced(teacher, tape, [BOS_ID, 5, 6])

    def test_greedy_tokens_are_the_teacher_forced_argmax(self):
        """Greedy decoding and the fused teacher-forced decoder are one decoder:
        forcing the greedy output reproduces it row by row, EOS included when
        decoding stopped there. A wide init makes the argmax depend on the
        attention context and the cell state."""
        config = ModelConfig(embed_size=8, hidden_size=16, init_scale=1.0)
        state = np.zeros(STATE)
        state[2] = 1.0
        max_len = 12
        ended = {"teacher": 0, "student": 0}
        for seed in range(10):
            teacher = TeacherModel(config, V_IN, V_OUT, STATE, seed=seed)
            student = StudentModel(config, V_IN, V_OUT, seed=seed)
            tape = Tape(record=False)
            enc_outs, v_u = teacher.encode_utterance(tape, ids(4, 5, 9))
            inputs = [(teacher, enc_outs, teacher.action_vector(tape, v_u, state)),
                      (student, *student.encode_history(tape, [ids(4), ids(5, 6), ids(7, 9)]))]
            for model, enc_outs, action in inputs:
                tokens = model.decode_greedy(tape, action, enc_outs, max_len)
                expected = [*tokens, EOS_ID] if len(tokens) < max_len else tokens
                ended[model.kind] += len(tokens) < max_len
                log_probs = model.decode_teacher_forced(tape, action, enc_outs, [BOS_ID, *expected[:-1], EOS_ID])
                assert list(np.argmax(log_probs.data, axis=1)) == expected
        assert min(ended.values()) >= 2

    def test_generate_respects_max_len(self, teacher):
        out = teacher.generate(ids(4), np.zeros(STATE), max_len=1)
        assert len(out) <= 1

    def test_generate_deterministic(self, teacher):
        a = teacher.generate(ids(4, 7), np.zeros(STATE), max_len=8)
        b = teacher.generate(ids(4, 7), np.zeros(STATE), max_len=8)
        assert a == b


class TestOverfitOnePair:
    def test_teacher_memorizes_single_pair(self, teacher):
        user, gold = ids(4, 5), ids(6, 7, 8)
        state = np.zeros(STATE)
        state[1] = 1.0
        opt = Adam(teacher.parameter_list(), lr=0.05)
        for _ in range(150):
            tape = Tape()
            log_probs, _ = teacher.respond_forced(tape, user, state, gold)
            loss = tape.neg(tape.sum(tape.pick(log_probs, gold[1:])))
            opt.zero_grad()
            tape.backward(loss)
            opt.step()
        tape = Tape(record=False)
        log_probs, _ = teacher.respond_forced(tape, user, state, gold)
        assert list(np.argmax(log_probs.data, axis=1)) == gold[1:]
        assert teacher.generate(user, state, max_len=10) == [6, 7, 8]


class TestFullModelGradients:
    def test_teacher_loss_matches_finite_differences(self, teacher):
        state = np.zeros(STATE)
        state[2] = 1.0
        gold = ids(5, 6)

        def f(tape):
            log_probs, action = teacher.respond_forced(tape, ids(4, 7), state, gold)
            nll = tape.neg(tape.sum(tape.pick(log_probs, gold[1:])))
            return tape.add(nll, tape.sum(tape.mul(action, action)))

        assert grad_check_params(f, teacher.parameter_list(), eps=1e-5) < 1e-4

    def test_student_loss_matches_finite_differences(self, student):
        # Two-turn history so word encoder, context LSTM and decoder all engage.
        history = [ids(4), ids(5, 6), ids(7)]
        gold = ids(8, 9)

        def f(tape):
            log_probs, action = student.respond_forced(tape, history, gold)
            nll = tape.neg(tape.sum(tape.pick(log_probs, gold[1:])))
            return tape.add(nll, tape.sum(tape.mul(action, action)))

        assert grad_check_params(f, student.parameter_list(), eps=1e-5) < 1e-4


class TestPersistence:
    def test_save_load_forward_bit_identical(self, teacher, tmp_path):
        path = tmp_path / "teacher.ckpt"
        state = np.zeros(STATE)
        before = teacher.generate(ids(4, 5), state, max_len=6)
        tape = Tape(record=False)
        log_probs, _ = teacher.respond_forced(tape, ids(4, 5), state, ids(6, 7))
        before_log_probs = log_probs.data.copy()

        teacher.save(path, SCHEMAS, IN_VOCAB, OUT_VOCAB, {"seed": 1})
        loaded, in_vocab, out_vocab = load_model(path, "teacher", SCHEMAS)
        assert (in_vocab, out_vocab) == (IN_VOCAB, OUT_VOCAB)
        assert loaded.domain == "hotel"
        assert load_checkpoint(path)[1]["train_config"] == {"seed": 1}
        tape = Tape(record=False)
        log_probs, _ = loaded.respond_forced(tape, ids(4, 5), state, ids(6, 7))
        assert np.array_equal(log_probs.data, before_log_probs)
        assert loaded.generate(ids(4, 5), state, max_len=6) == before

    def test_kind_mismatch_rejected(self, teacher, student, tmp_path):
        teacher.save(tmp_path / "t.ckpt", SCHEMAS, IN_VOCAB, OUT_VOCAB, {})
        student.save(tmp_path / "s.ckpt", SCHEMAS, IN_VOCAB, OUT_VOCAB, {})
        with pytest.raises(CheckpointError, match="expected teacher"):
            load_model(tmp_path / "s.ckpt", "teacher")
        with pytest.raises(CheckpointError, match="expected student"):
            load_model(tmp_path / "t.ckpt", "student")
        assert load_model(tmp_path / "s.ckpt")[0].kind == "student"

    def test_schema_mismatch_rejected(self, student, tmp_path):
        student.save(tmp_path / "s.ckpt", SCHEMAS, IN_VOCAB, OUT_VOCAB, {})
        other = {"hotel": DomainSchema("hotel", {"area": ["north", "east"]}, ["phone"])}
        with pytest.raises(CheckpointError, match="schema set"):
            load_model(tmp_path / "s.ckpt", "student", other)

    @pytest.mark.parametrize("key,tokens", [
        ("in_vocab", None), ("out_vocab", "<pad> <bos>"), ("in_vocab", RESERVED + [1] * 8),
        ("in_vocab", RESERVED + ["w"] * 8), ("out_vocab", RESERVED + ["w0"]),
    ], ids=["missing", "not-a-list", "not-tokens", "duplicates", "size-mismatch"])
    def test_malformed_vocabulary_rejected(self, student, tmp_path, key, tokens):
        student.save(tmp_path / "s.ckpt", SCHEMAS, IN_VOCAB, OUT_VOCAB, {})
        arrays, meta = load_checkpoint(tmp_path / "s.ckpt")
        save_checkpoint(tmp_path / "bad.ckpt", arrays, {**meta, key: tokens})
        with pytest.raises(CheckpointError):
            load_model(tmp_path / "bad.ckpt")

    def test_clone_is_independent(self, teacher):
        copy = teacher.clone()
        assert copy.param_bytes() == teacher.param_bytes()
        copy.params["out_b"].data += 1.0
        assert copy.param_bytes() != teacher.param_bytes()

    def test_same_seed_same_params(self):
        a = TeacherModel(TINY, V_IN, V_OUT, STATE, seed=9)
        b = TeacherModel(TINY, V_IN, V_OUT, STATE, seed=9)
        assert a.param_bytes() == b.param_bytes()
        c = TeacherModel(TINY, V_IN, V_OUT, STATE, seed=10)
        assert c.param_bytes() != a.param_bytes()

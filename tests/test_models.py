"""Model architectures: shapes, determinism, masking, gradients, persistence."""

import gc
import sys
import weakref

import numpy as np
import pytest

from helpers import (count_context_steps, count_decoded_rows, grad_check_params, memo_free_context, memo_free_reply,
                     param_bytes, record_context_runs, record_word_encodes, tape_greedy, track_memos)
from mtss.corpus import Corpus, DomainSchema, Episode, Vocabulary, build_vocab
from mtss.corpus.vocab import BOS_ID, EOS_ID, PAD_ID, RESERVED
from mtss.diffnum import (
    Adam,
    CheckpointError,
    ShapeMismatchError,
    Tape,
    Tensor,
    load_checkpoint,
    save_checkpoint,
)
from mtss import models
from mtss.models import (
    ModelConfig,
    PreparedTurn,
    StudentModel,
    TeacherEnsemble,
    TeacherModel,
    ensemble_domains,
    generate_responses,
    load_model,
    prepare_turns,
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


def hotel_turns(*utterances, state=None):
    """Prepared turns of the hotel domain, one per user utterance, all in the
    oracle state ``state`` (zeros by default)."""
    state = np.zeros(STATE) if state is None else state
    return [PreparedTurn("hotel", i, "hotel", tuple(u), ids(), [tuple(u)], state) for i, u in enumerate(utterances)]


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

    @pytest.mark.parametrize("history", [
        [ids(4), ids(5, 6) + [PAD_ID, 7], ids(7, 8, 9)],
        [ids(4, 5, 6), ids(5), ids(7) + [PAD_ID, PAD_ID, 8]],
    ], ids=["early-eos-in-history", "early-eos-in-current"])
    def test_packed_history_matches_one_encode_per_utterance(self, student, history):
        """Each utterance is read up to its first EOS, and outputs past it
        repeat its state, exactly as ``encode_utterance`` reads it."""
        tape = Tape(record=False)
        enc_outs, action = student.encode_history(tape, history)
        encoded = [student.encode_utterance(tape, utterance) for utterance in history]
        expected = student.action_vector(tape, Tensor(np.stack([v.data for _, v in encoded])))
        assert enc_outs.data.shape == (len(history[-1]), TINY.hidden_size)
        assert np.allclose(enc_outs.data, encoded[-1][0].data, rtol=1e-12, atol=1e-15)
        assert np.allclose(action.data, expected.data, rtol=1e-12, atol=1e-15)

    def test_appending_utterance_changes_action(self, student):
        tape = Tape()
        _, short = student.encode_history(tape, [ids(4)])
        tape = Tape()
        _, longer = student.encode_history(tape, [ids(4), ids(5, 6)])
        assert not np.array_equal(short.data, longer.data)


class TestIncrementalInference:
    """A reply to shared utterance encodings, a pass's packed ones or the
    chat memo's, must compute what re-encoding the whole history computes,
    while encoding each utterance only once."""

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
        """Each turn's outputs and context h and c equal the from-scratch
        reference bit for bit, though each turn steps on from the previous
        turn's state over the utterances since. They equal
        ``encode_history``'s bit for bit on the first turn, a one-utterance
        history; later turns differ in rounding, as ``encode_history``
        projects every utterance's input in one product."""
        corpus, in_vocab, _, student = episode_setup
        episode = corpus.episodes[0]
        memo, state, stepped = student.encoding_memo(), None, 0
        for index in range(len(episode.turns)):
            history = full_history(episode, index, in_vocab)
            enc_outs, state = memo(history[stepped:], state)
            stepped = len(history)
            h, c = state
            for got, expected in zip((enc_outs, h, c), memo_free_context(student, history)):
                assert np.array_equal(got, expected.data)
            tape = Tape(record=False)
            for got, expected in zip((enc_outs, h), student.encode_history(tape, history)):
                if index == 0:
                    assert np.array_equal(got, expected.data)
                else:
                    assert np.allclose(got, expected.data, rtol=1e-12, atol=0.0)

    def test_context_steps_once_per_new_utterance(self, episode_setup, monkeypatch):
        """A turn's history extends the previous turn's by a system and a
        user utterance, so a pass runs the context LSTM once over the last
        turn's history, one row per utterance, and reads every earlier turn
        from its steps; a second copy of the episode adds no step."""
        corpus, in_vocab, out_vocab, student = episode_setup
        episode = corpus.episodes[0]
        again = Episode(episode.episode_id + "-again", episode.turns, episode.goal)
        for episodes in ([episode], [episode, again]):
            items = prepare_turns(Corpus(corpus.schemas, corpus.database, episodes), in_vocab, out_vocab)
            steps = count_context_steps(monkeypatch)
            runs = record_context_runs(monkeypatch, student)
            generate_responses(student, items, out_vocab, max_len=8)
            monkeypatch.undo()
            assert runs == [[len(items[-1].history_ids)]] and steps == []

    def test_a_cold_long_history_steps_without_recursion(self, episode_setup, monkeypatch):
        """2,000 utterances, past Python's default recursion limit of 1,000,
        stepped from zeros; then a reply's two utterances stepped from there."""
        corpus, in_vocab, _, student = episode_setup
        episode = corpus.episodes[0]
        utterances = full_history(episode, len(episode.turns) - 1, in_vocab)
        history = [utterances[i % len(utterances)] for i in range(2000)]
        assert len(history) == 2000 > sys.getrecursionlimit()
        memo = student.encoding_memo()
        steps = count_context_steps(monkeypatch)
        enc_outs, state = memo(history)
        assert len(steps) == 2000
        for got, expected in zip((enc_outs, *state), memo_free_context(student, history)):
            assert np.array_equal(got, expected.data)
        # A reply steps the state over the two utterances since: the reply
        # and the next user line.
        steps.clear()
        longer = history + utterances[:2]
        enc_outs, state = memo(longer[-2:], state)
        assert len(steps) == 2
        for got, expected in zip((enc_outs, *state), memo_free_context(student, longer)):
            assert np.array_equal(got, expected.data)

    def test_generate_responses_matches_reference(self, episode_setup, monkeypatch):
        corpus, in_vocab, out_vocab, student = episode_setup
        episode = corpus.episodes[0]
        turns = len(episode.turns)
        assert turns >= 3
        # A second copy of the episode repeats every utterance in another dialogue.
        again = Episode(episode.episode_id + "-again", episode.turns, episode.goal)
        items = prepare_turns(Corpus(corpus.schemas, corpus.database, [episode, again]), in_vocab, out_vocab)
        one_by_one = count_context_steps(monkeypatch)
        calls = record_word_encodes(monkeypatch)
        generated = generate_responses(student, items, out_vocab, max_len=8)
        monkeypatch.undo()
        # One packed encode of the distinct utterances, 2t - 1 of them in a
        # t-turn episode, and no utterance encoded on its own.
        distinct = {tuple(utterance) for item in items for utterance in item.history_ids}
        assert len(calls) == 1 and one_by_one == []
        assert len(calls[0]) == len(set(calls[0])) == len(distinct) == 2 * turns - 1
        assert set(calls[0]) == distinct

        replies = []
        for index in range(turns):
            history = full_history(episode, index, in_vocab)
            tape = Tape(record=False)
            enc_outs, action = student.encode_history(tape, history)
            reference = tape_greedy(student, action.data, enc_outs.data, 8)
            assert memo_free_reply(student, history, 8) == reference
            expected = out_vocab.decode(reference)
            assert generated[(episode.episode_id, index)] == expected
            assert generated[(again.episode_id, index)] == expected
            replies.append(tuple(expected))
        assert len(set(replies)) > 1  # replies really depend on the history

    @pytest.fixture(scope="class")
    def repeating_setup(self, episode_setup):
        """Several episodes, and one whose third turn repeats its first."""
        _, in_vocab, out_vocab, student = episode_setup
        train, _ = gen_corpus(SynthConfig(seed=5, train_episodes=8, test_episodes=1,
                                          entities_per_domain=3))
        turns = train.episodes[0].turns
        repeat = Episode("repeat", [turns[0], turns[1], turns[0]])
        items = prepare_turns(Corpus(train.schemas, train.database, train.episodes[1:] + [repeat]),
                              in_vocab, out_vocab)
        return items, out_vocab, student

    @pytest.mark.parametrize("capacity", [None, 1], ids=["default-capacity", "capacity-1"])
    def test_memo_replies_match_a_memo_free_replay(self, repeating_setup, monkeypatch, capacity):
        """A pass's replies equal the memo-free ones, whether it holds all its
        turns' encodings at once or, in runs of ``capacity`` = 1 turn, each
        turn's only, so that every run encodes its own history again."""
        items, out_vocab, student = repeating_setup
        if capacity is not None:
            monkeypatch.setattr(models, "DECODE_ROWS", capacity)
        calls = record_word_encodes(monkeypatch)
        generated = generate_responses(student, items, out_vocab, max_len=8)
        monkeypatch.undo()
        expected = {(item.episode_id, item.turn_index):
                    out_vocab.decode(memo_free_reply(student, item.history_ids, 8)) for item in items}
        assert generated == expected
        assert len(set(map(tuple, expected.values()))) > 1
        repeat = [item.history_ids for item in items if item.episode_id == "repeat"][-1]
        assert repeat[0] == repeat[-1]  # the episode repeats an utterance
        distinct = {tuple(utterance) for item in items for utterance in item.history_ids}
        encoded = [utterance for call in calls for utterance in call]
        if capacity is None:
            assert len(calls) == 1 and len(encoded) == len(set(encoded)) and set(encoded) == distinct
        else:  # one run per turn, each encoding its history's distinct utterances
            assert calls == [list(dict.fromkeys(item.history_ids)) for item in items]
            assert set(encoded) == distinct and len(encoded) > len(distinct)

    def test_encoder_calls_hold_at_most_encoder_rows_ids(self, repeating_setup, monkeypatch):
        """A run's distinct utterances are split between packed calls of at
        most ENCODER_ROWS token ids, or one longer utterance each, in order,
        and the replies stay the memo-free ones. The encodings a pass holds
        are the outputs of its distinct current utterances only, each once."""
        items, out_vocab, student = repeating_setup
        distinct = list(dict.fromkeys(u for item in items for u in item.history_ids))
        limit = max(map(len, distinct)) - 1  # the longest utterance is one call of its own
        monkeypatch.setattr(models, "ENCODER_ROWS", limit)
        outs, rows, _ = student.encode_turns(items)
        assert sorted({r for turn_rows in rows for r in turn_rows}) == list(range(len(outs)))
        current = {}
        for item, turn_rows in zip(items, rows):
            assert current.setdefault(item.user_ids, turn_rows) == turn_rows
            enc_outs, _ = student.encode_utterance(Tape(record=False), item.user_ids)
            assert np.allclose(outs[turn_rows], enc_outs.data, rtol=1e-12, atol=1e-15)
        assert len(current) < len(distinct)  # some history utterance is never attended
        calls = record_word_encodes(monkeypatch)
        generated = generate_responses(student, items, out_vocab, max_len=8)
        monkeypatch.undo()
        assert generated == {(item.episode_id, item.turn_index):
                             out_vocab.decode(memo_free_reply(student, item.history_ids, 8)) for item in items}
        sizes = [sum(map(len, call)) for call in calls]
        assert all(size <= limit or len(call) == 1 for size, call in zip(sizes, calls))
        assert max(sizes) > limit and max(map(len, calls)) > 1
        assert [u for call in calls for u in call] == distinct

    def test_pass_encodings_match_the_one_row_path(self, repeating_setup, episode_setup):
        """A pass's packed encodings of each turn are within 1e-12 relative
        of the memo's one row at a time, and those of a one-turn pass over a
        one-utterance history equal them bit for bit. Likewise for a teacher
        against ``encode_utterance`` and ``action_vector`` turn by turn."""
        items, _, student = repeating_setup
        corpus, in_vocab, out_vocab, _ = episode_setup
        stated = prepare_turns(corpus, in_vocab, out_vocab)
        teacher = TeacherModel(self.CONFIG, len(in_vocab), len(out_vocab), len(stated[0].state), seed=6)
        memo = student.encoding_memo()

        def one_row(model, item):
            if model is student:
                enc_outs, (h, _) = memo(item.history_ids)
                return enc_outs, h
            tape = Tape(record=False)
            outs, v_u = teacher.encode_utterance(tape, item.user_ids)
            return outs.data, teacher.action_vector(tape, v_u, item.state).data

        for model, turns in ((student, items), (teacher, stated)):
            outs, rows, actions = model.encode_turns(turns)
            assert len(rows) == len(actions) == len(turns)
            for item, turn_rows, action in zip(turns, rows, actions):
                enc_outs, reference = one_row(model, item)
                assert np.allclose(outs[turn_rows], enc_outs, rtol=1e-12, atol=1e-15)
                assert np.allclose(action, reference, rtol=1e-12, atol=1e-15)
            first = turns[0]
            assert len(first.history_ids) == 1
            outs, (turn_rows,), actions = model.encode_turns([first])
            enc_outs, reference = one_row(model, first)
            assert np.array_equal(outs[turn_rows], enc_outs) and np.array_equal(actions[0], reference)

    def test_a_changed_model_replies_as_a_fresh_copy(self, episode_setup):
        """No encoding outlives the weights: after an in-place change, the
        next call replies as a new model holding the changed weights does."""
        corpus, in_vocab, out_vocab, _ = episode_setup
        items = prepare_turns(corpus, in_vocab, out_vocab)
        student = StudentModel(self.CONFIG, len(in_vocab), len(out_vocab), seed=4)
        before = generate_responses(student, items, out_vocab, max_len=8)
        student.params["enc_w"].data *= -1.0
        after = generate_responses(student, items, out_vocab, max_len=8)
        fresh = StudentModel(self.CONFIG, len(in_vocab), len(out_vocab), seed=0)
        fresh.load_arrays({name: p.data for name, p in student.params.items()})
        assert after == generate_responses(fresh, items, out_vocab, max_len=8)
        assert after != before

    def test_turns_without_states_serve_the_student_only(self, episode_setup):
        corpus, in_vocab, out_vocab, student = episode_setup
        items = prepare_turns(corpus, in_vocab, out_vocab)
        stateless = prepare_turns(corpus, in_vocab, out_vocab, states=False)
        assert all(item.state is None for item in stateless)
        assert generate_responses(student, stateless, out_vocab, max_len=8) == \
            generate_responses(student, items, out_vocab, max_len=8)
        teacher = TeacherModel(self.CONFIG, len(in_vocab), len(out_vocab), len(items[0].state), seed=1)
        with pytest.raises(ValueError, match="oracle state"):
            generate_responses(teacher, stateless, out_vocab, max_len=8)
        with pytest.raises(ValueError, match="oracle state"):
            teacher.respond_forced(Tape(), stateless[0].user_ids, None, stateless[0].gold_ids)

    def test_generation_reads_only_the_prepared_turns(self, episode_setup, monkeypatch):
        corpus, in_vocab, out_vocab, student = episode_setup
        items = prepare_turns(corpus, in_vocab, out_vocab)
        state = len(items[0].state)
        teachers = {d: TeacherModel(self.CONFIG, len(in_vocab), len(out_vocab), state, d, seed=i)
                    for i, d in enumerate(ensemble_domains(corpus.schemas))}
        ensemble = TeacherEnsemble(teachers, teachers["general"])

        def unreachable(*args, **kwargs):
            raise AssertionError("generation rebuilt a model input")

        speakers = (student, ensemble.universal, ensemble)
        expected = [generate_responses(model, items, out_vocab, max_len=8) for model in speakers]
        monkeypatch.setattr(Vocabulary, "encode", unreachable)
        monkeypatch.setattr(models, "turn_state", unreachable)
        for model, reference in zip(speakers, expected):
            generated = generate_responses(model, items, out_vocab, max_len=8)
            assert list(generated) == [(item.episode_id, item.turn_index) for item in items]
            assert generated == reference

    def test_student_on_some_turns_replies_as_on_the_whole_episode(self, episode_setup):
        corpus, in_vocab, out_vocab, student = episode_setup
        items = prepare_turns(corpus, in_vocab, out_vocab)
        assert len(items) >= 4
        whole = generate_responses(student, items, out_vocab, max_len=8)
        for picked in ([1, 3], [3, 1], [2, 2]):
            some = generate_responses(student, [items[i] for i in picked], out_vocab, max_len=8)
            keys = [(items[i].episode_id, items[i].turn_index) for i in picked]
            assert some == {key: whole[key] for key in keys}

    def test_reply_needs_an_utterance(self, student):
        with pytest.raises(ValueError, match="at least the current user utterance"):
            student.reply(student.encoding_memo()([]))

    def test_encodings_die_with_their_pass(self, episode_setup, monkeypatch):
        """A pass makes no memo, and no reference cycle keeps its packed
        encodings alive once it returns, even with the cycle collector off."""
        corpus, in_vocab, out_vocab, student = episode_setup
        items = prepare_turns(corpus, in_vocab, out_vocab)
        memos = track_memos(monkeypatch)
        encodings: list[weakref.ref] = []
        encode = StudentModel.encode_turns

        def tracked(self, turns):
            outs, rows, actions = encode(self, turns)
            encodings.extend((weakref.ref(outs), weakref.ref(actions)))
            return outs, rows, actions

        monkeypatch.setattr(StudentModel, "encode_turns", tracked)
        gc.disable()
        try:
            generate_responses(student, items, out_vocab, max_len=8)
            assert memos == [] and len(encodings) == 2
            assert all(ref() is None for ref in encodings)
        finally:
            gc.enable()

    def test_a_warm_reply_runs_off_the_tape(self, episode_setup, monkeypatch):
        """Once the memo holds a history's utterances, stepping a state over
        them and replying records nothing and runs no tape op: no decoder
        step, no context step, no op of any kind."""
        corpus, in_vocab, _, student = episode_setup
        episode = corpus.episodes[0]
        history = full_history(episode, len(episode.turns) - 1, in_vocab)
        memo = student.encoding_memo()
        expected = student.reply(memo(history), 8)
        _, state = memo(history[:-2])

        def off_the_tape(*args, **kwargs):
            raise AssertionError("a warm reply ran a tape op")

        ops = [name for name, value in vars(Tape).items() if callable(value) and not name.startswith("_")]
        assert {"lstm_step", "lstm_sequence", "concat", "matmul"} <= set(ops)
        for name in ops:
            monkeypatch.setattr(Tape, name, off_the_tape)
        assert student.reply(memo(history), 8) == expected
        assert student.reply(memo(history[-2:], state), 8) == expected


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
                [tokens] = model.decode_greedy(action.data[None], enc_outs.data[None], max_len)
                expected = [*tokens, EOS_ID] if len(tokens) < max_len else tokens
                ended[model.kind] += len(tokens) < max_len
                log_probs = model.decode_teacher_forced(tape, action, enc_outs, [BOS_ID, *expected[:-1], EOS_ID])
                assert list(np.argmax(log_probs.data, axis=1)) == expected
        assert min(ended.values()) >= 2

    def test_misshaped_inputs_are_rejected(self, teacher, student):
        tape = Tape(record=False)
        enc_outs, v_u = teacher.encode_utterance(tape, ids(4, 5))
        action = teacher.action_vector(tape, v_u, np.zeros(STATE)).data
        actions, outs = action[None], enc_outs.data[None]
        hidden = TINY.hidden_size
        for model in (teacher, student):
            assert len(model.decode_greedy(actions, outs, 8)) == 1
            for bad_actions, bad_outs in [
                (action, outs),                                   # no batch axis on the actions
                (actions, enc_outs.data),                         # nor on the encoder outputs
                (actions[:, :-1], outs),                          # H of the actions
                (actions, outs[:, :, :-1]),                       # H of the encoder outputs
                (np.vstack([action, action]), outs),              # B
                (actions, np.vstack([outs, outs])),               # B
                (actions, np.zeros((1, 0, hidden))),              # P = 0
                (actions, outs[..., None]),                       # a fourth axis
            ]:
                with pytest.raises(ShapeMismatchError, match="decode_greedy"):
                    model.decode_greedy(bad_actions, bad_outs, 8)

    def test_generate_respects_max_len(self, teacher):
        out = generate_responses(teacher, hotel_turns(ids(4), ids(5, 6), ids(7)), OUT_VOCAB, max_len=1)
        assert len(out) == 3 and all(len(reply) <= 1 for reply in out.values())

    def test_generate_deterministic(self, teacher):
        turns = hotel_turns(ids(4, 7), ids(5, 6), ids(8, 9))
        a = generate_responses(teacher, turns, OUT_VOCAB, max_len=8)
        b = generate_responses(teacher, turns, OUT_VOCAB, max_len=8)
        assert a == b

    def test_weights_updated_in_place_are_seen(self):
        """An update that writes into the parameter arrays, as Adam's does,
        reaches the next decode: it decodes what a fresh model holding the
        updated weights decodes, one row or several."""
        config = ModelConfig(embed_size=8, hidden_size=16, init_scale=1.0)
        model = StudentModel(config, V_IN, V_OUT, seed=5)
        rng = np.random.default_rng(6)
        actions, enc_outs = rng.uniform(-1, 1, (6, 16)), rng.normal(size=(6, 4, 16))
        before = model.decode_greedy(actions, enc_outs, 12)
        assert model.decode_greedy(actions[:1], enc_outs[:1], 12) == before[:1]
        for p in model.parameter_list():
            p.data -= 0.5 * rng.normal(size=p.data.shape)
        fresh = StudentModel(config, V_IN, V_OUT, seed=0)
        fresh.load_arrays({name: p.data for name, p in model.params.items()})
        after = model.decode_greedy(actions, enc_outs, 12)
        assert after == fresh.decode_greedy(actions, enc_outs, 12) != before
        assert model.decode_greedy(actions[:1], enc_outs[:1], 12) == after[:1]


class TestGreedyReference:
    """Every way a model answers decodes what one ``Tape.lstm_step`` record
    per token decodes (``tape_greedy``), token for token."""

    # A wide init, so replies differ in length and content from turn to turn.
    CONFIG = ModelConfig(embed_size=8, hidden_size=16, init_scale=1.0)

    @pytest.fixture(scope="class")
    def world(self):
        train, _ = gen_corpus(SynthConfig(seed=9, train_episodes=5, test_episodes=1,
                                          entities_per_domain=3))
        in_vocab, out_vocab = build_vocab(train, "input"), build_vocab(train, "output")
        items = prepare_turns(train, in_vocab, out_vocab)
        student = StudentModel(self.CONFIG, len(in_vocab), len(out_vocab), seed=3)
        teachers = {d: TeacherModel(self.CONFIG, len(in_vocab), len(out_vocab), len(items[0].state), d,
                                    seed=10 + i)
                    for i, d in enumerate(ensemble_domains(train.schemas))}
        return items, out_vocab, student, TeacherEnsemble(teachers, teachers["general"])

    @staticmethod
    def teacher_reference(teacher, item, max_len, one_row=False):
        """``tape_greedy``'s reply of the turn's teacher, or with ``one_row``
        the reply of ``decode_greedy`` given the turn as its only row."""
        tape = Tape(record=False)
        enc_outs, v_u = teacher.encode_utterance(tape, item.user_ids)
        action = teacher.action_vector(tape, v_u, item.state).data
        if one_row:
            return teacher.decode_greedy(action[None], enc_outs.data[None], max_len)[0]
        return tape_greedy(teacher, action, enc_outs.data, max_len)

    @pytest.mark.parametrize("max_len", [1, 8, 30])
    def test_every_turn_decodes_as_the_tape_reference(self, world, max_len, monkeypatch):
        """One row at a time, and grouped by ``generate_responses``, every
        turn decodes what ``tape_greedy`` decodes, token for token."""
        items, out_vocab, student, ensemble = world
        memo = student.encoding_memo()
        student_replies = [memo_free_reply(student, item.history_ids, max_len) for item in items]
        teacher_replies = [self.teacher_reference(ensemble.teachers[item.domain], item, max_len)
                           for item in items]
        assert [student.reply(memo(item.history_ids), max_len) for item in items] == student_replies
        assert [self.teacher_reference(ensemble.teachers[item.domain], item, max_len, one_row=True)
                for item in items] == teacher_replies
        rows = count_decoded_rows(monkeypatch)
        for model, replies in ((student, student_replies), (ensemble, teacher_replies)):
            expected = {(item.episode_id, item.turn_index): out_vocab.decode(reply)
                        for item, reply in zip(items, replies)}
            rows.clear()
            assert generate_responses(model, items, out_vocab, max_len) == expected
            assert sum(rows) == len(items) and min(rows) == 1 and max(rows) > 1
        assert len({len(item.user_ids) for item in items}) >= 3
        lengths = {len(reply) for reply in student_replies + teacher_replies}
        assert max(lengths) == max_len and (max_len == 1 or len(lengths) > 1)

    def test_short_runs_decode_as_one_run(self, world, monkeypatch):
        """Runs of DECODE_ROWS turns bound the rows of a decode call and the
        utterances of a packed encoder call, and change no reply: each
        decoding model encodes the distinct utterances of its turns of the
        run, the student its histories', a teacher its user utterances."""
        items, out_vocab, student, ensemble = world
        whole = [generate_responses(model, items, out_vocab, 8) for model in (student, ensemble)]
        rows = count_decoded_rows(monkeypatch)
        monkeypatch.setattr(models, "DECODE_ROWS", 3)
        calls = record_word_encodes(monkeypatch)
        assert [generate_responses(model, items, out_vocab, 8) for model in (student, ensemble)] == whole
        assert sum(rows) == 2 * len(items) and 1 < max(rows) <= 3
        runs = [items[start:start + 3] for start in range(0, len(items), 3)]
        expected = [list(dict.fromkeys(u for item in run for u in item.history_ids)) for run in runs]
        for run in runs:
            by_domain = {}
            for item in run:
                by_domain.setdefault(item.domain, []).append(item.user_ids)
            expected += [list(dict.fromkeys(users)) for users in by_domain.values()]
        assert calls == expected
        assert len(calls) > 2 * len(runs)  # some run has turns of two teachers


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
        [turn] = hotel_turns(user, state=state)
        expected = {("hotel", 0): OUT_VOCAB.decode([6, 7, 8])}
        assert generate_responses(teacher, [turn], OUT_VOCAB, max_len=10) == expected


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
        turns = hotel_turns(ids(4, 5), ids(6), ids(7, 8, 9), state=state)
        before = generate_responses(teacher, turns, OUT_VOCAB, max_len=6)
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
        assert generate_responses(loaded, turns, OUT_VOCAB, max_len=6) == before

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

    def test_checkpoint_with_config_hash_loads(self, student, tmp_path):
        """Checkpoints written while the manifest still held the unread
        ``config_hash`` key load as before."""
        student.save(tmp_path / "s.ckpt", SCHEMAS, IN_VOCAB, OUT_VOCAB, {})
        arrays, meta = load_checkpoint(tmp_path / "s.ckpt")
        assert "config_hash" not in meta
        save_checkpoint(tmp_path / "old.ckpt", arrays, {**meta, "config_hash": "4f6c0a93e1d2"})
        loaded, in_vocab, out_vocab = load_model(tmp_path / "old.ckpt", "student", SCHEMAS)
        assert (in_vocab, out_vocab) == (IN_VOCAB, OUT_VOCAB)
        assert param_bytes(loaded) == param_bytes(student)

    def test_clone_is_independent(self, teacher):
        copy = teacher.clone()
        assert param_bytes(copy) == param_bytes(teacher)
        copy.params["out_b"].data += 1.0
        assert param_bytes(copy) != param_bytes(teacher)

    def test_same_seed_same_params(self):
        a = TeacherModel(TINY, V_IN, V_OUT, STATE, seed=9)
        b = TeacherModel(TINY, V_IN, V_OUT, STATE, seed=9)
        assert param_bytes(a) == param_bytes(b)
        c = TeacherModel(TINY, V_IN, V_OUT, STATE, seed=10)
        assert param_bytes(c) != param_bytes(a)

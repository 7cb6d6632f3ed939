"""Model architectures: shapes, determinism, masking, gradients, persistence."""

import gc
import sys
import weakref

import numpy as np
import pytest

from helpers import (count_context_steps, count_decoded_rows, param_bytes, record_context_runs, record_word_encodes,
                     track_memos)
from mtss.corpus import Corpus, DomainSchema, Episode, Vocabulary, build_vocab
from mtss.corpus.vocab import BOS_ID, EOS_ID, RESERVED
from mtss.diffnum import Adam, CheckpointError, Tape, load_checkpoint, save_checkpoint
from mtss import models
from mtss.models import (
    EncodingMemo,
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
# Its oracle state has STATE entries: two area values and a four-bucket pointer.
SCHEMAS = {"hotel": DomainSchema("hotel", {"area": ["north", "south"]}, ["phone"])}


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

    def test_reads_every_id_past_an_eos(self, teacher):
        """An EOS inside the ids, as a typed ``<eos>`` gives, is read like
        any other id: one output row per id, and the rows after it move on."""
        utterance = ids(4, 5) + [EOS_ID, 7]
        enc, v_u = teacher.encode_utterance(Tape(), utterance)
        assert enc.data.shape == (len(utterance), TINY.hidden_size)
        eos = utterance.index(EOS_ID)
        assert not any(np.array_equal(row, enc.data[eos]) for row in enc.data[eos + 1:])
        assert np.array_equal(v_u.data, enc.data[-1])
        assert not np.array_equal(v_u.data, teacher.encode_utterance(Tape(), ids(4, 5))[1].data)


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


class TestStudentAction:
    def test_single_utterance_history(self, student):
        tape = Tape()
        _, action = student.encode_history(tape, [ids(4)])
        assert action.data.shape == (TINY.hidden_size,)

    def test_appending_utterance_changes_action(self, student):
        tape = Tape()
        _, short = student.encode_history(tape, [ids(4)])
        tape = Tape()
        _, longer = student.encode_history(tape, [ids(4), ids(5, 6)])
        assert not np.array_equal(short.data, longer.data)


class TestIncrementalInference:
    """A pass and the chat memo share utterance encodings, so each utterance
    is encoded only once; ``test_reference.py`` holds what they compute to
    the reference model."""

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

    def test_context_steps_once_per_new_utterance(self, episode_setup, monkeypatch):
        """A turn's history extends the previous turn's by a system and a
        user utterance, so a pass runs the context LSTM once over the last
        turn's history, one row per utterance, and reads every earlier turn
        from its steps. One packed word-encoder call encodes that history,
        the episode's distinct utterances. A second copy of the episode adds
        no step and no encoding."""
        corpus, in_vocab, out_vocab, student = episode_setup
        episode = corpus.episodes[0]
        again = Episode(episode.episode_id + "-again", episode.turns, episode.goal)
        for episodes in ([episode], [episode, again]):
            items = prepare_turns(Corpus(corpus.schemas, corpus.database, episodes), in_vocab, out_vocab)
            steps = count_context_steps(monkeypatch)
            runs = record_context_runs(monkeypatch, student)
            calls = record_word_encodes(monkeypatch)
            generated = generate_responses(student, items, out_vocab, max_len=8)
            monkeypatch.undo()
            assert runs == [[len(items[-1].history_ids)]] and steps == []
            assert calls == [items[-1].history_ids] and len(generated) == len(items)

    def test_a_cold_long_history_steps_without_recursion(self, episode_setup, monkeypatch):
        """2,000 utterances, past Python's default recursion limit of 1,000,
        stepped from zeros; then a reply's two utterances stepped from there."""
        corpus, in_vocab, out_vocab, student = episode_setup
        utterances = prepare_turns(corpus, in_vocab, out_vocab)[-1].history_ids
        history = [utterances[i % len(utterances)] for i in range(2000)]
        assert len(history) == 2000 > sys.getrecursionlimit()
        memo = EncodingMemo(student)
        steps = count_context_steps(monkeypatch)
        enc_outs, state = memo(history)
        assert len(steps) == 2000
        # A reply steps the state over the two utterances since: the reply
        # and the next user line. That is bit for bit a cold step over all.
        steps.clear()
        longer = history + utterances[:2]
        enc_outs, state = memo(longer[-2:], state)
        assert len(steps) == 2
        cold_outs, cold_state = EncodingMemo(student)(longer)
        assert np.array_equal(enc_outs, cold_outs) and all(map(np.array_equal, state, cold_state))

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
        """A pass holds all its turns' encodings at once or, in runs of
        ``capacity`` = 1 turn, each turn's only, so that every run encodes
        its own history again. ``test_reference.py`` holds the replies of
        runs of 1, 3 and 1,024 turns to the reference model's."""
        items, out_vocab, student = repeating_setup
        if capacity is not None:
            monkeypatch.setattr(models, "DECODE_ROWS", capacity)
        calls = record_word_encodes(monkeypatch)
        generated = generate_responses(student, items, out_vocab, max_len=8)
        monkeypatch.undo()
        assert len(generated) == len(items)
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
        most ENCODER_ROWS token ids, or one longer utterance each, in order.
        The encodings a pass holds are the outputs of its distinct current
        utterances only, each once. ``test_reference.py`` holds the
        encodings and replies under a small ENCODER_ROWS to the reference."""
        items, out_vocab, student = repeating_setup
        distinct = list(dict.fromkeys(u for item in items for u in item.history_ids))
        limit = max(map(len, distinct)) - 1  # the longest utterance is one call of its own
        monkeypatch.setattr(models, "ENCODER_ROWS", limit)
        outs, rows, _ = student.encode_turns(items)
        assert sorted({r for turn_rows in rows for r in turn_rows}) == list(range(len(outs)))
        current = {}
        for item, turn_rows in zip(items, rows):
            assert current.setdefault(item.user_ids, turn_rows) == turn_rows
            assert len(turn_rows) == len(item.user_ids)
        assert len(current) < len(distinct)  # some history utterance is never attended
        calls = record_word_encodes(monkeypatch)
        generate_responses(student, items, out_vocab, max_len=8)
        monkeypatch.undo()
        sizes = [sum(map(len, call)) for call in calls]
        assert all(size <= limit or len(call) == 1 for size, call in zip(sizes, calls))
        assert max(sizes) > limit and max(map(len, calls)) > 1
        assert [u for call in calls for u in call] == distinct

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
        corpus, in_vocab, out_vocab, student = episode_setup
        history = prepare_turns(corpus, in_vocab, out_vocab)[-1].history_ids
        memo = EncodingMemo(student)

        def reply(context):
            enc_outs, (action, _) = context
            return student.decode_greedy(action[None], enc_outs[None], 8)[0]

        expected = reply(memo(history))
        _, state = memo(history[:-2])

        def off_the_tape(*args, **kwargs):
            raise AssertionError("a warm reply ran a tape op")

        ops = [name for name, value in vars(Tape).items() if callable(value) and not name.startswith("_")]
        assert {"lstm_step", "lstm_sequence", "concat", "matmul"} <= set(ops)
        for name in ops:
            monkeypatch.setattr(Tape, name, off_the_tape)
        assert reply(memo(history)) == expected
        assert reply(memo(history[-2:], state)) == expected


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
    """Runs of turns bound the work of a pass; ``test_reference.py`` holds
    every reply to the reference model's."""

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

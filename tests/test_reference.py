"""The differential check: every fast path of ``mtss`` computes what the
plain model of ``reference.py`` computes, on several tiny random models and
synthetic corpora. Run it alone with ``python -m pytest tests/test_reference.py``.

Tolerances: encodings, actions, log-probabilities, teacher targets and loss
values lie within ``VALUES`` of the reference's largest magnitude. Each
parameter tensor's gradient g, taken along a random ±1 direction v, gives a
g·v within ``GRADIENTS`` of max(1, |g·v|) of the reference loss's central
difference with step ``EPS``. Replies are token-equal to the reference's, or
part from it at a step whose reference top-two logit margin is below ``TIE``
(a near tie, which rounding may flip); the check prints that margin.
"""

import dataclasses
import io
from types import SimpleNamespace

import numpy as np
import pytest

import mtss.diffnum.tape as tape_module
import reference as ref
from mtss import models, training
from mtss.cli import EXIT_OK, build_parser, cmd_chat
from mtss.corpus import Episode, build_vocab
from mtss.corpus.vocab import EOS_ID, EOS_TOKEN, PAD_TOKEN
from mtss.diffnum import Tape
from mtss.models import (EncodingMemo, ModelConfig, PreparedTurn, StudentModel, TeacherEnsemble, TeacherModel,
                         ensemble_domains, generate_responses, prepare_turns)
from mtss.synthcorpus import SynthConfig, gen_corpus
from mtss.training import TrainingConfig, distillation_data

VALUES, GRADIENTS, EPS, TIE = 1e-12, 1e-6, 1e-5, 1e-9
ALPHA1, ALPHA2 = 0.4, 0.3
MAX_LENS = (1, 8, 30)
# (synthetic corpus seed, embed size, hidden size, init scale) of each world.
WORLDS = [(0, 8, 12, 0.5), (1, 8, 16, 1.0), (2, 5, 7, 0.08)]
IDS = SimpleNamespace(decode=list)  # a vocabulary under which ``generate_responses`` returns the ids


@pytest.fixture(scope="module")
def world(request):
    """A synthetic corpus, plus a copy of its first episode whose user lines
    hold a typed ``<eos>`` after their first word, and from the second turn
    on a ``<pad>`` after that; a random student, universal teacher and
    teacher ensemble."""
    seed, embed, hidden, init = request.param
    corpus, _ = gen_corpus(SynthConfig(seed=seed, train_episodes=4, test_episodes=1, entities_per_domain=3))
    first = corpus.episodes[0]
    corpus.episodes.append(Episode("typed", [
        dataclasses.replace(turn, user=turn.user[:1] + [EOS_TOKEN, PAD_TOKEN][:k + 1] + turn.user[1:])
        for k, turn in enumerate(first.turns)], first.goal))
    in_vocab, out_vocab = build_vocab(corpus, "input"), build_vocab(corpus, "output")
    items = prepare_turns(corpus, in_vocab, out_vocab)
    sizes = (ModelConfig(embed, hidden, init), len(in_vocab), len(out_vocab))
    teachers = {domain: TeacherModel(*sizes, len(items[0].state), domain, seed=10 + i)
                for i, domain in enumerate(ensemble_domains(corpus.schemas))}
    return SimpleNamespace(corpus=corpus, in_vocab=in_vocab, out_vocab=out_vocab, items=items,
                           student=StudentModel(*sizes, seed=seed), universal=TeacherModel(*sizes, len(items[0].state)),
                           ensemble=TeacherEnsemble(teachers, teachers["general"]))


def close(got, expected, what):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape, f"{what}: shape {got.shape}, reference {expected.shape}"
    error, scale = np.abs(got - expected).max(), np.abs(expected).max()
    assert error <= VALUES * scale, f"{what}: off by {error:.3g}, largest reference magnitude {scale:.3g}"


def same_reply(got, reply, what):
    tokens, margins = reply
    if got != tokens:
        step = next(k for k, (a, b) in enumerate(zip(got + [EOS_ID], tokens + [EOS_ID])) if a != b)
        print(f"{what}: parts from the reference at step {step}, whose top-two margin is {margins[step]:.3g}")
        assert margins[step] < TIE, f"{what}: {got} != reference {tokens} at step {step}, margin {margins[step]:.3g}"


def encodings(p, item):
    """The reference's (encoder outputs, action) of the turn, for a student's or a teacher's weights ``p``."""
    if "ctx_w" in p:
        return ref.student_context(p, item.history_ids)[:2]
    return ref.teacher_action(p, item.user_ids, item.state)


def training_loss(model, tape, item, targets):
    """What ``mtss`` trains ``model`` on for the turn: a teacher's J_NLL, or a
    student's combined loss against the teacher's (probabilities, action)."""
    if isinstance(model, TeacherModel):
        return training._teacher_losses(model)(tape, 0, item)[-1]
    log_probs, action = model.respond_forced(tape, item.history_ids, item.gold_ids)
    return training.combined_loss(tape, training.nll_loss(tape, log_probs, item.gold_ids[1:]),
                                  training.kd_text_loss(tape, targets[0], log_probs),
                                  training.kd_policy_loss(tape, targets[1], action), ALPHA1, ALPHA2)


def reference_loss(p, item, targets):
    enc, action = encodings(p, item)
    log_probs = ref.forced_log_probs(p, action, enc, item.gold_ids)
    if "ctx_w" not in p:
        return ref.nll(log_probs, item.gold_ids)
    return ref.combined_loss(log_probs, action, item.gold_ids, *targets, ALPHA1, ALPHA2)


def check_training(w, monkeypatch, tmp_path):
    """The targets of ``distillation_data``; ``respond_forced`` of a student
    and a teacher; their training losses on two turns of three-utterance
    histories, the second the typed episode's, and the gradients."""
    config = TrainingConfig(alpha1=ALPHA1, alpha2=ALPHA2, epochs=1, val_fraction=0.0, model=w.student.config)
    targets = distillation_data(w.corpus, w.ensemble, w.in_vocab, w.out_vocab, config).targets
    for item, (probs, action) in zip(w.items, targets, strict=True):
        p = ref.weights(w.ensemble.teachers[item.domain])
        enc, expected = encodings(p, item)
        close(action, expected, f"target action of {item.episode_id}/{item.turn_index}")
        close(probs, np.exp(ref.forced_log_probs(p, expected, enc, item.gold_ids)),
              f"target probabilities of {item.episode_id}/{item.turn_index}")
    picked = [k for k, item in enumerate(w.items) if item.turn_index == 1][-2:]
    assert len(picked) == 2 and w.items[picked[-1]].episode_id == "typed"
    for model in (w.student, w.universal):
        p = ref.weights(model)
        for item in w.items:
            tape = Tape(record=False)
            if model is w.student:
                log_probs, action = model.respond_forced(tape, item.history_ids, item.gold_ids)
                enc_outs = model.encode_history(tape, item.history_ids)[0]
            else:
                log_probs, action = model.respond_forced(tape, item.user_ids, item.state, item.gold_ids)
                enc_outs = model.encode_utterance(tape, item.user_ids)[0]
            enc, expected = encodings(p, item)
            close(enc_outs.data, enc, f"{model.kind} encoder outputs of {item.episode_id}/{item.turn_index}")
            close(action.data, expected, f"{model.kind} action of {item.episode_id}/{item.turn_index}")
            close(log_probs.data, ref.forced_log_probs(p, expected, enc, item.gold_ids),
                  f"{model.kind} log-probabilities of {item.episode_id}/{item.turn_index}")
        for param in model.parameter_list():
            param.grad = None
        tape = Tape()
        loss = tape.add(*(training_loss(model, tape, w.items[k], targets[k]) for k in picked))
        tape.backward(loss)
        total = lambda q: sum(reference_loss(q, w.items[k], targets[k]) for k in picked)
        close(loss.item(), total(p), f"{model.kind} loss")
        rng = np.random.default_rng(0)
        for name, param in model.params.items():
            v = rng.choice([-1.0, 1.0], size=param.data.shape)
            along = float(np.sum(param.grad * v))
            plus, minus = (total({**p, name: p[name] + sign * EPS * v}) for sign in (1, -1))
            difference = float(plus - minus) / (2 * EPS)
            assert abs(along - difference) <= GRADIENTS * max(1.0, abs(along)), \
                f"{model.kind} gradient of {name} along v: {along!r}, central difference {difference!r}"


def check_passes(w, monkeypatch, tmp_path):
    """``encode_turns`` of a student and a teacher, and ``generate_responses``
    of both and of an ensemble in runs of 1, 3 and 1,024 turns, with packed
    word-encoder calls of at most 12 ids, which some utterances exceed."""
    with monkeypatch.context() as patch:
        patch.setattr(models, "ENCODER_ROWS", 12)
        for model in (w.student, w.universal, w.ensemble):
            name = getattr(model, "kind", "ensemble")
            weights = [ref.weights(w.ensemble.teachers[item.domain] if name == "ensemble" else model)
                       for item in w.items]
            expected = [encodings(p, item) for p, item in zip(weights, w.items)]
            if name != "ensemble":
                outs, rows, actions = model.encode_turns(w.items)
                for item, turn_rows, action, (enc, reference) in zip(w.items, rows, actions, expected, strict=True):
                    close(outs[turn_rows], enc, f"{name} pass encoder outputs of {item.episode_id}/{item.turn_index}")
                    close(action, reference, f"{name} pass action of {item.episode_id}/{item.turn_index}")
            replies = [ref.greedy(p, action, enc, max(MAX_LENS)) for p, (enc, action) in zip(weights, expected)]
            for decode_rows in (1, 3, 1024):
                patch.setattr(models, "DECODE_ROWS", decode_rows)
                for max_len in MAX_LENS:
                    generated = generate_responses(model, w.items, IDS, max_len)
                    for item, (tokens, margins) in zip(w.items, replies):
                        same_reply(generated[item.episode_id, item.turn_index], (tokens[:max_len], margins),
                                   f"{name} reply to {item.episode_id}/{item.turn_index} in runs of {decode_rows}")


def check_chat(w, monkeypatch, tmp_path):
    """``EncodingMemo`` stepped as chat steps it, over each episode, and an
    ``mtss chat`` session with ``/reset`` and typed ``<eos>`` lines. A
    one-turn pass over a one-utterance history encodes as the memo does,
    and a one-row ``decode_greedy`` of it answers as chat does, bit for bit."""
    student, p = w.student, ref.weights(w.student)
    memo = EncodingMemo(student)
    for item in w.items:
        if item.turn_index == 0:
            enc_outs, state = memo(item.history_ids)
        else:  # the previous turn's reply and this turn's user line
            enc_outs, state = memo(item.history_ids[-2:], state)
        enc, h, c = ref.student_context(p, item.history_ids)
        for got, expected, what in ((enc_outs, enc, "encoder outputs"), (state[0], h, "h"), (state[1], c, "c")):
            close(got, expected, f"memo {what} after {item.episode_id}/{item.turn_index}")
        if item.turn_index == 0:  # one utterance: a one-turn pass and encode_history, bit for bit
            outs, (rows,), actions = student.encode_turns([item])
            assert np.array_equal(outs[rows], enc_outs) and np.array_equal(actions[0], state[0])
            history_outs, action = student.encode_history(Tape(record=False), item.history_ids)
            assert np.array_equal(history_outs.data, enc_outs) and np.array_equal(action.data, state[0])

    lines = [" ".join(turn.user) for episode in (w.corpus.episodes[1], w.corpus.episodes[-1]) for turn in episode.turns]
    script, max_len = lines[:2] + ["/reset"] + lines, 12
    student.save(tmp_path / "student.ckpt", w.corpus.schemas, w.in_vocab, w.out_vocab, {})
    args = build_parser().parse_args(["chat", "--model", str(tmp_path / "student.ckpt"), "--max-len", str(max_len)])
    decode, replies, out = StudentModel.decode_greedy, [], io.StringIO()

    def recording(*args):
        replies.extend(decode(*args))
        return replies[-1:]

    with monkeypatch.context() as patch:
        patch.setattr(StudentModel, "decode_greedy", recording)
        assert cmd_chat(args, stdin=io.StringIO("\n".join(script) + "\n"), stdout=out) == EXIT_OK
    said, got, history = out.getvalue().splitlines(), iter(replies), []
    assert len(said) == len(script) + 1 and EOS_TOKEN in script[-1]
    for line, text in zip(script, said[1:]):
        if line == "/reset":
            assert text == "(history cleared)"
            history = []
            continue
        history.append(w.in_vocab.encode(line.split()))
        reply = next(got)
        same_reply(reply, ref.student_reply(p, history, max_len), f"chat reply to {line!r}")
        tokens = w.out_vocab.decode(reply)
        assert text == (" ".join(tokens) if tokens else "...")
        if len(history) == 1:
            item = PreparedTurn("chat", 0, "general", tuple(history[0]), [], [tuple(history[0])], None)
            outs, (rows,), actions = student.encode_turns([item])
            assert decode(student, actions, outs[rows][None], max_len) == [reply]
        history.append(w.in_vocab.encode(tokens))


@pytest.mark.parametrize("world", WORLDS, indirect=True, ids=[f"world{seed}" for seed, *_ in WORLDS])
@pytest.mark.parametrize("check", [check_training, check_passes, check_chat], ids=["training", "passes", "chat"])
def test_every_path_computes_the_reference(world, check, monkeypatch, tmp_path):
    check(world, monkeypatch, tmp_path)


def swap_gates_in_batches(cell):
    """The input and forget gate blocks swapped, in the batched decoder only."""
    def swapped(z, c_prev, gates):
        if z.ndim == 2:
            i, f, rest = np.split(z, [z.shape[1] // 4, z.shape[1] // 2], axis=1)
            z = np.hstack([f, i, rest])
        return cell(z, c_prev, gates)
    return swapped


def read_actions_early(encode_turns):
    """Each history's action read one utterance early."""
    def early(self, turns):
        shorter = [dataclasses.replace(turn, history_ids=turn.history_ids[:-1] or turn.history_ids) for turn in turns]
        return encode_turns(self, turns)[:2] + encode_turns(self, shorter)[2:]
    return early


def drop_alpha2(combined_loss):
    return lambda tape, j_nll, j_kd, j_kd_policy, alpha1, alpha2: combined_loss(tape, j_nll, j_kd, j_kd_policy,
                                                                                alpha1, 0.0)


def scale_input_gate_grad(cell_grad):
    """The input gate block of the cell's d(loss)/dz scaled by 1 + 1e-3."""
    def scaled(dh, dc, c_prev, gates, tc, dz):
        d_c_prev = cell_grad(dh, dc, c_prev, gates, tc, dz)
        dz[..., :dz.shape[-1] // 4] *= 1 + 1e-3
        return d_c_prev
    return scaled


def skip_the_reply(step):
    """The chat memo steps the context over the new line, not the previous reply before it."""
    return lambda self, utterances, state=None: step(self, utterances[-1:], state)


BREAKS = [(models, "_cell", swap_gates_in_batches), (StudentModel, "encode_turns", read_actions_early),
          (training, "combined_loss", drop_alpha2), (tape_module, "_cell_grad", scale_input_gate_grad),
          (EncodingMemo, "__call__", skip_the_reply)]


@pytest.mark.parametrize("world", WORLDS[:1], indirect=True, ids=["world0"])
@pytest.mark.parametrize("owner,name,broken", BREAKS, ids=[broken.__name__ for *_, broken in BREAKS])
def test_the_check_reports_each_break(world, owner, name, broken, monkeypatch, tmp_path):
    monkeypatch.setattr(owner, name, broken(getattr(owner, name)))
    with pytest.raises(AssertionError):
        for check in (check_chat, check_training, check_passes):
            check(world, monkeypatch, tmp_path)

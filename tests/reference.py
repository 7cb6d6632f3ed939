"""The paper's two models written the plain way, forward only, in numpy: the
reference that ``test_reference.py`` holds every fast path of ``mtss`` to.

The word encoder reads one id at a time, the student's context LSTM one
utterance at a time and the attention decoder one token at a time. Nothing
here comes from ``mtss.diffnum`` or ``mtss.models`` (``test_dependencies.py``
checks it), so no shared kernel can make the two agree by construction. A
model is given as its ``{name: array}`` weights.
"""

import numpy as np

from mtss.corpus.vocab import BOS_ID, EOS_ID


def weights(model) -> dict:
    return {name: tensor.data for name, tensor in model.params.items()}


def sigmoid(x):
    return np.exp(-np.logaddexp(0.0, -x))


def lstm_step(x, h, c, w, b):
    """One LSTM update; the gates (input, forget, cell, output) are w [x; h] + b."""
    i, f, g, o = np.split(w @ np.concatenate([x, h]) + b, 4)
    c = sigmoid(f) * c + sigmoid(i) * np.tanh(g)
    return sigmoid(o) * np.tanh(c), c


def encode(p, ids):
    """The word encoder's hidden state after each id, from zeros, one row per id."""
    h = c = np.zeros(len(p["enc_b"]) // 4)
    states = []
    for token in ids:
        h, c = lstm_step(p["embed_in"][token], h, c, p["enc_w"], p["enc_b"])
        states.append(h)
    return np.array(states)


def student_context(p, history):
    """HRED: (the last utterance's encoder states; the context LSTM's h and c
    from zeros over each utterance's last encoder state). h is the action."""
    h = c = np.zeros(len(p["ctx_b"]) // 4)
    for utterance in history:
        states = encode(p, utterance)
        h, c = lstm_step(states[-1], h, c, p["ctx_w"], p["ctx_b"])
    return states, h, c


def teacher_action(p, user_ids, state):
    """(the user utterance's encoder states, the action tanh(policy_w [v_u; state]))."""
    states = encode(p, user_ids)
    return states, np.tanh(p["policy_w"] @ np.concatenate([states[-1], state]))


def decoder_step(p, token, h, c, enc):
    """Read ``token``, attend over ``enc``; (the next token's logits, h, c)."""
    h, c = lstm_step(p["embed_out"][token], h, c, p["dec_w"], p["dec_b"])
    scores = enc @ h
    attention = np.exp(scores - scores.max())
    context = attention @ enc / attention.sum()
    return p["out_w"] @ np.tanh(p["att_w"] @ np.concatenate([h, context])) + p["out_b"], h, c


def forced_log_probs(p, action, enc, gold):
    """One log-softmax row per gold token after BOS, each given the gold
    prefix, decoding from h = action and c = 0."""
    h, c, rows = action, np.zeros_like(action), []
    for token in gold[:-1]:
        logits, h, c = decoder_step(p, token, h, c, enc)
        rows.append(logits - logits.max() - np.log(np.exp(logits - logits.max()).sum()))
    return np.array(rows)


def greedy(p, action, enc, max_len):
    """(the greedy reply from BOS, which stops at EOS or after ``max_len``
    tokens; the top-two logit margin of each step, the EOS step included)."""
    h, c, token, tokens, margins = action, np.zeros_like(action), BOS_ID, [], []
    for _ in range(max_len):
        logits, h, c = decoder_step(p, token, h, c, enc)
        top = np.sort(logits)
        margins.append(top[-1] - top[-2])
        token = int(np.argmax(logits))
        if token == EOS_ID:
            break
        tokens.append(token)
    return tokens, margins


def student_reply(p, history, max_len):
    enc, h, _ = student_context(p, history)
    return greedy(p, h, enc, max_len)


def nll(log_probs, gold):
    """J_NLL, the summed negative log-likelihood of the gold tokens after BOS."""
    return -sum(row[token] for row, token in zip(log_probs, gold[1:]))


def combined_loss(log_probs, action, gold, teacher_probs, teacher_action, alpha1, alpha2):
    """J_NLL + alpha1 J_KD + alpha2 J_KD_pi: J_KD is the cross entropy from
    the teacher's distributions, J_KD_pi the squared distance between actions."""
    kd = -np.sum(teacher_probs * log_probs)
    return nll(log_probs, gold) + alpha1 * kd + alpha2 * np.sum((action - teacher_action) ** 2)

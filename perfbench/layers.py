"""Which public mtss calls the traced run wraps, and the per-layer metrics
derived from their spans.

Span names are ``<layer>.<call>``; the layers are the repo's modules.
"""

from __future__ import annotations

from pathlib import Path

from spans import Tracer


def _file_bytes(args, result) -> int:
    return Path(args[0]).stat().st_size


def install(tracer: Tracer) -> None:
    """Wrap every call the per-layer metrics read. Import mtss before this."""
    from mtss import cli, metrics, models, synthcorpus, training
    from mtss.corpus import delex, io, state
    from mtss.diffnum import checkpoint, optim, tape

    pm, pf = tracer.patch_method, tracer.patch_function
    pm(tape.Tape, "backward", "tape.backward", lambda a, r: len(a[0]))
    pm(tape.Tape, "lstm_sequence", "tape.lstm_sequence", lambda a, r: a[1].data.shape[0])
    pm(tape.Tape, "lstm_step", "tape.lstm_step")
    pm(tape.Tape, "attn_decoder_sequence", "tape.attn_decoder_sequence")
    pm(optim.Adam, "step", "optim.adam_step", lambda a, r: sum(p.data.size for p in a[0].params))
    pm(models._SeqModel, "encode_utterance", "models.encode_utterance")
    pm(models._SeqModel, "decode_greedy", "models.decode_greedy", lambda a, r: len(r))
    pm(models.StudentModel, "respond_forced", "models.student_forward")
    pm(models.TeacherModel, "respond_forced", "models.teacher_forward",
       lambda a, r: r[0].data.nbytes + r[1].data.nbytes)
    pf(models, "generate_responses", "models.generate_responses")
    pf(metrics, "score_corpus", "metrics.score_corpus")
    pf(metrics, "bleu4", "metrics.bleu4")
    pm(state.BeliefLayout, "build", "corpus.state.belief")
    pf(state, "kb_pointer_vector", "corpus.state.kb_pointer")
    for name in ("save_corpus", "load_corpus", "save_vocab", "load_vocab"):
        pf(io, name, f"corpus.io.{name}")
    pf(synthcorpus, "gen_corpus", "synthcorpus.gen_corpus")
    pf(checkpoint, "save_checkpoint", "checkpoint.save", _file_bytes)
    pf(checkpoint, "load_checkpoint", "checkpoint.load", _file_bytes)
    pm(delex.Delexicalizer, "with_matches", "corpus.delex")
    pf(cli, "cmd_prepare", "cli.prepare")
    pf(cli, "cmd_train_teachers", "cli.train_teachers")
    pf(cli, "cmd_train_student", "cli.train_student")
    pf(cli, "cmd_evaluate", "cli.evaluate")
    pf(cli, "cmd_chat", "cli.chat")
    pf(cli, "lexicalize", "cli.lexicalize")


# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("tape.backward_s", "s"), ("tape.backward.calls", "count"), ("tape.entries_per_backward", "count"),
    ("optim.adam_step_s", "s"), ("optim.adam_step.calls", "count"), ("optim.params", "count"),
    ("tape.attn_decoder_sequence_s", "s"), ("tape.attn_decoder_sequence.calls", "count"),
    ("models.student_forward_s", "s"),
    ("tape.lstm_sequence_s", "s"), ("tape.lstm_sequence.calls", "count"),
    ("tape.lstm_sequence.steps", "count"),
    ("models.encode_utterance_s", "s"), ("models.encode_utterance.calls", "count"),
    ("models.utterances_per_turn", "ratio"),
    ("tape.lstm_step_s", "s"), ("tape.lstm_step.calls", "count"),
    ("models.decode_greedy_s", "s"), ("models.decode_greedy.calls", "count"),
    ("models.decode_greedy.tokens", "count"), ("models.generate_responses_s", "s"),
    ("training.teacher_targets_s", "s"), ("training.teacher_targets.calls", "count"),
    ("training.teacher_targets.bytes", "bytes"), ("training.teacher_cache.hit_ratio", "ratio"),
    ("training.validation_s", "s"),
    ("metrics.score_corpus_s", "s"), ("metrics.bleu4_s", "s"),
    ("corpus.state_s", "s"), ("corpus.io_s", "s"), ("synthcorpus.gen_corpus_s", "s"),
    ("checkpoint.save_s", "s"), ("checkpoint.load_s", "s"), ("checkpoint.bytes", "bytes"),
    ("cli.prepare_s", "s"), ("cli.train_teachers_s", "s"), ("cli.train_student_s", "s"),
    ("cli.evaluate_s", "s"), ("cli.chat.delex_s", "s"), ("cli.chat.lexicalize_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"), ("trace.overhead_pct", "%"),
]

# Inference spans that run inside a training command are validation (teacher
# checkpoint selection, the student's per-epoch decode, the teacher report).
_VALIDATION = ("models.generate_responses", "metrics.score_corpus",
               "models.encode_utterance", "models.decode_greedy")
_TRAINING_COMMANDS = ("cli.train_teachers", "cli.train_student")


def per_layer_values(tracer: Tracer) -> dict[str, float]:
    """Every PER_LAYER value except the overhead pair, from the spans."""
    table = tracer.summary()

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})

    values: dict[str, float] = {}
    for span in ("tape.backward", "optim.adam_step", "tape.attn_decoder_sequence", "tape.lstm_sequence",
                 "models.encode_utterance", "tape.lstm_step", "models.decode_greedy"):
        values[f"{span}_s"] = row(span)["total_s"]
        values[f"{span}.calls"] = row(span)["calls"]
    calls = max(1, row("tape.backward")["calls"])
    values["tape.entries_per_backward"] = row("tape.backward")["work"] / calls
    values["optim.params"] = row("optim.adam_step")["work"] / max(1, row("optim.adam_step")["calls"])
    values["tape.lstm_sequence.steps"] = row("tape.lstm_sequence")["work"]
    values["models.decode_greedy.tokens"] = row("models.decode_greedy")["work"]
    values["models.student_forward_s"] = row("models.student_forward")["total_s"]
    values["models.generate_responses_s"] = row("models.generate_responses")["total_s"]
    turns = (row("models.student_forward")["calls"] + row("models.teacher_forward")["calls"]
             + row("models.decode_greedy")["calls"])
    values["models.utterances_per_turn"] = row("models.encode_utterance")["calls"] / max(1, turns)

    target_calls, target_s, target_bytes = tracer.under("models.teacher_forward", "cli.train_student")
    steps, _, _ = tracer.under("models.student_forward", "cli.train_student")
    values["training.teacher_targets_s"] = target_s
    values["training.teacher_targets.calls"] = target_calls
    values["training.teacher_targets.bytes"] = target_bytes
    values["training.teacher_cache.hit_ratio"] = 1.0 - target_calls / steps if steps else 0.0
    values["training.validation_s"] = sum(
        tracer.under(name, parent)[1] for name in _VALIDATION for parent in _TRAINING_COMMANDS
    )

    values["metrics.score_corpus_s"] = row("metrics.score_corpus")["total_s"]
    values["metrics.bleu4_s"] = row("metrics.bleu4")["total_s"]
    # Self time, so a state helper called inside another is not counted twice.
    values["corpus.state_s"] = sum(r["self_s"] for n, r in table.items() if n.startswith("corpus.state."))
    values["corpus.io_s"] = sum(r["total_s"] for n, r in table.items() if n.startswith("corpus.io."))
    values["synthcorpus.gen_corpus_s"] = row("synthcorpus.gen_corpus")["total_s"]
    values["checkpoint.save_s"] = row("checkpoint.save")["total_s"]
    values["checkpoint.load_s"] = row("checkpoint.load")["total_s"]
    values["checkpoint.bytes"] = row("checkpoint.save")["work"] + row("checkpoint.load")["work"]
    for command in ("prepare", "train_teachers", "train_student", "evaluate"):
        values[f"cli.{command}_s"] = row(f"cli.{command}")["total_s"]
    values["cli.chat.delex_s"] = tracer.under("corpus.delex", "cli.chat")[1]
    values["cli.chat.lexicalize_s"] = row("cli.lexicalize")["total_s"]
    values["trace.spans"] = len(tracer.spans)
    return values

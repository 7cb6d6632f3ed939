"""Operator entry point: prepare data, train teachers and students, evaluate,
sweep distillation weights, and chat with a trained student.

Exit codes: 0 success, 1 usage error, 2 data error, 3 training divergence,
130 interrupted (Ctrl-C). Every artifact-producing command writes a run
manifest next to its outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from mtss.corpus import (
    GENERAL_DOMAIN,
    Corpus,
    CorpusError,
    Delexicalizer,
    Vocabulary,
    build_vocab,
    load_corpus,
    load_schemas_and_database,
    load_vocab,
    query_db,
    read_input,
    read_multiwoz,
    save_corpus,
    save_vocab,
    schema_hash,
)
from mtss.corpus.delex import split_placeholder
from mtss.diffnum import CheckpointError, DivergenceError
from mtss.metrics import MetricReport, score_corpus
from mtss.models import (EncodingMemo, TeacherEnsemble, ensemble_domains, generate_responses, load_model,
                         prepare_turns)
from mtss.synthcorpus import SynthConfig, gen_corpus
from mtss.training import (
    TrainingConfig,
    TrainingDivergenceError,
    distillation_data,
    evaluate_model,
    fit_student,
    train_teacher_ensemble,
)

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_DIVERGED, EXIT_INTERRUPTED = 0, 1, 2, 3, 130

# Table layout of the nine distillation-weight cells swept by `mtss sweep`.
SWEEP_GRID = [
    (0.01, 0.005),
    (0.005, 0.01),
    (0.005, 0.005),
    (0.0025, 0.005),
    (0.01, 0.0),
    (0.005, 0.0),
    (0.0, 0.01),
    (0.0, 0.005),
    (0.0, 0.0),
]


class UsageError(ValueError):
    pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def write_manifest(out_dir: Path, command: str, config: dict, seed: int | None,
                   inputs: list[Path], outputs: list[Path], started: float) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_time_seconds": time.monotonic() - started,
    }
    path = out_dir / f"{command}-manifest.json"
    path.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return path


def _read_config_file(path: str, what: str, check) -> dict:
    """The JSON object in a config file, which ``check`` accepts on its own;
    any failure to read, parse or check the file is a usage error naming it.
    """
    def parse(text: str) -> dict:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
        check(doc)
        return doc

    try:
        return read_input(path, parse)
    except CorpusError as exc:
        raise UsageError(f"{what} file {exc}") from None


def _load_training_config(args) -> TrainingConfig:
    doc = (_read_config_file(args.config, "training config", TrainingConfig.from_dict)
           if getattr(args, "config", None) else {})
    for key in ("alpha1", "alpha2", "seed", "epochs", "lr", "grad_clip"):
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = value
    try:
        return TrainingConfig.from_dict(doc)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad training config: {exc}") from None


def _load_synth_config(args) -> SynthConfig:
    doc = (_read_config_file(args.synth_config, "synth config", lambda doc: SynthConfig(**doc))
           if args.synth_config else {})
    if args.seed is not None:
        doc["seed"] = args.seed
    try:
        return SynthConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad synth config: {exc}") from None


def _max_len(args) -> int:
    if args.max_len < 1:
        raise UsageError(f"--max-len must be at least 1, got {args.max_len}")
    return args.max_len


def _load_split(data_dir: Path, split: str) -> Corpus:
    """A prepared split; one with no episodes is a data error, since no
    command can train on it or score it."""
    path = data_dir / f"corpus_{split}.json"
    corpus = load_corpus(path)
    if not corpus.episodes:
        raise CorpusError(f"{path}: the {split} split has no episodes")
    return corpus


def _load_prepared(data_dir: Path) -> tuple[Corpus, Vocabulary, Vocabulary]:
    """The training split and both vocabularies of a prepared directory."""
    return (_load_split(data_dir, "train"), load_vocab(data_dir / "vocab_in.json"),
            load_vocab(data_dir / "vocab_out.json"))


# -- prepare -----------------------------------------------------------------------


def _turns_per_domain(corpus: Corpus) -> dict[str, int]:
    """Turn counts by domain tag: every schema domain in schema order, then
    the generic one, zeros included."""
    counts = dict.fromkeys([*corpus.schemas, GENERAL_DOMAIN], 0)
    for episode in corpus.episodes:
        for turn in episode.turns:
            counts[turn.domain] += 1
    return counts


def cmd_prepare(args) -> int:
    started = time.monotonic()
    if args.data:
        unread = {"--synth-config": args.synth_config, "--seed": args.seed}
    else:
        unread = {"--schemas": args.schemas, "--database": args.database, "--test-list": args.test_list}
    for flag, value in unread.items():
        if value is not None:
            raise UsageError(f"prepare {'with' if args.data else 'without'} --data does not read {flag}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs: list[Path] = []

    if args.data:
        if not (args.schemas and args.database):
            raise UsageError("--data needs --schemas and --database corpus-format files")
        data_path, schema_path = Path(args.data), Path(args.schemas)
        database_path = Path(args.database)
        inputs += [data_path, schema_path, database_path]
        schemas, database = load_schemas_and_database(schema_path, database_path)
        test_ids: set[str] = set()
        if args.test_list:
            test_ids = read_input(args.test_list, lambda text: set(text.split()))
            inputs.append(Path(args.test_list))
        train, test, report = read_multiwoz(data_path, schemas, database, test_ids)
        synth_doc, seed = None, None
    else:
        synth = _load_synth_config(args)
        if args.synth_config:
            inputs.append(Path(args.synth_config))
        train, test = gen_corpus(synth)
        report = {}
        synth_doc, seed = synth.to_dict(), synth.seed

    counts = {"train": _turns_per_domain(train), "test": _turns_per_domain(test)}
    in_vocab = build_vocab(train, "input")
    out_vocab = build_vocab(train, "output")

    save_corpus(train, out_dir / "corpus_train.json")
    save_corpus(test, out_dir / "corpus_test.json")
    save_vocab(in_vocab, out_dir / "vocab_in.json")
    save_vocab(out_vocab, out_dir / "vocab_out.json")
    report_doc = {
        "turns_per_domain": counts,
        "episodes": {"train": len(train.episodes), "test": len(test.episodes)},
        "vocab_sizes": {"input": len(in_vocab), "output": len(out_vocab)},
        "schema_hash": schema_hash(train.schemas),
        "synth_config": synth_doc,
        **report,
    }
    (out_dir / "split_report.json").write_text(json.dumps(report_doc, indent=1), encoding="utf-8")

    print(f"{'domain':<14} {'train':>8} {'test':>8}")
    for domain in sorted(counts["train"]):
        print(f"{domain:<14} {counts['train'][domain]:>8} {counts['test'].get(domain, 0):>8}")
    outputs = [out_dir / name for name in
               ("corpus_train.json", "corpus_test.json", "vocab_in.json", "vocab_out.json",
                "split_report.json")]
    write_manifest(out_dir, "prepare", {"synth": synth_doc}, seed, inputs, outputs, started)
    return EXIT_OK


# -- teacher training -----------------------------------------------------------------


def cmd_train_teachers(args) -> int:
    started = time.monotonic()
    data_dir, out_dir = Path(args.data), Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    train, in_vocab, out_vocab = _load_prepared(data_dir)
    test = _load_split(data_dir, "test")
    config = _load_training_config(args)

    log_path = out_dir / "teacher_log.jsonl"
    log_path.write_text("")
    ensemble, _ = train_teacher_ensemble(train, in_vocab, out_vocab, config, log_path)

    outputs = [out_dir / "universal.ckpt"] + [out_dir / f"teacher_{d}.ckpt" for d in ensemble.teachers]
    for path, teacher in zip(outputs, [ensemble.universal, *ensemble.teachers.values()]):
        teacher.save(path, train.schemas, in_vocab, out_vocab, config.to_dict())

    rows = _teacher_report(ensemble, test, in_vocab, out_vocab, config.max_decode_len)
    (out_dir / "teacher_report.json").write_text(json.dumps(rows, indent=1), encoding="utf-8")
    outputs.append(out_dir / "teacher_report.json")
    print(f"{'domain':<14} {'uni BLEU':>9} {'uni ER':>7} {'ind BLEU':>9} {'ind ER':>7}")
    for domain in sorted(rows):
        r = rows[domain]

        def fmt(v):
            return "    -" if v is None else f"{v:5.1f}"

        print(f"{domain:<14} {fmt(r['universal']['bleu4']):>9} {fmt(r['universal']['entity_recall']):>7}"
              f" {fmt(r['individual']['bleu4']):>9} {fmt(r['individual']['entity_recall']):>7}")
    write_manifest(out_dir, "train-teachers", config.to_dict(), config.seed,
                   [data_dir / "corpus_train.json"], outputs, started)
    return EXIT_OK


def _scores(report: MetricReport, domain: str) -> dict:
    """BLEU and Entity Recall (in %) of one domain's turns; None where no turn carries the domain."""
    m = report.per_domain.get(domain)
    if m is None or not m.turns:
        return {"bleu4": None, "entity_recall": None}
    return {"bleu4": m.bleu4, "entity_recall": None if m.entity_recall is None else 100.0 * m.entity_recall}


def _teacher_report(ensemble: TeacherEnsemble, test: Corpus, in_vocab, out_vocab, max_len) -> dict:
    """Per-domain BLEU and Entity Recall of the universal teacher and of the
    individual teachers; the test turns are prepared once and decoded once by each."""
    items = prepare_turns(test, in_vocab, out_vocab)
    universal = score_corpus(test, generate_responses(ensemble.universal, items, out_vocab, max_len))
    individual = score_corpus(test, generate_responses(ensemble, items, out_vocab, max_len))
    return {domain: {"universal": _scores(universal, domain), "individual": _scores(individual, domain)}
            for domain in ensemble.teachers}


# -- student training -----------------------------------------------------------------


def load_ensemble(teacher_dir: Path, schemas: dict, in_vocab: Vocabulary, out_vocab: Vocabulary,
                  config: TrainingConfig) -> TeacherEnsemble:
    """The teachers in ``teacher_dir``, each file judged once: trained on the
    given schemas and vocabularies, shaped like the universal teacher, and
    the one teacher of a domain of ``ensemble_domains(schemas)``; then every
    such domain must have a teacher. A student that distils the teachers'
    actions (alpha2 > 0, with epochs to train) must have their hidden size,
    or the config is a usage error."""
    def load(path: Path):
        teacher, teacher_in, teacher_out = load_model(path, "teacher", schemas)
        if (teacher_in.tokens, teacher_out.tokens) != (in_vocab.tokens, out_vocab.tokens):
            raise CheckpointError(f"{path}: teacher was trained on other vocabularies than the data's")
        return teacher

    universal = load(teacher_dir / "universal.ckpt")
    domains = ensemble_domains(schemas)
    teachers = {}
    for path in sorted(teacher_dir.glob("teacher_*.ckpt")):
        teacher = load(path)
        if teacher.domain not in domains:
            raise CheckpointError(f"{path}: teacher for domain {teacher.domain!r}, which is not in the schemas "
                                  f"or {GENERAL_DOMAIN!r}")
        if teacher.domain in teachers:
            raise CheckpointError(f"{path}: a second teacher for domain {teacher.domain!r}")
        for name, p in teacher.params.items():
            expected = universal.params[name].data.shape
            if p.data.shape != expected:
                raise CheckpointError(f"{path}: parameter {name!r} has shape {p.data.shape}, "
                                      f"the universal teacher's {expected}")
        teachers[teacher.domain] = teacher
    missing = [domain for domain in domains if domain not in teachers]
    if missing:
        raise CheckpointError(f"{teacher_dir}: no teacher for domain {missing[0]!r}")
    hidden = universal.config.hidden_size
    if config.alpha2 > 0 and config.epochs > 0 and config.model.hidden_size != hidden:
        raise UsageError(f"model.hidden_size is {config.model.hidden_size}, but the teachers in {teacher_dir} "
                         f"have {hidden}; with alpha2 > 0 the student's action must match theirs")
    return TeacherEnsemble(teachers, universal)


def _train_and_save(data_dir: Path, teacher_dir: Path, config: TrainingConfig, path: Path,
                   log_path: Path | None = None):
    """Distil the teachers into a student on the prepared training split and
    save it to ``path``; returns (student, epoch stats, in_vocab, out_vocab)."""
    train, in_vocab, out_vocab = _load_prepared(data_dir)
    # The ensemble is a temporary, freed once every turn's targets are
    # computed, so training holds only the student and its optimizer; a
    # local name for it would keep it alive until this function returns.
    data = distillation_data(train, load_ensemble(teacher_dir, train.schemas, in_vocab, out_vocab, config),
                             in_vocab, out_vocab, config)
    student, stats = fit_student(data, in_vocab, out_vocab, config, log_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    student.save(path, train.schemas, in_vocab, out_vocab, config.to_dict())
    return student, stats, in_vocab, out_vocab


def cmd_train_student(args) -> int:
    started = time.monotonic()
    data_dir, teacher_dir, out_dir = Path(args.data), Path(args.teachers), Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _load_training_config(args)
    log_path = out_dir / "student_log.jsonl"
    log_path.write_text("")
    student_path = out_dir / "student.ckpt"
    _, stats, _, _ = _train_and_save(data_dir, teacher_dir, config, student_path, log_path)
    last = stats[-1] if stats else None
    if last:
        print(
            f"epoch {last.epoch}: nll={last.nll:.4f} kd_text={last.kd_text:.4f} "
            f"kd_policy={last.kd_policy:.4f} total={last.total:.4f}"
        )
    write_manifest(out_dir, "train-student", config.to_dict(), config.seed,
                   [data_dir / "corpus_train.json"], [student_path, log_path], started)
    return EXIT_OK


# -- evaluation -----------------------------------------------------------------------


def _report_outputs(report: MetricReport, out_dir: Path | None, generated):
    print(report.format_table())
    if out_dir is None:
        return []
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=1), encoding="utf-8")
    generated_path = out_dir / "generated.jsonl"
    with open(generated_path, "w", encoding="utf-8") as fh:
        for (episode_id, turn_index) in sorted(generated):
            fh.write(json.dumps({
                "episode": episode_id,
                "turn": turn_index,
                "response": " ".join(generated[(episode_id, turn_index)]),
            }) + "\n")
    return [report_path, generated_path]


def _load_generations(path: Path) -> dict[tuple[str, int], list[str]]:
    """One JSON object per line: "episode" a string, "turn" an integer of at
    least 0 (not a bool) and "response" a string, each (episode, turn) once."""
    generated = {}
    for number, line in enumerate(read_input(path, str.splitlines), 1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            episode, turn, response = doc["episode"], doc["turn"], doc["response"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"{path}:{number}: malformed generations line ({exc!r})") from None
        if not isinstance(episode, str):
            problem = f'"episode" must be a string, got {episode!r}'
        elif isinstance(turn, bool) or not isinstance(turn, int) or turn < 0:
            problem = f'"turn" must be an integer of at least 0, got {turn!r}'
        elif not isinstance(response, str):
            problem = f'"response" must be a string, got {response!r}'
        elif (episode, turn) in generated:
            problem = f"episode {episode!r} turn {turn} appears twice"
        else:
            generated[(episode, turn)] = response.split()
            continue
        raise CorpusError(f"{path}:{number}: {problem}")
    return generated


def cmd_evaluate(args) -> int:
    started = time.monotonic()
    if args.model and args.generations:
        raise UsageError("evaluate takes --model or --generations, not both")
    max_len = _max_len(args)
    data_dir = Path(args.data)
    corpus = _load_split(data_dir, args.split)
    out_dir = Path(args.out) if args.out else None

    if args.generations:
        generated = _load_generations(Path(args.generations))
        report = score_corpus(corpus, generated)
        inputs = [Path(args.generations)]
        config_doc = {"generations": str(args.generations)}
    else:
        if not args.model:
            raise UsageError("evaluate needs --model or --generations")
        model, in_vocab, out_vocab = load_model(args.model, schemas=corpus.schemas)
        report, generated = evaluate_model(model, corpus, in_vocab, out_vocab, max_len)
        inputs = [Path(args.model)]
        config_doc = {"model": str(args.model), "split": args.split}
    outputs = _report_outputs(report, out_dir, generated)
    if out_dir:
        write_manifest(out_dir, "evaluate", config_doc, None,
                       inputs + [data_dir / f"corpus_{args.split}.json"], outputs, started)
    return EXIT_OK


# -- sweep ------------------------------------------------------------------------------


def worker_count() -> int:
    """Sweep process cap from MTSS_THREADS, a positive integer; defaults to sequential."""
    value = os.environ.get("MTSS_THREADS", "1")
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise UsageError(f"MTSS_THREADS must be a positive integer, got {value!r}")
    return count


def _run_sweep_cell(packed) -> dict:
    data_dir, teacher_dir, out_dir, config_doc, alpha1, alpha2 = packed
    config = TrainingConfig.from_dict({**config_doc, "alpha1": alpha1, "alpha2": alpha2})
    path = Path(out_dir) / f"cell_a1_{alpha1}_a2_{alpha2}" / "student.ckpt"
    student, _, in_vocab, out_vocab = _train_and_save(Path(data_dir), Path(teacher_dir), config, path)
    test = _load_split(Path(data_dir), "test")
    report, _ = evaluate_model(student, test, in_vocab, out_vocab, config.max_decode_len)
    return {
        "alpha1": alpha1,
        "alpha2": alpha2,
        "bleu4": report.bleu4,
        "inform": report.inform,
        "success": report.success,
        "checkpoint": str(path),
    }


def cmd_sweep(args) -> int:
    started = time.monotonic()
    threads = worker_count()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _load_training_config(args)
    jobs = [
        (args.data, args.teachers, str(out_dir), config.to_dict(), a1, a2)
        for a1, a2 in SWEEP_GRID
    ]
    workers = min(threads, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_sweep_cell, jobs))
    else:
        rows = [_run_sweep_cell(job) for job in jobs]
    (out_dir / "sweep_results.json").write_text(json.dumps(rows, indent=1), encoding="utf-8")
    print(f"{'alpha1':>8} {'alpha2':>8} {'BLEU':>6} {'Inform':>7} {'Success':>8}")
    for row in rows:
        print(f"{row['alpha1']:>8} {row['alpha2']:>8} {row['bleu4']:>6.1f} "
              f"{100 * row['inform']:>7.1f} {100 * row['success']:>8.1f}")
    write_manifest(out_dir, "sweep", config.to_dict(), config.seed,
                   [Path(args.data) / "corpus_train.json"],
                   [out_dir / "sweep_results.json"], started)
    return EXIT_OK


# -- chat --------------------------------------------------------------------------------


def lexicalize(tokens: list[str], corpus: Corpus, belief: dict) -> list[str]:
    """Fill placeholders from the top database match under the current belief."""
    out = []
    for token in tokens:
        parsed = split_placeholder(token, corpus.schemas)
        if parsed is None:
            out.append(token)
            continue
        domain, slot = parsed
        constraints = {
            s: v for s, v in belief.get(domain, {}).items()
            if s in corpus.schemas[domain].informable
        }
        matches = query_db(corpus.database, domain, constraints) or corpus.database.records[domain]
        if matches and slot in matches[0].values:
            out.append(matches[0].values[slot])
        else:
            out.append(token)
    return out


def cmd_chat(args, stdin=None, stdout=None) -> int:
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    max_len = _max_len(args)
    if args.lexicalize and not args.data:
        raise UsageError("--lexicalize needs --data pointing at a corpus file")
    corpus = load_corpus(args.data) if args.data else None
    student, in_vocab, out_vocab = load_model(args.model, "student", corpus.schemas if corpus else None)
    delex = Delexicalizer(corpus.schemas, corpus.database) if corpus else None

    def say(text: str) -> None:
        print(text, file=stdout)

    say("type a message; /reset clears history, /quit exits")
    # One encoding memo for the whole process, kept across /reset, so a new
    # session reuses the encodings of utterances that earlier ones met. The
    # session's state is the context LSTM's (h, c) after its last step and
    # the utterances said since (the last reply), so each reply steps the
    # context over that reply and its own line only.
    memo = EncodingMemo(student)
    state, unread, belief = None, [], {}
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        if line == "/quit":
            break
        if line == "/reset":
            state, unread, belief = None, [], {}
            say("(history cleared)")
            continue
        if delex is not None:
            tokens, matches = delex.with_matches(line)
            for tag, value in matches:
                domain, slot = split_placeholder(tag, corpus.schemas) or (None, None)
                if domain is not None and slot in corpus.schemas[domain].informable:
                    belief.setdefault(domain, {})[slot] = value
        else:
            tokens = line.lower().split()
        try:
            enc_outs, (action, cell) = memo(unread + [in_vocab.encode(tokens)], state)
            reply = out_vocab.decode(student.decode_greedy(action[None], enc_outs[None], max_len)[0])
            state, unread = (action, cell), [in_vocab.encode(reply)]
        except Exception:  # decode failure: apologize, keep the session's state
            say("sorry , i could not produce a response .")
            continue
        if args.lexicalize:
            reply = lexicalize(reply, corpus, belief)
        say(" ".join(reply) if reply else "...")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtss",
        description="Multi-teacher distillation for multi-domain dialogue",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="normalize or synthesize a corpus, build vocabularies")
    p.add_argument("--synth-config", help="JSON file with synthetic generator settings")
    p.add_argument("--data", help="MultiWOZ-style data.json to normalize")
    p.add_argument("--schemas", help="corpus-format file providing schemas")
    p.add_argument("--database", help="corpus-format file providing the database")
    p.add_argument("--test-list", help="file of dialogue ids for the test split")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prepare)

    def add_training_flags(p):
        p.add_argument("--config", help="JSON training config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--grad-clip", dest="grad_clip", type=float, default=None)

    p = sub.add_parser("train-teachers", help="train the universal teacher and per-domain teachers")
    p.add_argument("--data", required=True, help="directory produced by prepare")
    p.add_argument("--out", required=True)
    add_training_flags(p)
    p.set_defaults(func=cmd_train_teachers)

    p = sub.add_parser("train-student", help="distill the teacher ensemble into a student")
    p.add_argument("--data", required=True)
    p.add_argument("--teachers", required=True, help="directory with teacher checkpoints")
    p.add_argument("--out", required=True)
    p.add_argument("--alpha1", type=float, default=None)
    p.add_argument("--alpha2", type=float, default=None)
    add_training_flags(p)
    p.set_defaults(func=cmd_train_student)

    p = sub.add_parser("evaluate", help="generate responses for a corpus and score them")
    p.add_argument("--model", help="teacher or student checkpoint")
    p.add_argument("--generations", help="score an existing line-delimited generations file")
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--max-len", dest="max_len", type=int, default=30)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run the nine-cell distillation weight grid")
    p.add_argument("--data", required=True)
    p.add_argument("--teachers", required=True)
    p.add_argument("--out", required=True)
    add_training_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("chat", help="interactive terminal session with a student")
    p.add_argument("--model", required=True)
    p.add_argument("--data", help="corpus file for delexicalization and lexicalization")
    p.add_argument("--lexicalize", action="store_true")
    p.add_argument("--max-len", dest="max_len", type=int, default=30)
    p.set_defaults(func=cmd_chat)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergenceError, DivergenceError) as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands:

* ``profile``   — run the EDA substrate on a dataflow program and print
  its ``<Power, Area, FF, Cycles>`` vector and RTL features.
* ``analyze``   — validate a program, classify operators (Class I/II),
  and print the dependence summary and transform-legality matrix from
  the static analysis layer (``--json`` for the machine form;
  ``--suggest`` appends legal, profitability-ranked rewrites).
* ``rewrite``   — ``apply``/``enumerate`` legality-gated loop
  transformations (interchange, tiling, fusion, distribution,
  unroll-and-jam) with interpreter bit-parity verification.
* ``synthesize``— generate a profiled training dataset to JSONL.
* ``train``     — train a cost model on a JSONL dataset and save it.
* ``predict``   — load a trained model and predict a program's costs.
* ``calibrate`` — run the DPO dynamic-calibration loop on a program
  against the profiler, sweeping a runtime input.
* ``explore``   — rank mapping candidates (unroll × memory delay) with
  a trained model and ground-truth the finalists.
* ``workloads`` — list the bundled benchmark suites with Table-2 stats.
* ``serve``     — run the persistent prediction service (warm models,
  micro-batching, tiered caches) on an HTTP port.
* ``campaign``  — ``run``/``resume``/``report`` resumable
  multi-objective search campaigns (workloads × rewrites × hardware ×
  strategies × objectives) with a journaled evaluation checkpoint;
  ``--timeline FILE`` writes a Perfetto-loadable sidecar.
* ``stats``     — print the unified telemetry snapshot (local process
  or a running server's ``/metrics`` via ``--remote``); ``--profile``
  adds a span-attributed CPU/memory profile window.
* ``bench``     — ``run``/``list``/``log``/``trend`` the registered
  benchmark suites through :mod:`repro.obs`: one harness over every
  ``scripts/bench_*.py``, an append-only ``BENCH_HISTORY.jsonl``
  ledger, and a statistical regression sentinel over the trajectory.

Example::

    python -m repro profile examples_gemm.c --data n=8 --mem-delay 5
    python -m repro synthesize --out dataset.jsonl --ast 10 --dataflow 20
    python -m repro train dataset.jsonl --out model.npz --epochs 5
    python -m repro predict examples_gemm.c --model model.npz --data n=8
    python -m repro serve --model model.npz --port 8173
    python -m repro predict examples_gemm.c --remote http://127.0.0.1:8173
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .hls import HardwareParams
from .lang import classify_operators, count_dynamic_parameters, parse
from .profiler import Profiler


def _parse_data(items: list[str]) -> dict:
    """Parse ``name=value`` runtime-input arguments."""
    data = {}
    for item in items:
        if "=" not in item:
            raise SystemExit(f"error: --data expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        try:
            data[name] = int(value)
        except ValueError:
            try:
                data[name] = float(value)
            except ValueError:
                raise SystemExit(
                    f"error: --data value for {name!r} must be numeric, "
                    f"got {value!r}"
                ) from None
    return data


def _params_from_args(args: argparse.Namespace) -> HardwareParams:
    return HardwareParams(
        mem_read_delay=args.mem_delay,
        mem_write_delay=args.mem_delay,
        pe_count=args.pe_count,
        memory_ports=args.memory_ports,
    )


def _read_program(path: str) -> str:
    from .api import CodecError, read_program

    try:
        return read_program(path)
    except CodecError as exc:
        raise SystemExit(f"error: {exc}") from None


def cmd_profile(args: argparse.Namespace) -> int:
    from .api import ProfileJob, Session
    from .errors import ReproError

    paths: list[str] = args.program
    data = _parse_data(args.data) or None
    if args.batch or len(paths) > 1:
        if args.per_op:
            raise SystemExit("--per-op is not available with --batch")
        return _profile_batch(paths, data, args)
    source = _read_program(paths[0])
    if args.per_op:
        from .attribution import attribute

        report = attribute(source, params=_params_from_args(args), data=data)
        print(report.table())
        print(json.dumps(report.totals.as_dict(), indent=2))
        return 0
    session = Session()
    try:
        report = session.profile(
            ProfileJob(
                source=source,
                data=data,
                params=_params_from_args(args),
                seed=args.seed,
                backend=args.backend,
                label=paths[0],
            )
        )
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(json.dumps(report.as_dict(), indent=2))
    if args.verbose:
        print(report.rtl_think, file=sys.stderr)
    return 0


def _profile_batch(paths: list[str], data, args: argparse.Namespace) -> int:
    """``profile --batch``: fan several programs out over BatchProfiler."""
    from .profiler import BatchProfiler, ProfileJob

    jobs = [
        ProfileJob(program=_read_program(path), data=data, seed=args.seed)
        for path in paths
    ]
    batch = BatchProfiler(
        _params_from_args(args),
        backend=args.backend,
        max_workers=args.jobs,
    )
    reports = batch.profile_many(jobs)
    rows = []
    failures = 0
    for path, report in zip(paths, reports):
        if report is None:
            failures += 1
            rows.append({"program": path, "error": "simulation failed"})
        else:
            rows.append({"program": path, "costs": report.costs.as_dict()})
    print(json.dumps(rows, indent=2))
    return 1 if failures == len(rows) else 0


def _resolve_program_and_data(args: argparse.Namespace) -> tuple[str, dict]:
    """Resolve a program target (file path or bundled workload) to its
    source plus the workload's runtime data (empty for file paths)."""
    if args.workload:
        if args.program:
            raise SystemExit("error: pass a program path or --workload, not both")
        from .campaign.spec import WorkloadSpec
        from .errors import ReproError

        try:
            source, data = WorkloadSpec(name=args.workload).resolve()
        except ReproError as exc:
            raise SystemExit(f"error: {exc}") from None
        return source, dict(data)
    if not args.program:
        raise SystemExit(
            f"error: {args.command} needs a program path or --workload NAME"
        )
    try:
        with open(args.program, encoding="utf-8") as handle:
            return handle.read(), {}
    except OSError as exc:
        raise SystemExit(
            f"error: cannot read program {args.program!r}: "
            f"{exc.strerror or exc}"
        ) from None


def _analyze_source(args: argparse.Namespace) -> str:
    """Resolve the analyze target: a file path or a bundled workload."""
    source, _ = _resolve_program_and_data(args)
    return source


def cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import GLOBAL_ANALYSIS_CACHE, legality_matrix

    source = _analyze_source(args)
    analysis = GLOBAL_ANALYSIS_CACHE.get(source)
    validation = analysis.validation
    program = analysis.program

    if args.json:
        payload = {
            "digest": analysis.digest,
            "validation": validation.as_dict(),
            "dependences": {
                name: report.summary()
                for name, report in analysis.dependences.items()
            },
            "legality": {
                func.name: legality_matrix(func) for func in program.functions
            },
        }
        if getattr(args, "suggest", False) and validation.ok:
            accepted, rejected = _suggest_steps(source)
            payload["suggestions"] = {
                "legal": [candidate.as_dict() for candidate in accepted],
                "rejected": [candidate.as_dict() for candidate in rejected],
            }
        print(json.dumps(payload, indent=2))
        return 0 if validation.ok else 1

    if validation.functions:
        reports = classify_operators(program)
        for name, report in reports.items():
            dynamic = ",".join(report.dynamic_params) or "-"
            print(
                f"{name}: {report.operator_class.value} "
                f"loops={report.loop_count} branches={report.branch_count} "
                f"dynamic_params={dynamic}"
            )
        print(f"total dynamic parameters: {count_dynamic_parameters(program)}")

    status = "ok" if validation.ok else "INVALID"
    print(
        f"validation: {status} ({len(validation.errors)} errors, "
        f"{len(validation.warnings)} warnings)"
    )
    for issue in validation.issues:
        print(f"  {issue.describe()}")

    for name, report in analysis.dependences.items():
        summary = report.summary()
        print(
            f"dependences in '{name}': total={summary['total']} "
            f"flow={summary['flow']} anti={summary['anti']} "
            f"output={summary['output']} scalar={summary['scalar']} "
            f"loop_carried={summary['loop_carried']}"
        )
        shown = report.dependences[:_ANALYZE_MAX_DEPS]
        for dep in shown:
            print(f"  {dep.describe()}")
        hidden = len(report.dependences) - len(shown)
        if hidden > 0:
            print(f"  ... (+{hidden} more; use --json for the full list)")

    for func in program.functions:
        matrix = legality_matrix(func)
        if not matrix["loops"]:
            continue
        loops = ", ".join(loop["label"] for loop in matrix["loops"])
        print(f"legality in '{func.name}' (loops: {loops}):")
        for section in ("interchange", "tile", "fuse", "unroll", "distribute"):
            for row in matrix[section]:
                verdict = "legal" if row["ok"] else "illegal"
                print(f"  {row['transform']}: {verdict}")
                if not row["ok"]:
                    for reason in row["reasons"][:2]:
                        print(f"      - {reason}")

    if getattr(args, "suggest", False) and validation.ok:
        accepted, rejected = _suggest_steps(source)
        print(
            f"suggested rewrites ({len(accepted)} legal, "
            f"{len(rejected)} rejected; lower score = better):"
        )
        for candidate in accepted[:_ANALYZE_MAX_SUGGESTIONS]:
            print(f"  {candidate.step.to_text()}  score={candidate.score:.1f}")
        hidden = len(accepted) - _ANALYZE_MAX_SUGGESTIONS
        if hidden > 0:
            print(f"  ... (+{hidden} more; use --json for the full list)")
    return 0 if validation.ok else 1


def _suggest_steps(source: str):
    """Profitability-ranked single-step rewrite candidates for *source*,
    split into (legal, rejected)."""
    from .errors import ReproError
    from .rewrite import enumerate_steps

    try:
        candidates = enumerate_steps(source)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from None
    accepted = [candidate for candidate in candidates if candidate.ok]
    rejected = [candidate for candidate in candidates if not candidate.ok]
    return accepted, rejected


_ANALYZE_MAX_DEPS = 16
_ANALYZE_MAX_SUGGESTIONS = 12


def cmd_rewrite_apply(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .rewrite import RewriteSequence, bit_parity

    source, data = _resolve_program_and_data(args)
    try:
        sequence = RewriteSequence.from_texts(args.step)
        result = sequence.apply(source)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from None

    parity: Optional[bool] = None
    if args.verify:
        try:
            parity = bit_parity(source, result.program, data=data or None)
        except ReproError as exc:
            raise SystemExit(f"error: parity check failed to run: {exc}") from None

    if args.json:
        payload = result.as_dict()
        if parity is not None:
            payload["parity"] = parity
        print(json.dumps(payload, indent=2))
    else:
        print(result.source, end="" if result.source.endswith("\n") else "\n")
        for record in result.records:
            print(
                f"// {record.step.to_text()}: "
                f"{record.digest_before[:12]} -> {record.digest_after[:12]} "
                f"({record.dependence_count} dependences)",
                file=sys.stderr,
            )
        if parity is not None:
            print(
                f"// parity: {'bit-identical' if parity else 'MISMATCH'}",
                file=sys.stderr,
            )
    return 0 if parity is not False else 1


def cmd_rewrite_enumerate(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .rewrite import enumerate_sequences, enumerate_steps

    source, _ = _resolve_program_and_data(args)
    try:
        candidates = enumerate_steps(source)
        ranked = enumerate_sequences(
            source, max_len=args.max_len, top_k=args.top_k
        )
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from None
    rejected = [candidate for candidate in candidates if not candidate.ok]

    if args.json:
        payload = {
            "sequences": [sequence.as_dict() for sequence in ranked],
            "rejected": [candidate.as_dict() for candidate in rejected],
        }
        print(json.dumps(payload, indent=2))
        return 0

    print(
        f"legal sequences (top {len(ranked)}, max_len={args.max_len}; "
        f"lower score = better):"
    )
    for sequence in ranked:
        print(
            f"  {sequence.describe():60s} score={sequence.score:8.1f} "
            f"improvement={sequence.improvement:+.1f}"
        )
    if rejected:
        print(f"rejected single steps ({len(rejected)}):")
        for candidate in rejected:
            print(f"  {candidate.step.to_text()}")
            for reason in candidate.reasons[:1]:
                print(f"      - {reason}")
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    from .datagen import DatasetSynthesizer, SynthesizerConfig
    from .datagen.io import save_dataset

    config = SynthesizerConfig(
        n_ast=args.ast, n_dataflow=args.dataflow, n_llm=args.llm, seed=args.seed
    )
    dataset = DatasetSynthesizer(config).generate()
    count = save_dataset(dataset.records, args.out)
    print(f"wrote {count} records to {args.out} "
          f"(composition {dataset.composition()}, skipped {dataset.skipped})")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from .core import CostModel, LLMulatorConfig, train_cost_model
    from .core.trainer import TrainingConfig
    from .datagen import direct_format
    from .datagen.io import load_dataset
    from .nn import save_model

    records = load_dataset(args.dataset)
    if not records:
        raise SystemExit(f"no records in {args.dataset}")
    examples = [direct_format(record) for record in records]
    model = CostModel(LLMulatorConfig(tier=args.tier, seed=args.seed))
    history = train_cost_model(
        model,
        examples,
        TrainingConfig(
            epochs=args.epochs,
            lr=args.lr,
            seed=args.seed,
            batch_size=args.batch_size,
        ),
    )
    save_model(model, args.out)
    print(
        f"trained {args.tier} model on {len(examples)} examples: "
        f"loss {history.epoch_losses[0]:.2f} -> {history.final_loss:.2f}; "
        f"saved to {args.out}"
    )
    return 0


def _build_predictor(args: argparse.Namespace):
    """The :class:`repro.api.Predictor` the flags ask for: a remote
    :class:`ServeClient` or a local :class:`Session` — the *only*
    difference between ``predict`` and ``predict --remote``."""
    if args.remote:
        from .serve import ServeClient

        return ServeClient(args.remote)
    from .api import Session

    return Session(models={"default": args.model}, tier=args.tier, seed=args.seed)


def cmd_predict(args: argparse.Namespace) -> int:
    from .api import CodecError, PredictJob, predict_jobs_from_jsonl
    from .errors import ReproError

    if args.program is None and not args.jsonl:
        raise SystemExit("error: predict needs a program path or --jsonl FILE")
    if args.program is not None and args.jsonl:
        raise SystemExit("error: pass either a program path or --jsonl, not both")
    if args.jsonl and args.data:
        raise SystemExit(
            "error: --data does not apply to --jsonl (put a 'data' object "
            "on each line instead)"
        )
    if not args.remote and not args.model:
        raise SystemExit("error: --model is required unless --remote is given")
    if args.remote and args.model:
        raise SystemExit(
            "error: --model does not apply to --remote (the server chooses "
            "its own checkpoints; pass 'model' per request via the API)"
        )

    params = _params_from_args(args)
    if args.jsonl:
        try:
            jobs = predict_jobs_from_jsonl(args.jsonl, params=params)
        except CodecError as exc:
            raise SystemExit(f"error: {exc}") from None
    else:
        base_data = _parse_data(args.data)
        jobs = [
            PredictJob(
                source=_read_program(args.program),
                data=base_data or None,
                params=params,
                label=args.program,
            )
        ]

    # One code path for local and remote: both predictors batch the
    # jobs (one encoder pass locally; concurrent submissions feeding
    # the server's micro-batcher remotely) and report failures as
    # one-line ReproErrors, so the two modes exit identically on the
    # same failure.
    try:
        predictions = _build_predictor(args).predict_jobs(jobs)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from None
    rows = [
        {"program": job.label, "predictions": prediction.cli_dict()}
        for job, prediction in zip(jobs, predictions)
    ]
    if args.jsonl:
        print(json.dumps(rows, indent=2))
    else:
        print(json.dumps(rows[0]["predictions"], indent=2))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .api import Session
    from .errors import ServeError
    from .serve import PredictionServer

    models: dict[str, str] = {}
    for spec in args.model:
        name, sep, path = spec.partition("=")
        if not sep:
            name, path = "default", spec
        if name in models:
            raise SystemExit(
                f"error: duplicate model name {name!r}; use NAME=PATH to "
                "serve several checkpoints"
            )
        models[name] = path
    session = Session(
        models=models, tier=args.tier, seed=args.seed, max_seq_len=args.max_seq_len
    )
    try:
        for name in session.load_models():  # eager load: fail before binding
            print(f"loaded model {name!r}", file=sys.stderr)
    except ServeError as exc:
        raise SystemExit(f"error: {exc}") from None
    try:
        server = PredictionServer(
            session=session,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            verbose=args.verbose,
        )
    except OSError as exc:
        reason = exc.strerror or exc
        raise SystemExit(
            f"error: cannot bind {args.host}:{args.port}: {reason}"
        ) from None
    print(f"serving on {server.url} (models: {', '.join(session.models())})",
          file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down (draining queued requests)", file=sys.stderr)
        server.close()
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from .core import (
        CalibrationConfig,
        CostModel,
        DynamicCalibrator,
        LLMulatorConfig,
        bundle_from_program,
        class_i_segments,
        make_environment,
    )
    from .nn import load_model

    source = _read_program(args.program)
    params = _params_from_args(args)
    sweep_name, _, sweep_values = args.sweep.partition("=")
    values = [int(v) for v in sweep_values.split(",") if v]
    if not values:
        raise SystemExit("--sweep expects name=v1,v2,... with at least one value")

    profiler = Profiler(params)
    segments = tuple(class_i_segments(source))
    stream = []
    for value in values:
        data = _parse_data(args.data)
        data[sweep_name] = value
        bundle = bundle_from_program(source, params=params, data=data)
        actual = profiler.profile(source, data=data).costs["cycles"]
        stream.append((bundle, actual))
    environment = make_environment(stream, class_i_segments=lambda _: segments)

    model = CostModel(LLMulatorConfig(tier=args.tier, seed=args.seed))
    load_model(model, args.model)
    calibrator = DynamicCalibrator(
        model, CalibrationConfig(metric="cycles", seed=args.seed)
    )
    history = calibrator.run(environment, iterations=args.iterations)
    for i, mape_value in enumerate(history.iteration_mape, start=1):
        print(f"iteration {i}: cycles MAPE {mape_value:.1%}")
    if args.out:
        calibrator.save(args.out)
        print(f"calibrated policy (model + adapter) saved to {args.out}")
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    from .api import ExploreJob, Session
    from .errors import ReproError

    source = _read_program(args.program)
    session = Session(
        models={"default": args.model}, tier=args.tier, seed=args.seed
    )
    try:
        report = session.explore(
            ExploreJob(
                source=source,
                data=_parse_data(args.data) or None,
                unroll_factors=tuple(args.unroll),
                memory_delays=tuple(args.mem_delays),
                max_candidates=args.max_candidates,
                verify_top=args.verify_top,
                label=args.program,
            )
        )
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(f"{'rank':>4s}  {'design':30s} {'pred cycles':>11s} {'pred area':>10s} {'actual cycles':>13s}")
    for rank, choice in enumerate(report.candidates, start=1):
        actual = str(choice.actual["cycles"]) if choice.actual else "-"
        print(
            f"{rank:4d}  {choice.design:30s} "
            f"{choice.predicted['cycles']:11d} {choice.predicted['area']:10d} {actual:>13s}"
        )
    if args.verbose:
        print(
            "predictor cache: " + json.dumps(dict(report.cache_stats)),
            file=sys.stderr,
        )
    return 0


def _campaign_predictor(args: argparse.Namespace, spec):
    """The Predictor a campaign's model-guided cells rank through, or
    None for all-model-free specs (mirrors ``predict``'s local/remote
    constructor swap)."""
    if not spec.needs_model():
        if args.model or args.remote:
            print(
                "note: spec has no model-guided strategy; --model/--remote unused",
                file=sys.stderr,
            )
        return None
    if args.remote and args.model:
        raise SystemExit("error: pass either --model or --remote, not both")
    if args.remote:
        from .serve import ServeClient

        return ServeClient(args.remote)
    if not args.model:
        raise SystemExit(
            "error: spec contains a model-guided strategy; pass --model "
            "CHECKPOINT or --remote URL"
        )
    from .api import Session

    return Session(models={"default": args.model}, tier=args.tier, seed=args.seed)


def _run_campaign(args: argparse.Namespace, resume: bool) -> int:
    from .campaign import CampaignReport, CampaignRunner, load_spec
    from .errors import CampaignInterrupted, ReproError
    from .telemetry import TRACER, TimelineRecorder

    try:
        spec = load_spec(args.spec)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from None
    predictor = _campaign_predictor(args, spec)
    runner = CampaignRunner(
        spec,
        args.journal,
        predictor=predictor,
        ledger_path=getattr(args, "ledger", None),
    )
    # The timeline is a *sidecar*: the journal stays byte-identical
    # with or without --timeline (REPRO004 — no timestamps inside).
    recorder = TimelineRecorder(TRACER) if args.timeline else None

    def write_timeline() -> None:
        if recorder is not None and recorder.spans:
            events = recorder.write(args.timeline)
            print(
                f"timeline: {events} events -> {args.timeline}",
                file=sys.stderr,
            )

    try:
        if recorder is not None:
            with recorder:
                result = runner.run(
                    resume=resume,
                    overwrite=getattr(args, "overwrite", False),
                    max_evaluations=args.max_evals,
                )
        else:
            result = runner.run(
                resume=resume,
                overwrite=getattr(args, "overwrite", False),
                max_evaluations=args.max_evals,
            )
    except CampaignInterrupted as exc:
        write_timeline()
        print(f"interrupted: {exc}", file=sys.stderr)
        # The hint must rebuild the *same* predictor: a missing --tier
        # or --seed would load the checkpoint under a different config,
        # change the model-guided ranking and fail the journal replay.
        print(
            f"resume with: python -m repro campaign resume --spec {args.spec} "
            f"--journal {args.journal}"
            + (f" --model {args.model}" if args.model else "")
            + (f" --remote {args.remote}" if args.remote else "")
            + (f" --tier {args.tier}" if args.model and args.tier != "0.5B" else "")
            + (f" --seed {args.seed}" if args.model and args.seed != 0 else ""),
            file=sys.stderr,
        )
        return 3
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from None
    write_timeline()
    print(json.dumps(result.summary(), indent=2))
    try:
        report = CampaignReport.from_journal(args.journal, spec)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(report.table(), file=sys.stderr)
    return 0


def cmd_campaign_run(args: argparse.Namespace) -> int:
    return _run_campaign(args, resume=False)


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    return _run_campaign(args, resume=True)


def cmd_campaign_report(args: argparse.Namespace) -> int:
    from .campaign import CampaignReport, load_spec
    from .campaign.journal import CampaignJournal
    from .errors import ReproError

    try:
        spec = load_spec(args.spec)
        report = CampaignReport.from_journal(args.journal, spec)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.timeline:
        # Journals are timestamp-free by design, so the report renders
        # a *logical* timeline: one tick per journaled evaluation,
        # laned by cell id.
        from .telemetry import write_journal_timeline

        try:
            records = CampaignJournal.read_records(args.journal)
        except ReproError as exc:
            raise SystemExit(f"error: {exc}") from None
        events = write_journal_timeline(records, args.timeline)
        print(f"timeline: {events} events -> {args.timeline}", file=sys.stderr)
    if args.json:
        print(report.to_json())
    else:
        print(report.table())
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Print the unified telemetry snapshot — the local process's, or a
    running server's ``/metrics`` (``--remote URL``).  ``--profile``
    samples a CPU/memory window attributed to open telemetry spans."""
    from .errors import ReproError

    if args.remote:
        from .serve import ServeClient

        client = ServeClient(args.remote)
        snapshot = client.stats() if args.legacy else client.metrics()
        if args.profile:
            try:
                snapshot["profile"] = client.debug_profile(args.profile_seconds)
            except ReproError as exc:
                raise SystemExit(f"error: {exc}") from None
    else:
        from . import telemetry

        snapshot = telemetry.snapshot()
        if args.profile:
            from .obs import process_snapshot, profile_window

            try:
                snapshot["profile"] = profile_window(args.profile_seconds)
            except ReproError as exc:
                raise SystemExit(f"error: {exc}") from None
            snapshot["resource"] = process_snapshot()
    print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def _bench_config(args: argparse.Namespace):
    from .obs.bench import BenchConfig

    return BenchConfig(
        smoke=args.smoke, tier=getattr(args, "tier", None) or ""
    )


def cmd_bench_run(args: argparse.Namespace) -> int:
    """Run registered bench suites through the shared harness: measure,
    write the ``BENCH_*.json`` artifact, append the history ledger, gate
    through the regression sentinel."""
    from .errors import ObsError
    from .obs import bench

    try:
        names = bench.discover_suites()
    except ObsError as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.suite:
        unknown = [name for name in args.suite if name not in names]
        if unknown:
            raise SystemExit(
                f"error: unknown suite(s) {', '.join(unknown)}; "
                f"registered: {', '.join(names)}"
            )
        names = list(args.suite)
    if not names:
        raise SystemExit("error: no bench suites registered")

    ledger = "" if args.no_ledger else (args.ledger or None)
    exit_code = 0
    for name in names:
        print(f"=== bench {name} ===", flush=True)
        try:
            outcome = bench.execute(
                name,
                _bench_config(args),
                ledger=ledger,
                check=not args.no_regress,
            )
        except ObsError as exc:
            print(f"FAIL: {name}: {exc}", file=sys.stderr)
            exit_code = 1
            continue
        bench._print_outcome(outcome)
        exit_code = max(exit_code, outcome.exit_code)
    return exit_code


def cmd_bench_list(args: argparse.Namespace) -> int:
    from .errors import ObsError
    from .obs import bench

    try:
        bench.discover_suites()
    except ObsError as exc:
        raise SystemExit(f"error: {exc}") from None
    for suite in bench.suites():
        print(f"{suite.name}: {suite.description}")
        for metric in suite.metrics:
            scope = "portable" if metric.portable else "same-host"
            print(f"    {metric.name} [{metric.unit}, {metric.direction} "
                  f"is better, {scope}]")
    return 0


def _open_ledger(args: argparse.Namespace):
    from .obs.bench import ledger_path
    from .obs.history import BenchLedger

    return BenchLedger(args.ledger or ledger_path())


def cmd_bench_log(args: argparse.Namespace) -> int:
    """Print ledger entries (newest last), optionally filtered."""
    from .errors import ObsError

    ledger = _open_ledger(args)
    try:
        entries = ledger.entries(
            suite=args.suite, metric=args.metric, tier=args.tier, mode=args.mode
        )
    except ObsError as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.limit:
        entries = entries[-args.limit:]
    for entry in entries:
        print(json.dumps(entry.as_dict(), sort_keys=True))
    if not entries:
        print("(no matching ledger entries)", file=sys.stderr)
    return 0


def cmd_bench_trend(args: argparse.Namespace) -> int:
    """Sparkline trajectories per (suite, metric) from the ledger."""
    from .errors import ObsError
    from .obs.history import render_trend

    ledger = _open_ledger(args)
    try:
        suite_names = [args.suite] if args.suite else ledger.suites()
        if not suite_names:
            print("(empty ledger)", file=sys.stderr)
            return 0
        for suite_name in suite_names:
            metric_names = (
                [args.metric] if args.metric else ledger.metrics(suite_name)
            )
            for metric_name in metric_names:
                series = ledger.series(
                    suite_name, metric_name, tier=args.tier, mode=args.mode
                )
                if not series:
                    continue
                values = [entry.value for entry in series]
                newest = series[-1]
                print(
                    f"{suite_name}.{metric_name:32s} "
                    f"{render_trend(values)} "
                    f"n={len(values)} last={newest.value:g} {newest.unit} "
                    f"({newest.direction} is better)"
                )
    except ObsError as exc:
        raise SystemExit(f"error: {exc}") from None
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .eval.report import missing_experiments, write_report

    path = write_report(args.results, output_path=args.out)
    missing = missing_experiments(args.results)
    print(f"report written to {path}")
    if missing:
        print(f"{len(missing)} experiments not yet rendered: "
              + ", ".join(sorted(missing)), file=sys.stderr)
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    from .workloads import (
        accelerator_suite,
        linalg_suite,
        modern_suite,
        polybench_suite,
    )

    suites = {
        "polybench": polybench_suite,
        "linalg": linalg_suite,
        "modern": modern_suite,
        "accelerators": accelerator_suite,
    }
    selected = [args.suite] if args.suite else list(suites)
    print(f"{'suite':13s} {'workload':22s} {'AllLen':>7s} {'GraphLen':>8s} "
          f"{'OpNum':>5s} {'DynNum':>6s} {'OpLen':>7s}")
    for suite_name in selected:
        for workload in suites[suite_name]():
            stats = workload.stats()
            print(
                f"{suite_name:13s} {workload.name:22s} {stats['all_len']:7d} "
                f"{stats['graph_len']:8d} {stats['op_num']:5d} "
                f"{stats['dyn_num']:6d} {stats['op_len']:7d}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LLMulator reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_hw_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mem-delay", type=int, default=10, help="memory R/W delay (cycles)")
        p.add_argument("--pe-count", type=int, default=4)
        p.add_argument("--memory-ports", type=int, default=2)

    profile = sub.add_parser("profile", help="profile a program through the EDA substrate")
    profile.add_argument("program", nargs="+", help="program path(s) ('-' for stdin)")
    profile.add_argument("--data", action="append", default=[], metavar="NAME=VALUE")
    profile.add_argument("--verbose", action="store_true")
    profile.add_argument(
        "--per-op", action="store_true",
        help="print a per-operator cost breakdown instead of totals only",
    )
    profile.add_argument(
        "--batch", action="store_true",
        help="profile all programs through the batched profiler (JSON array output)",
    )
    profile.add_argument(
        "--jobs", type=int, default=None,
        help="process-pool width for --batch (default: bounded by CPU count)",
    )
    profile.add_argument(
        "--backend", choices=("compiled", "interp"), default="compiled",
        help="simulation backend (identical results; compiled is faster)",
    )
    profile.add_argument("--seed", type=int, default=0)
    add_hw_flags(profile)
    profile.set_defaults(func=cmd_profile)

    analyze = sub.add_parser(
        "analyze",
        help="validate a program and print operator classes, dependences "
             "and the transform-legality matrix",
    )
    analyze.add_argument("program", nargs="?", default=None)
    analyze.add_argument(
        "--workload",
        help="analyze a bundled workload by name (e.g. gemm) instead of a file",
    )
    analyze.add_argument(
        "--json", action="store_true",
        help="emit the full analysis (validation, dependences, legality) as JSON",
    )
    analyze.add_argument(
        "--suggest", action="store_true",
        help="append legal, profitability-ranked rewrite steps "
             "(repro.rewrite candidates)",
    )
    analyze.set_defaults(func=cmd_analyze)

    rewrite = sub.add_parser(
        "rewrite",
        help="apply or enumerate legality-gated loop transformations",
    )
    rewrite_sub = rewrite.add_subparsers(dest="rewrite_command", required=True)

    def add_rewrite_target(p: argparse.ArgumentParser) -> None:
        p.add_argument("program", nargs="?", default=None,
                       help="program path; or use --workload")
        p.add_argument(
            "--workload",
            help="rewrite a bundled workload by name (e.g. gemm) instead of a file",
        )
        p.add_argument("--json", action="store_true")

    rw_apply = rewrite_sub.add_parser(
        "apply",
        help="apply a rewrite sequence (validator re-run after every step)",
    )
    add_rewrite_target(rw_apply)
    rw_apply.add_argument(
        "--step", action="append", required=True,
        metavar="KIND:FUNC:LOOPS[:FACTOR]",
        help="rewrite step, e.g. interchange:gemm_kernel:0,1 or "
             "tile:f:0,1:4; repeatable, applied in order",
    )
    rw_apply.add_argument(
        "--verify", action="store_true",
        help="check interpreter bit-parity against the original "
             "(exit 1 on mismatch)",
    )
    rw_apply.set_defaults(func=cmd_rewrite_apply)

    rw_enum = rewrite_sub.add_parser(
        "enumerate",
        help="beam-search legal rewrite sequences, profitability-ranked",
    )
    add_rewrite_target(rw_enum)
    rw_enum.add_argument("--max-len", type=int, default=2,
                         help="maximum steps per sequence")
    rw_enum.add_argument("--top-k", type=int, default=8,
                         help="sequences kept per beam level and returned")
    rw_enum.set_defaults(func=cmd_rewrite_enumerate)

    synthesize = sub.add_parser("synthesize", help="generate a training dataset")
    synthesize.add_argument("--out", required=True)
    synthesize.add_argument("--ast", type=int, default=12)
    synthesize.add_argument("--dataflow", type=int, default=20)
    synthesize.add_argument("--llm", type=int, default=8)
    synthesize.add_argument("--seed", type=int, default=0)
    synthesize.set_defaults(func=cmd_synthesize)

    train = sub.add_parser("train", help="train a cost model on a JSONL dataset")
    train.add_argument("dataset")
    train.add_argument("--out", required=True)
    train.add_argument("--tier", default="0.5B", choices=("0.5B", "1B", "8B"))
    train.add_argument("--epochs", type=int, default=5)
    train.add_argument("--lr", type=float, default=2e-3)
    train.add_argument("--batch-size", type=int, default=1,
                       help="examples per update (length-bucketed mini-batches)")
    train.add_argument("--seed", type=int, default=0)
    train.set_defaults(func=cmd_train)

    predict = sub.add_parser("predict", help="predict costs with a trained model")
    predict.add_argument("program", nargs="?", default=None,
                         help="program path ('-' for stdin); omit with --jsonl")
    predict.add_argument("--model", default=None,
                         help="trained checkpoint (.npz); required unless --remote")
    predict.add_argument("--tier", default="0.5B", choices=("0.5B", "1B", "8B"))
    predict.add_argument("--data", action="append", default=[], metavar="NAME=VALUE")
    predict.add_argument(
        "--jsonl", default=None, metavar="FILE",
        help="batch mode: one {'program': path | 'source': text, 'data': {...}} "
             "JSON object per line, predicted in one batched pass",
    )
    predict.add_argument(
        "--remote", default=None, metavar="URL",
        help="route through a running 'repro serve' instance instead of "
             "loading a model locally",
    )
    predict.add_argument("--seed", type=int, default=0)
    add_hw_flags(predict)
    predict.set_defaults(func=cmd_predict)

    serve = sub.add_parser(
        "serve", help="run the persistent prediction service over HTTP"
    )
    serve.add_argument(
        "--model", action="append", required=True, metavar="[NAME=]PATH",
        help="checkpoint to serve (repeatable; first one is the default model)",
    )
    serve.add_argument("--tier", default="0.5B", choices=("0.5B", "1B", "8B"))
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8173)
    serve.add_argument("--max-batch", type=int, default=8,
                       help="micro-batch flush size")
    serve.add_argument("--max-seq-len", type=int, default=320)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")
    serve.set_defaults(func=cmd_serve)

    calibrate = sub.add_parser(
        "calibrate", help="DPO-calibrate a trained model against the profiler"
    )
    calibrate.add_argument("program")
    calibrate.add_argument("--model", required=True)
    calibrate.add_argument("--sweep", required=True, metavar="NAME=V1,V2,...",
                           help="runtime input to sweep as the environment")
    calibrate.add_argument("--data", action="append", default=[], metavar="NAME=VALUE")
    calibrate.add_argument("--iterations", type=int, default=5)
    calibrate.add_argument("--tier", default="0.5B", choices=("0.5B", "1B", "8B"))
    calibrate.add_argument("--seed", type=int, default=0)
    calibrate.add_argument("--out", help="save the calibrated model here")
    add_hw_flags(calibrate)
    calibrate.set_defaults(func=cmd_calibrate)

    explore = sub.add_parser(
        "explore", help="rank mapping candidates with a trained model"
    )
    explore.add_argument("program")
    explore.add_argument("--model", required=True)
    explore.add_argument("--data", action="append", default=[], metavar="NAME=VALUE")
    explore.add_argument("--unroll", type=int, nargs="+", default=[1, 2, 4])
    explore.add_argument("--mem-delays", type=int, nargs="+", default=[10])
    explore.add_argument("--max-candidates", type=int, default=16)
    explore.add_argument("--verify-top", type=int, default=3)
    explore.add_argument("--tier", default="0.5B", choices=("0.5B", "1B", "8B"))
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument("--verbose", action="store_true",
                         help="print predictor cache statistics to stderr")
    explore.set_defaults(func=cmd_explore)

    campaign = sub.add_parser(
        "campaign",
        help="resumable multi-objective search campaigns over "
             "workloads x hardware x strategies",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def add_campaign_flags(p: argparse.ArgumentParser, runs: bool) -> None:
        p.add_argument("--spec", required=True, metavar="FILE",
                       help="campaign spec JSON (see repro.campaign.save_spec)")
        p.add_argument("--journal", required=True, metavar="FILE",
                       help="append-only JSONL evaluation checkpoint")
        if runs:
            p.add_argument("--model", default=None,
                           help="trained checkpoint for model-guided cells")
            p.add_argument("--remote", default=None, metavar="URL",
                           help="rank through a running 'repro serve' instead")
            p.add_argument("--tier", default="0.5B", choices=("0.5B", "1B", "8B"))
            p.add_argument("--seed", type=int, default=0)
            p.add_argument(
                "--max-evals", type=int, default=None, metavar="N",
                help="stop after N fresh ground-truth evaluations (exit 3; "
                     "the journal keeps the finished prefix for resume)",
            )
            p.add_argument(
                "--ledger", default=None, metavar="FILE",
                help="append each cell's best objective to this bench "
                     "history ledger on completion (see 'repro bench')",
            )
        p.add_argument(
            "--timeline", default=None, metavar="FILE",
            help="write a Chrome-trace (Perfetto-loadable) timeline sidecar; "
                 "the journal itself stays byte-identical",
        )

    campaign_run = campaign_sub.add_parser(
        "run", help="execute a campaign from scratch, journaling every evaluation"
    )
    add_campaign_flags(campaign_run, runs=True)
    campaign_run.add_argument(
        "--overwrite", action="store_true",
        help="replace an existing journal instead of refusing",
    )
    campaign_run.set_defaults(func=cmd_campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume", help="continue an interrupted campaign by replaying its journal"
    )
    add_campaign_flags(campaign_resume, runs=True)
    campaign_resume.set_defaults(func=cmd_campaign_resume)

    campaign_report = campaign_sub.add_parser(
        "report", help="derive traces, Pareto fronts and the strategy "
                       "comparison from a journal (no model needed)"
    )
    add_campaign_flags(campaign_report, runs=False)
    campaign_report.add_argument("--json", action="store_true",
                                 help="machine-readable report")
    campaign_report.set_defaults(func=cmd_campaign_report)

    report = sub.add_parser(
        "report", help="assemble results/ tables into one markdown report"
    )
    report.add_argument("--results", default="results")
    report.add_argument("--out", default=None)
    report.set_defaults(func=cmd_report)

    stats = sub.add_parser(
        "stats", help="print the unified telemetry snapshot (local process "
                      "or a running 'repro serve')"
    )
    stats.add_argument("--remote", default=None, metavar="URL",
                       help="read a running server's /metrics instead")
    stats.add_argument("--legacy", action="store_true",
                       help="with --remote: fetch the legacy /stats layout")
    stats.add_argument(
        "--profile", action="store_true",
        help="sample a CPU/memory window attributed to open telemetry "
             "spans (locally, or via the server's /debug/profile)",
    )
    stats.add_argument("--profile-seconds", type=float, default=2.0,
                       metavar="N", help="profile window length")
    stats.set_defaults(func=cmd_stats)

    bench = sub.add_parser(
        "bench", help="run, inspect and trend the registered benchmark "
                      "suites (repro.obs harness + history ledger)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    def add_ledger_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--ledger", default=None, metavar="FILE",
                       help="bench history ledger "
                            "(default <repo>/BENCH_HISTORY.jsonl)")

    bench_run = bench_sub.add_parser(
        "run", help="run suites: measure, write BENCH_*.json, append the "
                    "ledger, gate through the regression sentinel"
    )
    bench_run.add_argument("--suite", action="append", default=None,
                           metavar="NAME", help="run one suite (repeatable; "
                           "default: all registered)")
    bench_run.add_argument("--smoke", action="store_true",
                           help="small iteration counts for the CI lane")
    bench_run.add_argument("--tier", default=None,
                           choices=("0.5B", "1B", "8B"),
                           help="model tier for suites with a tier axis")
    add_ledger_flag(bench_run)
    bench_run.add_argument("--no-ledger", action="store_true",
                           help="do not append results to the ledger")
    bench_run.add_argument("--no-regress", action="store_true",
                           help="skip the regression sentinel")
    bench_run.set_defaults(func=cmd_bench_run)

    bench_list = bench_sub.add_parser(
        "list", help="list registered suites and their declared metrics"
    )
    bench_list.set_defaults(func=cmd_bench_list)

    def add_bench_filters(p: argparse.ArgumentParser) -> None:
        add_ledger_flag(p)
        p.add_argument("--suite", default=None)
        p.add_argument("--metric", default=None)
        p.add_argument("--tier", default=None)
        p.add_argument("--mode", default=None,
                       choices=("smoke", "full", "campaign"))

    bench_log = bench_sub.add_parser(
        "log", help="print ledger entries as JSONL (newest last)"
    )
    add_bench_filters(bench_log)
    bench_log.add_argument("--limit", type=int, default=None, metavar="N",
                           help="only the newest N matching entries")
    bench_log.set_defaults(func=cmd_bench_log)

    bench_trend = bench_sub.add_parser(
        "trend", help="sparkline metric trajectories from the ledger"
    )
    add_bench_filters(bench_trend)
    bench_trend.set_defaults(func=cmd_bench_trend)

    workloads = sub.add_parser("workloads", help="list bundled benchmark suites")
    workloads.add_argument(
        "--suite",
        choices=("polybench", "linalg", "modern", "accelerators"),
        help="restrict to one suite",
    )
    workloads.set_defaults(func=cmd_workloads)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early: exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    raise SystemExit(main())

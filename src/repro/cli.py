"""Command-line interface.

``python -m repro.cli <command>``:

* ``lint-record "<txt>"``       — validate an ``_mta-sts`` TXT string;
* ``lint-policy <file|->``      — validate a policy file;
* ``check-zone <zonefile> <domain> [--policy FILE]`` — offline
  assessment of a domain's MTA-STS posture from its zone file;
* ``plan-removal <max_age_seconds>`` — print the RFC 8461 §2.6 removal
  sequence for a policy with the given max_age;
* ``audit [--scale S] [--month M] [--backend serial|process --jobs N]
  [--stats [--json]] [--fault-seed N --fault-rate R] [--trace FILE]
  [--explain DOMAIN] [--metrics-out FILE] [--profile]
  [--progress] [--save DIR | --load DIR]`` — run the
  synthetic-ecosystem scan for one snapshot (the final one by
  default) and print the misconfiguration census (``--backend`` picks
  serial or process-parallel execution — byte-identical — and
  ``--jobs 0`` auto-detects one worker per CPU core; with
  ``--stats``, the per-stage scan statistics — as machine-readable
  JSON with ``--json``; with ``--fault-seed``, deterministic network
  faults injected into the scan; with ``--trace``, one JSONL span
  tree per scanned domain;
  with ``--explain``, the human-readable span tree for one domain;
  with ``--metrics-out``, the scan's metrics as a Prometheus
  exposition; with ``--profile``, a wall-clock stage profile; with
  ``--progress``, live heartbeats on stderr; with ``--save``, the
  scanned month committed into a campaign store; with ``--load``,
  the census runs offline from a saved store without scanning);
* ``campaign [--scale S]
  [--metrics-out FILE] [--progress] [--state-dir DIR [--resume]]
  [--fault-seed N --fault-rate R]`` — run the full monthly scan
  campaign with the health monitor attached, write the monthly
  metrics JSONL, and print the month-over-month health report
  (exit 1 on any ALERT; with ``--state-dir``, each completed month
  is committed atomically and ``--resume`` continues a killed run
  from the last committed month);
* ``campaign deliver [--scale S] [--month M]
  [--senders N --messages-per-sender M] [--backpressure N]
  [--wakeup-seconds S] [--fault-seed N --fault-rate R]
  [--ledger-out FILE] [--metrics-out FILE] [--tlsrpt-out DIR]
  [--progress] [--state-dir DIR [--resume]]`` — run the
  campaign-scale delivery engine: a §6.2-profiled sender population
  queues messages against the materialised world under per-delivery
  MTA-STS enforcement, emitting a canonical delivery ledger, per-wave
  metrics, and a delivery health report (exit 1 on any ALERT; two
  runs of one configuration are byte-identical; with ``--tlsrpt-out``,
  the senders additionally run the RFC 8460 reporting pipeline —
  daily aggregate reports delivered to each recipient's published
  ``rua`` endpoints through the simulated world — and the received
  reports plus the operator-side ingestion monitor's window JSONL
  are written into DIR);
* ``tlsrpt <FILE|DIR> [--monitor-out FILE]`` — ingest a saved TLSRPT
  report feed (``reports.jsonl``, or a directory holding one as
  written by ``campaign deliver --tlsrpt-out``) and print the
  operator census — reports, sessions, failures by RFC 8460 result
  type, top failing sending MTAs — plus the per-window health
  report (exit 1 on any ALERT, exit 2 when no reports exist);
* ``serve [--scale S] [--requests N --batch-size B]
  [--month M --months K]
  [--ttl-seconds T --min-ttl-seconds T] [--zipf-s S]
  [--flash-every K --flash-size N] [--metrics-out FILE]
  [--prom-out FILE] [--progress]`` — replay a seeded open-internet
  query mix against the MTA-STS policy-checker service: verdicts
  computed through the scanner's single-domain path, cached in a
  TTL verdict cache, with per-window hit-rate, p99
  virtual latency, and stampede fan-in metrics plus a service
  health report (exit 1 on any ALERT; two same-seed runs emit
  byte-identical metrics feeds);
* ``monitor FILE|DIR`` — re-evaluate a saved monthly metrics JSONL
  feed, or a campaign store directory, against (configurable)
  health thresholds (exit 1 on any ALERT);
* ``survey``                    — print the §7.2 survey statistics.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro.core.policy import check_policy_text
from repro.core.record import parse_sts_record
from repro.dns.name import canonical_host
from repro.errors import RecordError


def _cmd_lint_record(args) -> int:
    try:
        record = parse_sts_record(args.record)
    except RecordError as exc:
        print(f"INVALID ({exc.kind.value}): {exc}")
        return 1
    print(f"OK: version={record.version} id={record.id}"
          + (f" extensions={dict(record.extensions)}"
             if record.extensions else ""))
    return 0


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _cmd_lint_policy(args) -> int:
    check = check_policy_text(_read_text(args.file))
    if check.valid:
        policy = check.policy
        print(f"OK: mode={policy.mode.value} max_age={policy.max_age} "
              f"mx={list(policy.mx_patterns)}")
        for kind, detail in zip(check.warnings, check.warning_details):
            print(f"WARNING ({kind.value}): {detail}")
        return 0
    for kind, detail in zip(check.errors, check.details):
        print(f"INVALID ({kind.value}): {detail}")
    return 1


def _cmd_check_zone(args) -> int:
    from repro.measurement.offline import assess_zone

    policy_text = _read_text(args.policy) if args.policy else None
    assessment = assess_zone(_read_text(args.zonefile), args.domain,
                             policy_text, origin=args.origin)
    for finding in assessment.findings:
        print(finding.render())
    if assessment.ok:
        print(f"{args.domain}: no errors found")
        return 0
    print(f"{args.domain}: {len(assessment.errors)} error(s)")
    return 1


def _cmd_plan_removal(args) -> int:
    from repro.core.lifecycle import plan_removal
    from repro.core.policy import Policy, PolicyMode

    previous = Policy(version="STSv1", mode=PolicyMode.ENFORCE,
                      max_age=args.max_age, mx_patterns=("mx.example",))
    plan = plan_removal(args.domain, previous)
    print(f"RFC 8461 removal sequence for {args.domain} "
          f"(previous max_age={args.max_age}s):")
    for i, step in enumerate(plan.steps, start=1):
        extra = ""
        if step.wait is not None:
            extra = f" ({step.wait.seconds}s)"
        print(f"  {i}. {step.kind.value}{extra} — {step.note}")
    return 0


def _cmd_audit(args) -> int:
    import json

    from repro.ecosystem.population import PopulationConfig
    from repro.ecosystem.timeline import scan_instant
    from repro.errors import StoreCorruption
    from repro.measurement.columnar import (
        ColumnarStore, snapshot_summary_view, taxonomy_census_view,
    )
    from repro.measurement.executor import ScanExecutor, ScanStats
    from repro.measurement.store_io import (
        commit_month, month_rows, read_manifest,
    )

    if args.json and not args.stats:
        print("error: --json requires --stats", file=sys.stderr)
        return 2
    if args.load:
        for flag, name in ((args.trace, "--trace"),
                           (args.explain, "--explain"),
                           (args.profile, "--profile"),
                           (args.progress, "--progress"),
                           (args.fault_seed, "--fault-seed")):
            if flag:
                print(f"error: {name} requires a live scan and cannot "
                      f"be combined with --load", file=sys.stderr)
                return 2

    # With --json, stdout carries exactly one machine-readable JSON
    # document; everything informational moves to stderr.
    info_stream = sys.stderr if args.json else sys.stdout

    def info(*values, **kwargs) -> None:
        print(*values, file=info_stream, **kwargs)

    def write_metrics(stats, view, build_stats=None) -> None:
        from repro.fsutil import atomic_write_text
        from repro.obs.exporters import prometheus_exposition
        from repro.obs.monitor import build_month_registry
        registry = build_month_registry(
            stats, build_stats=build_stats,
            bucket_census=taxonomy_census_view(view))
        atomic_write_text(args.metrics_out, prometheus_exposition(
            registry, labels={"month": str(view.month_index)}))
        info(f"metrics: {len(registry.counters)} series -> "
             f"{args.metrics_out}")

    if args.load:
        # Offline: the month's shard decodes straight to columns; no
        # world is built and nothing is scanned.
        try:
            columns = ColumnarStore.from_state_dir(args.load)
        except StoreCorruption as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        committed = columns.months()
        if not committed:
            print(f"error: {args.load} holds no committed months",
                  file=sys.stderr)
            return 1
        month = (args.month if args.month is not None
                 else committed[-1])
        if month not in committed:
            print(f"error: month {month} is not committed in {args.load} "
                  f"(committed: {committed})", file=sys.stderr)
            return 1
        entry = columns.entries[month]
        try:
            view = columns.month_view(month)
        except StoreCorruption as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        stats = ScanStats.from_dict(entry.stats)
        summary = snapshot_summary_view(view)
        if args.metrics_out:
            write_metrics(stats, view, entry.build_stats)
        info(f"snapshot {entry.date} (loaded from {args.load})")
    else:
        # Live: every backend runs through scan_population, which owns
        # materialisation (shard-scoped under the process backend) and
        # installs the seeded fault plan after the world is built, so
        # only scan traffic is faulted — never the deployment/ACME
        # exchanges.
        population = PopulationConfig(scale=args.scale, seed=args.seed)
        tracing = bool(args.trace or args.explain)
        progress = None
        if args.progress:
            from repro.obs.progress import ProgressPrinter
            progress = ProgressPrinter()
        try:
            if args.month is not None:
                scan_instant(args.month)
            executor = ScanExecutor(backend=args.backend,
                                    jobs=_resolve_jobs(args.jobs,
                                                       args.backend),
                                    trace=tracing, profile=args.profile,
                                    progress=progress)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.save:
            # A damaged or foreign state dir is refused before the scan.
            try:
                read_manifest(args.save)
            except StoreCorruption as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        result = executor.scan_population(
            population, args.month,
            fault_seed=args.fault_seed, fault_rate=args.fault_rate)
        store, stats, month = result.store, result.stats, result.month_index
        if args.trace:
            records = executor.last_trace.write_jsonl(args.trace)
            info(f"trace: {records} records -> {args.trace}")
        if args.explain:
            info(executor.last_trace.explain(canonical_host(args.explain)))
            info()
        # One serialisation of the month feeds its columns and its shard.
        rows = month_rows(store, month)
        view = ColumnarStore().add_month(month, rows)
        summary = snapshot_summary_view(view)
        if args.save:
            from repro.ecosystem.timeline import population_to_dict
            commit_month(args.save, rows, month,
                         date=result.instant.date_string(),
                         stats=stats.as_dict(),
                         build_stats=result.build_stats,
                         population=population_to_dict(population))
            info(f"store: month {month} committed -> {args.save}")
        if args.metrics_out:
            write_metrics(stats, view)
        info(f"snapshot {result.instant.date_string()} "
             f"(scale={args.scale})")
        if result.worker_peak_rss_kib:
            info(f"  worker peak RSS      : "
                 f"{max(result.worker_peak_rss_kib) / 1024:.1f} MiB "
                 f"(max of {len(result.worker_peak_rss_kib)} workers)")
    info(f"  MTA-STS domains      : {summary.total_sts}")
    info(f"  misconfigured        : {summary.misconfigured} "
         f"({summary.misconfigured_percent():.1f}%)")
    info(f"  delivery failures    : {summary.delivery_failures}")
    if args.fault_seed is not None:
        info(f"  transient (faulted)  : {summary.transient}")
    for category, count in summary.category_counts.most_common():
        info(f"  {category:<21}: {count}")

    if args.show_repairs:
        from repro.measurement.repair import plan_repairs
        from repro.measurement.taxonomy import categorize
        if args.load:
            # The repair planner reads snapshot objects: decode only
            # this month's.
            from repro.measurement.store_io import load_state
            snapshots = load_state(args.load,
                                   months=[month]).store.month(month)
        else:
            snapshots = store.month(month)
        shown = 0
        for snapshot in snapshots:
            if shown >= args.show_repairs:
                break
            actions = plan_repairs(snapshot)
            if not actions or not categorize(snapshot):
                continue
            shown += 1
            info(f"\n  repair plan for {snapshot.domain}:")
            for action in actions:
                info(f"    {action.render()}")

    if args.profile:
        from repro.analysis.report import render_profile
        info()
        info(render_profile(executor.last_profile), end="")

    if args.stats:
        if args.json:
            print(json.dumps(stats.as_dict(), sort_keys=True))
        else:
            print()
            print(stats.render_table())
    return 0


def _cmd_campaign(args) -> int:
    from repro.analysis.report import render_drift_table
    from repro.analysis.series import run_campaign
    from repro.ecosystem.population import PopulationConfig
    from repro.ecosystem.timeline import EcosystemTimeline, TimelineConfig
    from repro.errors import StoreCorruption
    from repro.measurement.executor import ScanExecutor
    from repro.obs.monitor import ALERT, CampaignMonitor

    if args.resume and not args.state_dir:
        print("error: --resume requires --state-dir", file=sys.stderr)
        return 2
    timeline = EcosystemTimeline(
        TimelineConfig(PopulationConfig(scale=args.scale, seed=args.seed)))
    progress = None
    if args.progress:
        from repro.obs.progress import ProgressPrinter
        progress = ProgressPrinter()
    executor = ScanExecutor(progress=progress)
    monitor = CampaignMonitor(_thresholds(args, CampaignMonitor))
    try:
        analysis = run_campaign(timeline, executor=executor, monitor=monitor,
                                state_dir=args.state_dir, resume=args.resume,
                                fault_seed=args.fault_seed,
                                fault_rate=args.fault_rate)
    except (StoreCorruption, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.state_dir:
        print(f"store: {len(analysis.months())} months committed "
              f"-> {args.state_dir}")
    if args.metrics_out:
        records = monitor.write_jsonl(args.metrics_out)
        print(f"monthly metrics: {records} records -> {args.metrics_out}")
    totals = analysis.total_stats()
    print(f"campaign: {len(monitor.records)} months, "
          f"{totals.domains_scanned:,} domain scans "
          f"({totals.scan_seconds:.2f}s scanning)")
    print()
    print(render_drift_table(monitor.drift()), end="")
    print()
    report = monitor.health()
    print(report.render())
    return 1 if report.level == ALERT else 0


def _cmd_campaign_deliver(args) -> int:
    import os

    from repro.errors import StoreCorruption
    from repro.fsutil import atomic_write_text, ensure_dir
    from repro.measurement.delivery_campaign import (
        DeliveryCampaignConfig, run_delivery_campaign,
    )
    from repro.obs.monitor import ALERT, DeliveryMonitor
    from repro.obs.tlsrpt_monitor import TlsRptMonitor

    if args.resume and not args.state_dir:
        print("error: --resume requires --state-dir", file=sys.stderr)
        return 2
    if args.tlsrpt_out and args.state_dir:
        print("error: --tlsrpt-out cannot be combined with --state-dir "
              "(received-report state is not part of the wave "
              "checkpoint)", file=sys.stderr)
        return 2
    progress = None
    if args.progress:
        from repro.obs.progress import ProgressPrinter
        progress = ProgressPrinter()
    try:
        config = DeliveryCampaignConfig(
            scale=args.scale, seed=args.seed, month_index=args.month,
            senders=args.senders,
            messages_per_sender=args.messages_per_sender,
            sender_seed=args.sender_seed,
            backpressure=args.backpressure,
            wakeup_seconds=args.wakeup_seconds,
            fault_seed=args.fault_seed, fault_rate=args.fault_rate,
            tlsrpt=bool(args.tlsrpt_out))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_delivery_campaign(
            config, progress=progress,
            thresholds=_thresholds(args, DeliveryMonitor),
            state_dir=args.state_dir, resume=args.resume,
            tlsrpt_thresholds=_thresholds(args, TlsRptMonitor, "tlsrpt-"))
    except (StoreCorruption, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stats = result.stats
    if args.ledger_out:
        atomic_write_text(args.ledger_out, result.ledger_text)
        print(f"ledger: {result.ledger_text.count(chr(10)):,} rows "
              f"-> {args.ledger_out}")
    if args.metrics_out:
        records = result.monitor.write_jsonl(args.metrics_out)
        print(f"wave metrics: {records} records -> {args.metrics_out}")
    print(f"delivery: {stats.messages:,} messages from "
          f"{stats.senders:,} senders in {stats.waves} waves "
          f"({stats.deliver_seconds:.2f}s, "
          f"{stats.messages_per_second:,.0f} msg/s)")
    print(f"  delivered {stats.delivered:,} "
          f"({stats.delivered_plaintext:,} plaintext), "
          f"bounced {stats.bounced:,}, "
          f"{stats.attempts:,} attempts, "
          f"peak queue depth {stats.queue_depth_peak:,}")
    print(f"  ledger sha256 {result.ledger_digest}")
    report = result.health()
    print(report.render())
    exit_code = 1 if report.level == ALERT else 0
    if args.tlsrpt_out:
        out_dir = ensure_dir(args.tlsrpt_out)
        reports_path = os.path.join(out_dir, "reports.jsonl")
        atomic_write_text(reports_path, result.tlsrpt_reports_jsonl)
        monitor_path = os.path.join(out_dir, "monitor.jsonl")
        result.tlsrpt_monitor.write_jsonl(monitor_path)
        print(f"tlsrpt: {stats.reports_generated:,} report(s) generated, "
              f"{stats.reports_delivered:,} delivered "
              f"({stats.reports_bounced:,} bounced, "
              f"{stats.reports_missing_endpoint:,} without a published "
              f"rua), {stats.reports_received:,} received "
              f"-> {reports_path}")
        tlsrpt_report = result.tlsrpt_monitor.health()
        print(tlsrpt_report.render())
        if tlsrpt_report.level == ALERT:
            exit_code = 1
    return exit_code


def _cmd_tlsrpt(args) -> int:
    import os

    from repro.core.reporting import ReportAggregator
    from repro.obs.monitor import ALERT
    from repro.obs.tlsrpt_monitor import TOP_FAILING_MTAS, TlsRptMonitor

    path = args.reports
    if os.path.isdir(path):
        path = os.path.join(path, "reports.jsonl")
    if not os.path.exists(path):
        print(f"error: {path}: no TLSRPT reports found", file=sys.stderr)
        return 2
    aggregator = ReportAggregator()
    for line in _read_text(path).splitlines():
        if line.strip():
            aggregator.ingest(line)
    monitor = TlsRptMonitor(_thresholds(args, TlsRptMonitor))
    monitor.observe_reports(aggregator.reports)
    census = aggregator.census()
    print(f"tlsrpt: {census['reports']:,} report(s) covering "
          f"{census['domains']:,} domain(s), "
          f"{census['sessions']:,} session(s) "
          f"({census['failed_sessions']:,} failed), "
          f"{census['malformed']} malformed submission(s)")
    for rtype, count in census["failures_by_result_type"].items():
        print(f"  {rtype:<28}: {count}")
    top = monitor.failing_mtas()
    if top:
        print("  top failing sending MTAs:")
        for org, count in top[:TOP_FAILING_MTAS]:
            print(f"    {org:<26}: {count} failed session(s)")
    if args.monitor_out:
        records = monitor.write_jsonl(args.monitor_out)
        print(f"window metrics: {records} records -> {args.monitor_out}")
    report = monitor.health()
    print(report.render())
    return 1 if report.level == ALERT else 0


def _cmd_serve(args) -> int:
    from repro.measurement.serve import ServeConfig, run_serve
    from repro.obs.exporters import prometheus_exposition
    from repro.obs.monitor import ALERT, ServeMonitor

    progress = None
    if args.progress:
        def progress(served, total):
            print(f"\rserve: {served:,}/{total:,} requests "
                  f"({served / total:.0%})", end="", file=sys.stderr)
            if served >= total:
                print(file=sys.stderr)
    try:
        config = ServeConfig(
            scale=args.scale, seed=args.seed, query_seed=args.query_seed,
            requests=args.requests, batch_size=args.batch_size,
            month_index=args.month, months=args.months,
            ttl_seconds=args.ttl_seconds,
            min_ttl_seconds=args.min_ttl_seconds,
            zipf_s=args.zipf_s, flash_every=args.flash_every,
            flash_size=args.flash_size, record_every=args.record_every)
        result = run_serve(config,
                           thresholds=_thresholds(args, ServeMonitor),
                           progress=progress)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = result.stats
    if args.metrics_out:
        records = result.monitor.write_jsonl(args.metrics_out)
        print(f"window metrics: {records} records -> {args.metrics_out}")
    if args.prom_out:
        from repro.fsutil import atomic_write_text
        atomic_write_text(args.prom_out, prometheus_exposition(
            result.total_registry, labels={"command": "serve"}))
        print(f"prometheus metrics -> {args.prom_out}")
    print(f"serve: {stats.requests:,} requests "
          f"({stats.flash_requests:,} from flash crowds) over "
          f"{stats.months} month(s) "
          f"({stats.serve_seconds:.2f}s, "
          f"{stats.requests_per_second:,.0f} req/s)")
    print(f"  verdicts computed {stats.computations:,}, cache hits "
          f"{stats.hits:,}, collapsed in flight {stats.collapsed:,} "
          f"(hit rate {stats.hit_rate:.2%})")
    print(f"  stampede fan-in peak {stats.stampede_fanin_peak:,}, "
          f"evictions {stats.evictions:,}, "
          f"{stats.cache_entries:,} entries cached, "
          f"p99 virtual latency {result.p99_latency_seconds:.3f}s")
    report = result.health()
    print(report.render())
    return 1 if report.level == ALERT else 0


def _cmd_monitor(args) -> int:
    import os

    from repro.analysis.report import render_drift_table
    from repro.errors import StoreCorruption
    from repro.obs.monitor import ALERT, CampaignMonitor

    if args.feed != "-" and os.path.isdir(args.feed):
        # A directory is a checkpointed campaign store: health is
        # re-evaluated from the persisted snapshots and stats rather
        # than a pre-rendered metrics feed.
        try:
            monitor = CampaignMonitor.from_state(
                args.feed, _thresholds(args, CampaignMonitor))
        except StoreCorruption as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        monitor = CampaignMonitor.from_jsonl(
            _read_text(args.feed), _thresholds(args, CampaignMonitor))
    if not monitor.records:
        print(f"no monthly records found in {args.feed}")
        return 1
    print(render_drift_table(monitor.drift()), end="")
    print()
    report = monitor.health()
    print(report.render())
    return 1 if report.level == ALERT else 0


def _add_threshold_arguments(parser, monitor, prefix: str = "") -> None:
    """One ``--[prefix]<bound>`` flag per threshold of *monitor*'s rule
    table, parsed by the bound's kind."""
    from repro.obs.monitor import COUNT, NUMBER, RATE

    kinds = {RATE: (_rate, "R"), NUMBER: (_non_negative_number, "N"),
             COUNT: (_positive_int, "N")}
    for bound in monitor.threshold_class.bounds:
        parse, metavar = kinds[bound.kind]
        flag = prefix + bound.name.replace("_", "-")
        parser.add_argument(f"--{flag}", type=parse, default=None,
                            dest=flag.replace("-", "_"),
                            metavar=bound.metavar or metavar,
                            help=bound.help)


def _thresholds(args, monitor, prefix: str = ""):
    """*monitor*'s thresholds with the flags given on the command line."""
    given = {}
    for bound in monitor.threshold_class.bounds:
        value = getattr(args, (prefix + bound.name).replace("-", "_"))
        if value is not None:
            given[bound.name] = value
    return monitor.threshold_class(**given)


def _cmd_survey(args) -> int:
    from repro.survey.analysis import analyze
    from repro.survey.synthesize import synthesize_respondents

    findings = analyze(synthesize_respondents())
    rows = [
        ("heard of MTA-STS", findings.heard_of_mta_sts),
        ("deployed MTA-STS", findings.deployed),
        ("motivation: prevent downgrade", findings.motivation_downgrade),
        ("bottleneck: operational complexity",
         findings.bottleneck_complexity),
        ("not deployed: use DANE instead", findings.not_deployed_use_dane),
        ("management: policy updates hard", findings.mgmt_updates_hard),
        ("updates: TXT record first", findings.update_txt_first),
        ("heard of DANE", findings.heard_dane),
        ("DANE judged superior", findings.dane_superior),
    ]
    print(f"survey respondents: {findings.engaged}")
    for label, (count, denominator, percent) in rows:
        print(f"  {label:<36} {count:>3}/{denominator:<3} "
              f"({percent:.1f}%)")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}")
    return value


def _resolve_jobs(jobs: int, backend: str) -> int:
    """Resolve ``--jobs 0`` (auto-detect) at the CLI layer.

    Auto means every core for the process backend and one worker for
    serial; :class:`~repro.measurement.executor.ScanExecutor` itself
    never clamps — an explicit ``--jobs N`` on a backend that cannot
    honour it is an error, not a silent downgrade.
    """
    if jobs:
        return jobs
    if backend == "serial":
        return 1
    import os
    return os.cpu_count() or 1


def _rate(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a rate in [0, 1], got {value}")
    return value


def _positive_number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}")
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite number > 0, got {value}")
    return value


def _non_negative_number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}")
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite non-negative number, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    from repro.obs.monitor import (
        CampaignMonitor, DeliveryMonitor, ServeMonitor,
    )
    from repro.obs.tlsrpt_monitor import TlsRptMonitor

    parser = argparse.ArgumentParser(
        prog="repro",
        description="MTA-STS deployment & management toolkit "
                    "(IMC 2025 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    lint_record = sub.add_parser("lint-record",
                                 help="validate an _mta-sts TXT string")
    lint_record.add_argument("record")
    lint_record.set_defaults(handler=_cmd_lint_record)

    lint_policy = sub.add_parser("lint-policy",
                                 help="validate a policy file ('-' = stdin)")
    lint_policy.add_argument("file")
    lint_policy.set_defaults(handler=_cmd_lint_policy)

    check_zone = sub.add_parser("check-zone",
                                help="offline assessment from a zone file")
    check_zone.add_argument("zonefile")
    check_zone.add_argument("domain")
    check_zone.add_argument("--policy", help="the intended policy file")
    check_zone.add_argument("--origin", help="zone origin when the file "
                                             "has no $ORIGIN")
    check_zone.set_defaults(handler=_cmd_check_zone)

    plan = sub.add_parser("plan-removal",
                          help="print the RFC 8461 removal sequence")
    plan.add_argument("domain")
    plan.add_argument("max_age", type=int)
    plan.set_defaults(handler=_cmd_plan_removal)

    audit = sub.add_parser("audit",
                           help="scan the synthetic ecosystem snapshot")
    audit.add_argument("--scale", type=_positive_number, default=0.01)
    audit.add_argument("--seed", type=int, default=20240929)
    audit.add_argument("--month", type=int, default=None)
    audit.add_argument("--show-repairs", type=_non_negative_int, default=0,
                       metavar="N",
                       help="print repair plans for N misconfigured "
                            "domains")
    audit.add_argument("--backend", choices=("serial", "process"),
                       default="serial",
                       help="scan execution backend (both produce "
                            "identical snapshots; 'process' runs "
                            "shard workers in separate processes, each "
                            "materialising only its population slice)")
    audit.add_argument("--jobs", type=_non_negative_int, default=1,
                       metavar="N",
                       help="workers for the process backend "
                            "(0 = one per CPU core)")
    audit.add_argument("--stats", action="store_true",
                       help="print the per-stage scan statistics table")
    audit.add_argument("--json", action="store_true",
                       help="with --stats: emit the statistics as a "
                            "single JSON document on stdout (all other "
                            "output moves to stderr)")
    audit.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the scan's metrics registry as a "
                            "Prometheus text exposition to FILE "
                            "(written atomically)")
    audit.add_argument("--profile", action="store_true",
                       help="record wall-clock stage timers and print "
                            "the flame-style profile")
    audit.add_argument("--progress", action="store_true",
                       help="print live scan heartbeats to stderr")
    audit.add_argument("--fault-seed", type=int, default=None,
                       metavar="SEED",
                       help="inject deterministic network faults into "
                            "the scan, seeded by SEED")
    audit.add_argument("--fault-rate", type=_rate, default=0.2,
                       metavar="R",
                       help="fraction of endpoints the seeded fault "
                            "plan afflicts (default 0.2, range [0, 1])")
    audit.add_argument("--trace", default=None, metavar="FILE",
                       help="write the scan's span trees and metrics "
                            "as JSONL to FILE")
    audit.add_argument("--explain", default=None, metavar="DOMAIN",
                       help="print the span tree explaining DOMAIN's "
                            "scan verdict")
    audit.add_argument("--save", default=None, metavar="DIR",
                       help="commit the scanned month into the campaign "
                            "store at DIR")
    audit.add_argument("--load", default=None, metavar="DIR",
                       help="run the census offline from the campaign "
                            "store at DIR instead of scanning "
                            "(--month picks a committed month; default "
                            "is the latest)")
    audit.set_defaults(handler=_cmd_audit)

    campaign = sub.add_parser(
        "campaign",
        help="run the monthly scan campaign with health monitoring")
    campaign.add_argument("--scale", type=_positive_number, default=0.01)
    campaign.add_argument("--seed", type=int, default=20240929)
    campaign.add_argument("--metrics-out", default=None, metavar="FILE",
                          help="write the monthly metrics JSONL feed to "
                               "FILE (written atomically)")
    campaign.add_argument("--progress", action="store_true",
                          help="print live scan heartbeats to stderr")
    campaign.add_argument("--state-dir", default=None, metavar="DIR",
                          help="checkpoint every completed month into "
                               "the campaign store at DIR")
    campaign.add_argument("--resume", action="store_true",
                          help="with --state-dir: resume from the last "
                               "committed month instead of refusing to "
                               "reuse a non-empty store")
    campaign.add_argument("--fault-seed", type=int, default=None,
                          metavar="SEED",
                          help="inject deterministic network faults into "
                               "every month's scan, seeded by SEED")
    campaign.add_argument("--fault-rate", type=_rate, default=0.2,
                          metavar="R",
                          help="fraction of endpoints each month's fault "
                               "plan afflicts (default 0.2, range [0, 1])")
    _add_threshold_arguments(campaign, CampaignMonitor)
    campaign.set_defaults(handler=_cmd_campaign)

    campaign_sub = campaign.add_subparsers(dest="campaign_command")
    deliver = campaign_sub.add_parser(
        "deliver",
        help="run the campaign-scale delivery engine against the "
             "materialised world")
    deliver.add_argument("--scale", type=_positive_number, default=0.02,
                         help="recipient world scale (default 0.02)")
    deliver.add_argument("--seed", type=int, default=11,
                         help="recipient population seed")
    deliver.add_argument("--month", type=int, default=3,
                         help="scan month to materialise (default 3)")
    deliver.add_argument("--senders", type=_positive_int, default=120,
                         metavar="N",
                         help="sender-domain count (§6.2 population: "
                              "2394)")
    deliver.add_argument("--messages-per-sender", type=_positive_int,
                         default=4, dest="messages_per_sender",
                         metavar="M",
                         help="messages queued per sender domain")
    deliver.add_argument("--sender-seed", type=int, default=20230201,
                         dest="sender_seed",
                         help="§6.2 sender-population seed")
    deliver.add_argument("--backpressure", type=_positive_int,
                         default=10_000, metavar="N",
                         help="global in-flight message bound")
    deliver.add_argument("--wakeup-seconds", type=_positive_int,
                         default=900, dest="wakeup_seconds", metavar="S",
                         help="batched wake-up granularity in virtual "
                              "seconds (default 900)")
    deliver.add_argument("--fault-seed", type=int, default=None,
                         dest="fault_seed",
                         help="seed a deterministic network fault plan")
    deliver.add_argument("--fault-rate", type=_rate, default=0.2,
                         dest="fault_rate",
                         help="share of listeners the fault plan "
                              "degrades (default 0.2)")
    deliver.add_argument("--ledger-out", default=None, metavar="FILE",
                         dest="ledger_out",
                         help="write the canonical delivery ledger "
                              "JSONL to FILE")
    deliver.add_argument("--metrics-out", default=None, metavar="FILE",
                         dest="metrics_out",
                         help="write the per-wave metrics JSONL to FILE")
    deliver.add_argument("--progress", action="store_true",
                         help="live delivery heartbeats on stderr")
    deliver.add_argument("--state-dir", default=None, metavar="DIR",
                         dest="state_dir",
                         help="durably commit every wave (ledger "
                              "shards + manifest + checkpoint) at DIR")
    deliver.add_argument("--resume", action="store_true",
                         help="resume a committed campaign from its "
                              "checkpoint (requires --state-dir)")
    _add_threshold_arguments(deliver, DeliveryMonitor)
    deliver.add_argument("--tlsrpt-out", default=None, metavar="DIR",
                         dest="tlsrpt_out",
                         help="run the RFC 8460 reporting pipeline "
                              "alongside delivery and write the "
                              "received reports (reports.jsonl) and "
                              "ingestion-monitor windows "
                              "(monitor.jsonl) into DIR")
    _add_threshold_arguments(deliver, TlsRptMonitor, "tlsrpt-")
    deliver.set_defaults(handler=_cmd_campaign_deliver)

    tlsrpt = sub.add_parser(
        "tlsrpt",
        help="ingest a saved TLSRPT report feed and print the operator "
             "census and health")
    tlsrpt.add_argument("reports",
                        help="reports.jsonl file, or a directory "
                             "containing one (as written by campaign "
                             "deliver --tlsrpt-out)")
    tlsrpt.add_argument("--monitor-out", default=None, metavar="FILE",
                        dest="monitor_out",
                        help="write the rebuilt per-window monitor "
                             "JSONL to FILE")
    _add_threshold_arguments(tlsrpt, TlsRptMonitor)
    tlsrpt.set_defaults(handler=_cmd_tlsrpt)

    serve = sub.add_parser(
        "serve",
        help="replay a seeded query mix against the policy-checker "
             "service")
    serve.add_argument("--scale", type=_positive_number, default=0.02,
                       help="domain world scale (default 0.02)")
    serve.add_argument("--seed", type=int, default=11,
                       help="world population seed")
    serve.add_argument("--query-seed", type=int, default=97,
                       dest="query_seed",
                       help="query-mix seed (ranking, draws, and flash "
                            "crowds)")
    serve.add_argument("--requests", type=_positive_int, default=100_000,
                       metavar="N",
                       help="popularity-mix requests to replay "
                            "(default 100000; flash crowds ride on top)")
    serve.add_argument("--batch-size", type=_positive_int, default=2_000,
                       dest="batch_size", metavar="B",
                       help="requests served per tick at a frozen "
                            "virtual instant (default 2000)")
    serve.add_argument("--month", type=int, default=0,
                       help="first scan month to materialise (default 0)")
    serve.add_argument("--months", type=_positive_int, default=1,
                       metavar="K",
                       help="month snapshots the service lives through "
                            "(the world re-materialises at each "
                            "boundary; default 1)")
    serve.add_argument("--ttl-seconds", type=_positive_int,
                       default=86_400, dest="ttl_seconds", metavar="T",
                       help="default and maximum verdict TTL "
                            "(default 86400)")
    serve.add_argument("--min-ttl-seconds", type=_positive_int,
                       default=3_600, dest="min_ttl_seconds", metavar="T",
                       help="floor for policy-driven verdict TTLs "
                            "(default 3600)")
    serve.add_argument("--zipf-s", type=_positive_number, default=1.1,
                       dest="zipf_s", metavar="S",
                       help="popularity skew exponent (default 1.1)")
    serve.add_argument("--flash-every", type=int, default=16,
                       dest="flash_every", metavar="K",
                       help="ticks between flash crowds (0 = off; "
                            "default 16)")
    serve.add_argument("--flash-size", type=int, default=4_000,
                       dest="flash_size", metavar="N",
                       help="requests per flash crowd (default 4000)")
    serve.add_argument("--record-every", type=_positive_int, default=8,
                       dest="record_every", metavar="K",
                       help="ticks per metrics window record (default 8)")
    serve.add_argument("--metrics-out", default=None, metavar="FILE",
                       dest="metrics_out",
                       help="write the per-window metrics JSONL to FILE")
    serve.add_argument("--prom-out", default=None, metavar="FILE",
                       dest="prom_out",
                       help="write the replay's total metrics as a "
                            "Prometheus text exposition to FILE")
    serve.add_argument("--progress", action="store_true",
                       help="live replay heartbeats on stderr")
    _add_threshold_arguments(serve, ServeMonitor)
    serve.set_defaults(handler=_cmd_serve)

    monitor = sub.add_parser(
        "monitor",
        help="evaluate a saved monthly metrics JSONL feed "
             "('-' = stdin) or a campaign store directory")
    monitor.add_argument("feed", help="monthly metrics JSONL file, or a "
                                      "campaign store directory")
    _add_threshold_arguments(monitor, CampaignMonitor)
    monitor.set_defaults(handler=_cmd_monitor)

    survey = sub.add_parser("survey", help="print the §7.2 statistics")
    survey.set_defaults(handler=_cmd_survey)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())

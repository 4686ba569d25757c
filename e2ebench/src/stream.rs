//! `stream-window`: `StreamDriver` runs with the driver's default window,
//! churn and drift.
//!
//! Every epoch lands arrivals, expires old tuples, snapshots the window and
//! re-runs the whole live window, so the STeMs are built (inserted into)
//! from scratch each epoch; departures go through the quarantine path.
//! A cycle is one run of each of [`STREAMS`] independently seeded streams,
//! each from a fresh driver; a run repeats whole cycles.
//!
//! The driver runs epochs internally, so epochs are clocked through its
//! public `Recorder` hook: the hub relation expires tuples once per epoch
//! after the window has filled, and the time between two of those events
//! is one steady-state epoch. Set-up is the time from creating the driver
//! until the first of them: the driver itself plus filling the window.

use crate::check::mismatches;
use crate::ledger::{Ledger, LedgerData};
use crate::stats::{mean, median, peak_rss_mb, quantile, ratio, tail_quantile};
use crate::trace::{trace_path, Tracer};
use crate::{Args, Report};
use roulette_baselines::{ExecMode, QatEngine};
use roulette_exec::{CompletionStatus, QueryResult};
use roulette_query::{parse, to_sql, SpjQuery};
use roulette_stream::{ArrivalGen, DriftEvent, StreamConfig, StreamDriver, StreamReport};
use std::sync::Arc;
use std::time::Instant;

/// Streams per cycle. One stream's cost hangs on the few heavy queries its
/// churn happens to draw (joins on the skewed hot key multiply) and on
/// which two of the three drift injectors its seed picks, so a cycle runs
/// many independently seeded streams and the per-seed figures average out.
const STREAMS: usize = 64;

/// Dimensions of the star. With the default three, a query joining all of
/// them on the hot key multiplies its matches three ways: one 24-epoch
/// stream then yields 2.7–25.6 million result rows depending on its seed,
/// and routing those rows, not building STeMs, is the work. With two,
/// streams of one seed yield 2.0–6.7 million rows and a cycle of 64
/// streams takes about 10 s.
const DIMS: usize = 2;

/// Stream `k` of the cycle for `seed`: the driver's default configuration
/// (24 epochs, window 8, churn and two drift events) under its own seed,
/// on a two-dimension star.
fn config(seed: u64, k: usize) -> StreamConfig {
    let mut c =
        StreamConfig::default().with_seed(seed.wrapping_mul(STREAMS as u64).wrapping_add(k as u64));
    c.workload.dims = DIMS;
    c
}

/// One driver run's measurements.
struct Round {
    traced: bool,
    wall_s: f64,
    new_s: f64,
    setup_s: f64,
    epoch_ms: Vec<f64>,
    completed: u64,
    ledger: LedgerData,
}

fn run_round(
    cfg: &StreamConfig,
    traced: bool,
    origin: Instant,
) -> Result<(Round, StreamReport, Vec<DriftEvent>), String> {
    let ledger = Arc::new(Ledger::new(traced, origin));
    let t0 = Instant::now();
    let mut driver = StreamDriver::new(cfg.clone()).map_err(|e| format!("driver: {e}"))?;
    let new_s = t0.elapsed().as_secs_f64();
    driver.set_recorder(ledger.clone());
    let report = driver.run().map_err(|e| format!("stream run: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let ledger = ledger.snapshot();
    let start_ns = u64::try_from(t0.duration_since(origin).as_nanos()).unwrap_or(u64::MAX);
    let marks = &ledger.epoch_marks_ns;
    let expected = cfg.epochs.saturating_sub(cfg.window) as usize;
    if marks.len() != expected || expected == 0 {
        return Err(format!(
            "epoch clock saw {} hub expiries, expected {expected}",
            marks.len()
        ));
    }
    let setup_s = marks[0].saturating_sub(start_ns) as f64 / 1e9;
    let epoch_ms = marks
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64 / 1e6)
        .collect();
    let drifts = driver.schedule().events().to_vec();
    let completed = report.completed_total;
    let round = Round {
        traced,
        wall_s,
        new_s,
        setup_s,
        epoch_ms,
        completed,
        ledger,
    };
    Ok((round, report, drifts))
}

/// Operation accounting for one driver run: `(attempted, failed)`, and
/// whether every admitted query run reached exactly one terminal outcome.
fn account(s: &StreamReport) -> (u64, u64, bool) {
    // Scheduled departures lead each epoch's admitted vector and may end
    // quarantined; any other quarantine is a failure.
    let quarantined: u64 = s
        .epochs
        .iter()
        .map(|e| {
            let rest = e.results.iter().skip(e.departed);
            rest.filter(|q| q.status == CompletionStatus::Quarantined)
                .count() as u64
        })
        .sum();
    let terminal = s.leaked == 0 && s.completed_total + s.quarantined_total == s.admitted_total;
    (s.admitted_total, s.leaked + quarantined, terminal)
}

/// Rebuilds every epoch's snapshot and admitted queries outside the driver
/// (same generator, seed, call order and drift schedule, with arrivals and
/// departures read off the epoch traces, as `tests/stream_expiry.rs` does)
/// and computes each epoch's results with DBMS-V. Also times the window
/// layer's calls per epoch.
struct Replay {
    expected: Vec<Vec<QueryResult>>,
    generate_us: Vec<f64>,
    advance_us: Vec<f64>,
    snapshot_us: Vec<f64>,
    parse_us: Vec<f64>,
}

fn replay(
    cfg: &StreamConfig,
    drifts: &[DriftEvent],
    report: &StreamReport,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let mut gen = ArrivalGen::new(cfg.workload.clone(), cfg.seed);
    let mut store = gen.store().map_err(|e| e.to_string())?;
    let mut live: Vec<SpjQuery> = Vec::new();
    let mut out = Replay {
        expected: Vec::new(),
        generate_us: Vec::new(),
        advance_us: Vec::new(),
        snapshot_us: Vec::new(),
        parse_us: Vec::new(),
    };
    let us = |t0: Instant| t0.elapsed().as_secs_f64() * 1e6;
    for trace in &report.epochs {
        let epoch = trace.epoch;
        let span = tracer.open("stream.replay_epoch", epoch, Tracer::root());
        for d in drifts.iter().filter(|d| d.epoch == epoch) {
            gen.apply(d.kind);
        }
        let t0 = Instant::now();
        gen.generate(&mut store, epoch).map_err(|e| e.to_string())?;
        out.generate_us.push(us(t0));
        let t0 = Instant::now();
        store.advance(epoch, cfg.window);
        out.advance_us.push(us(t0));
        let t0 = Instant::now();
        let catalog = store.snapshot().map_err(|e| e.to_string())?;
        out.snapshot_us.push(us(t0));
        let arrivals = trace.admitted.checked_sub(live.len()).ok_or_else(|| {
            format!(
                "epoch {epoch}: {} admitted, {} live",
                trace.admitted,
                live.len()
            )
        })?;
        let mut admitted = live.clone();
        admitted.extend(gen.queries(&catalog, arrivals).map_err(|e| e.to_string())?);
        for q in &admitted {
            let sql = to_sql(&catalog, q);
            let t0 = Instant::now();
            std::hint::black_box(parse(&catalog, &sql).map_err(|e| format!("parse {sql}: {e}"))?);
            out.parse_us.push(us(t0));
        }
        out.expected
            .push(QatEngine::new(&catalog, ExecMode::Vectorized, 7).execute_serial(&admitted));
        // Departing queries lead the admitted vector; the rest stay live if
        // they completed.
        live = admitted
            .into_iter()
            .zip(&trace.results)
            .enumerate()
            .filter(|(i, (_, r))| *i >= trace.departed && r.status == CompletionStatus::Complete)
            .map(|(_, (q, _))| q)
            .collect();
        tracer.close(span);
    }
    Ok(out)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);
    let configs: Vec<StreamConfig> = (0..STREAMS).map(|k| config(args.seed, k)).collect();
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let mut rounds: Vec<Round> = Vec::new();
    // Each stream's first run, kept for the reference check; later runs
    // of the stream must repeat its results.
    let mut firsts: Vec<(StreamReport, Vec<DriftEvent>)> = Vec::new();
    // A traced run needs at least one untraced and one traced cycle.
    let min_cycles = if args.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut cycle = 0u64;
    while cycle < min_cycles || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && cycle % 2 == 1;
        for (k, cfg) in configs.iter().enumerate() {
            let span = tracer.open("stream.run", k as u64, Tracer::root());
            let (round, run, drifts) = run_round(cfg, traced, origin)?;
            tracer.close(span);
            let (attempted, failed, terminal) = account(&run);
            report.attempted += attempted;
            report.failed += failed;
            if !terminal {
                eprintln!(
                    "stream-window: stream {k}: admitted {} completed {} quarantined {} leaked {}",
                    run.admitted_total, run.completed_total, run.quarantined_total, run.leaked
                );
                report.correct = false;
            }
            match firsts.get(k) {
                None => firsts.push((run, drifts)),
                Some((first, _)) => {
                    let differing: usize = run
                        .epochs
                        .iter()
                        .zip(&first.epochs)
                        .map(|(e, f)| mismatches(&e.results, &f.results).len())
                        .sum();
                    if differing > 0 || first.episodes_total != run.episodes_total {
                        eprintln!("stream-window: stream {k}: a later run differs from its first");
                        report.correct = false;
                    }
                }
            }
            rounds.push(round);
        }
        cycle += 1;
    }
    let peak_rss = peak_rss_mb()?;

    let mut replays = Vec::new();
    for (k, (cfg, (first, drifts))) in configs.iter().zip(&firsts).enumerate() {
        let rep = replay(cfg, drifts, first, &mut tracer)?;
        for (e, want) in first.epochs.iter().zip(&rep.expected) {
            let bad = mismatches(&e.results, want);
            if !bad.is_empty() {
                eprintln!(
                    "stream-window: stream {k} epoch {}: results differ from DBMS-V: {bad:?}",
                    e.epoch
                );
                report.correct = false;
            }
        }
        replays.push(rep);
    }
    let sum = |f: &dyn Fn(&StreamReport) -> u64| firsts.iter().map(|(s, _)| f(s)).sum::<u64>();
    let (episodes, expired) = (sum(&|s| s.episodes_total), sum(&|s| s.expired_total));
    eprintln!("counts: exec.episodes={episodes} stream.expired_rows={expired} cycles={cycle}");

    let epochs = |traced: bool| -> Vec<f64> {
        rounds
            .iter()
            .filter(|r| r.traced == traced)
            .flat_map(|r| r.epoch_ms.iter().copied())
            .collect()
    };
    let untraced = epochs(false);
    let epoch_p50 = median(&untraced);
    if !args.trace {
        let completed: u64 = rounds.iter().map(|r| r.completed).sum();
        let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
        report.set(
            "setup_s",
            median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        );
        report.set("qps", completed as f64 / wall);
        report.set("p50_ms", epoch_p50);
        report.set("p99_ms", tail_quantile(&untraced, 0.99));
        report.set("peak_rss_mb", peak_rss);
        return Ok(report);
    }

    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    if traced.len() < STREAMS {
        return Err("no traced cycle ran; raise --seconds".into());
    }
    // One traced run of every stream: the per-cycle ledger.
    let mut l = LedgerData::default();
    for r in &traced[..STREAMS] {
        l.scanned += r.ledger.scanned;
        l.selected += r.ledger.selected;
        l.inserted += r.ledger.inserted;
        l.probe_batches += r.ledger.probe_batches;
        l.probe_tuples += r.ledger.probe_tuples;
        l.scratch_hits += r.ledger.scratch_hits;
        l.scratch_misses += r.ledger.scratch_misses;
    }
    let all = |f: &dyn Fn(&Replay) -> &Vec<f64>| {
        replays
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect::<Vec<f64>>()
    };
    let (g, a, s) = (
        median(&all(&|r| &r.generate_us)),
        median(&all(&|r| &r.advance_us)),
        median(&all(&|r| &r.snapshot_us)),
    );
    report.set(
        "storage.load_s",
        median(&rounds.iter().map(|r| r.new_s).collect::<Vec<_>>()),
    );
    report.set("query.parse_us", median(&all(&|r| &r.parse_us)));
    report.set("exec.episodes", episodes as f64);
    let episode_us: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.ledger.episode_us.iter().copied())
        .collect();
    report.set("exec.episode_us.p50", median(&episode_us));
    report.set("exec.episode_us.p99", quantile(&episode_us, 0.99));
    report.set("exec.inserted_tuples", l.inserted as f64);
    report.set(
        "exec.selected_per_scanned",
        ratio(l.selected as f64, l.scanned as f64),
    );
    report.set(
        "exec.probe_batch_mean",
        ratio(l.probe_tuples as f64, l.probe_batches as f64),
    );
    report.set(
        "exec.scratch_hit_ratio",
        ratio(
            l.scratch_hits as f64,
            (l.scratch_hits + l.scratch_misses) as f64,
        ),
    );
    report.set("stream.generate_us", g);
    report.set("stream.advance_us", a);
    report.set("stream.snapshot_us", s);
    report.set("stream.session_ms", epoch_p50 - (g + a + s) / 1e3);
    let live: Vec<f64> = firsts
        .iter()
        .flat_map(|(s, _)| s.epochs.iter().map(|e| e.live_rows as f64))
        .collect();
    report.set("stream.live_rows_mean", mean(&live));
    report.set("stream.expired_rows", expired as f64);
    report.set(
        "stream.episodes_per_epoch",
        episodes as f64 / configs.iter().map(|c| c.epochs).sum::<u64>() as f64,
    );
    report.set(
        "telemetry.overhead_pct",
        (median(&epochs(true)) / epoch_p50 - 1.0) * 100.0,
    );
    tracer
        .write_jsonl(&trace_path(&args.workload, args.seed))
        .map_err(|e| format!("writing trace: {e}"))?;
    Ok(report)
}

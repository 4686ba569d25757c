//! `batch-tpcds`: the Fig. 11 default point, one batch run again and again.
//!
//! TPC-DS-like snowflake-store data at scale factor 0.4 and a batch of 256
//! queries with 4 joins and 10% selectivity. Every round builds a fresh
//! engine, so the learned policy starts cold as in the paper; the wide
//! query-sets put nearly all the work in grouped filters, the query-set
//! kernels, routing and STeM probes. No wire or window code runs.
//!
//! Traced runs alternate untraced and traced rounds in one process, so the
//! tracing overhead is measured against the same host state.

use crate::check::mismatches;
use crate::ledger::{Ledger, PolicyTimes, TimedPolicy};
use crate::stats::{mean, median, peak_rss_mb, quantile, ratio, tail_quantile};
use crate::trace::{trace_path, Tracer};
use crate::{Args, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;
use roulette_baselines::{ExecMode, QatEngine};
use roulette_core::EngineConfig;
use roulette_exec::{BatchOutcome, EngineStats, QueryResult, RouletteEngine};
use roulette_query::generator::{sample_batch, tpcds_pool, SensitivityParams};
use roulette_query::{parse, to_sql, SpjQuery};
use roulette_storage::datagen::tpcds::{self, TpcdsDataset};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

const SCALE_FACTOR: f64 = 0.4;
const BATCH: usize = 256;
/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 31;

/// Generates the catalog and the batch; returns them with the seconds the
/// catalog took.
fn setup(seed: u64) -> Result<(TpcdsDataset, Vec<SpjQuery>, f64), String> {
    let t0 = Instant::now();
    let ds = tpcds::generate(SCALE_FACTOR, seed);
    let load_s = t0.elapsed().as_secs_f64();
    let pool = tpcds_pool(&ds, SensitivityParams::default(), BATCH * 2, seed ^ 0xB47C)
        .map_err(|e| format!("query pool: {e}"))?;
    let queries = sample_batch(&pool, BATCH, &mut StdRng::seed_from_u64(seed ^ 0x5A5A));
    Ok((ds, queries, load_s))
}

/// One traced round's ledger.
struct Traced {
    wall_s: f64,
    stats: EngineStats,
    policy: Arc<PolicyTimes>,
    ledger: crate::ledger::LedgerData,
    result_rows: u64,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);
    let mut setup_s = Vec::new();
    let mut load_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let span = tracer.open("storage.setup", 0, Tracer::root());
        let (ds, queries, load) = setup(args.seed)?;
        tracer.close(span);
        setup_s.push(t0.elapsed().as_secs_f64());
        load_s.push(load);
        prepared = Some((ds, queries));
    }
    let (ds, queries) = prepared.ok_or("no set-up ran")?;
    let catalog = &ds.catalog;
    let config = EngineConfig::default();

    let mut untraced_walls = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    // Round 0's results, and how many queries in later rounds differed
    // from them or did not complete.
    let mut first_results: Vec<QueryResult> = Vec::new();
    let (mut differing, mut incomplete) = (0u64, 0u64);
    let mut untraced_counts: Option<(u64, u64)> = None;
    // Round 0 warms the allocator and caches up and is not timed; its
    // results are checked like every other round's. A traced run needs at
    // least one traced and one untraced timed round.
    let min_rounds = if args.trace { 3 } else { 2 };
    let mut start = Instant::now();
    let mut round = 0u64;
    while round < min_rounds || start.elapsed().as_secs_f64() < args.seconds {
        let is_traced = args.trace && round % 2 == 1;
        let span = tracer.open("batch.round", round, Tracer::root());
        let t0 = Instant::now();
        let (outcome, hooks) = if is_traced {
            let times = Arc::new(PolicyTimes::default());
            let ledger = Arc::new(Ledger::new(true, origin));
            let mut engine = RouletteEngine::new(catalog, config.clone());
            engine.set_recorder(ledger.clone());
            let policy = Box::new(TimedPolicy::new(&config, Arc::clone(&times)));
            let exec = tracer.open("exec.execute_batch", round, span);
            let out = engine.execute_batch_with_policy(&queries, policy);
            tracer.close(exec);
            (out, Some((times, ledger)))
        } else {
            let engine = RouletteEngine::new(catalog, config.clone());
            let exec = tracer.open("exec.execute_batch", round, span);
            let out = engine.execute_batch(&queries);
            tracer.close(exec);
            (out, None)
        };
        let wall = t0.elapsed().as_secs_f64();
        tracer.close(span);
        let BatchOutcome {
            per_query, stats, ..
        } = outcome.map_err(|e| format!("round {round}: {e}"))?;
        let counts = (stats.episodes, stats.join_tuples);
        match hooks {
            Some((policy, ledger)) => {
                let result_rows = per_query.iter().map(|r| r.rows).sum();
                traced.push(Traced {
                    wall_s: wall,
                    stats,
                    policy,
                    ledger: ledger.snapshot(),
                    result_rows,
                });
            }
            None => {
                untraced_walls.push(wall);
                untraced_counts.get_or_insert(counts);
            }
        }
        // Traced or not, every round does the same work.
        if untraced_counts.is_some_and(|c| c != counts) {
            return Err(format!(
                "round {round} ran {counts:?} (episodes, join tuples), round 0 {untraced_counts:?}"
            ));
        }
        if round == 0 {
            untraced_walls.clear();
            start = Instant::now();
        }
        incomplete += per_query.iter().filter(|q| !q.is_complete()).count() as u64;
        if round == 0 {
            first_results = per_query;
        } else {
            differing += mismatches(&per_query, &first_results).len() as u64;
        }
        round += 1;
    }
    let peak_rss = peak_rss_mb()?;

    // Reference: DBMS-V over the same catalog and queries.
    let reference = QatEngine::new(catalog, ExecMode::Vectorized, 7).execute_serial(&queries);
    let bad = mismatches(&first_results, &reference);
    if !bad.is_empty() {
        eprintln!(
            "batch-tpcds: {} results differ from DBMS-V: {bad:?}",
            bad.len()
        );
    }
    if differing > 0 {
        eprintln!("batch-tpcds: {differing} results of later rounds differ from round 0");
    }
    let mut report = Report {
        correct: bad.is_empty() && differing == 0,
        attempted: round * BATCH as u64,
        failed: incomplete,
        ..Report::default()
    };
    let (episodes, join_tuples) = untraced_counts.ok_or("no untraced round ran")?;
    eprintln!("counts: exec.episodes={episodes} exec.join_tuples={join_tuples} rounds={round}");

    if !args.trace {
        report.set("setup_s", median(&setup_s));
        let walls = &untraced_walls;
        report.set(
            "qps",
            (BATCH * walls.len()) as f64 / walls.iter().sum::<f64>(),
        );
        report.set("p50_ms", median(walls) * 1e3);
        report.set("p99_ms", tail_quantile(walls, 0.99) * 1e3);
        report.set("peak_rss_mb", peak_rss);
        return Ok(report);
    }

    // The ledger: per-round means over the traced rounds.
    let parse_us = time_parse(catalog, &queries, &mut tracer)?;
    layer_metrics(&mut report, &traced)?;
    report.set("storage.load_s", median(&load_s));
    report.set("query.parse_us", parse_us);
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.wall_s).collect();
    report.set(
        "telemetry.overhead_pct",
        (median(&traced_walls) / median(&untraced_walls) - 1.0) * 100.0,
    );
    tracer
        .write_jsonl(&trace_path(&args.workload, args.seed))
        .map_err(|e| format!("writing trace: {e}"))?;
    Ok(report)
}

/// Median microseconds `roulette_query::parse` takes per query of the
/// batch, over the batch's own SQL.
fn time_parse(
    catalog: &roulette_storage::Catalog,
    queries: &[SpjQuery],
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let sql: Vec<String> = queries.iter().map(|q| to_sql(catalog, q)).collect();
    let mut us = Vec::with_capacity(sql.len() * 4);
    for rep in 0..4 {
        for (i, s) in sql.iter().enumerate() {
            let t0 = Instant::now();
            let q = parse(catalog, s).map_err(|e| format!("parse {s}: {e}"))?;
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if rep == 0 {
                tracer.record("query.parse", i as u64, Tracer::root(), ns);
            }
            std::hint::black_box(q);
            us.push(ns as f64 / 1e3);
        }
    }
    Ok(median(&us))
}

fn layer_metrics(report: &mut Report, traced: &[Traced]) -> Result<(), String> {
    let first = traced
        .first()
        .ok_or("no traced round ran; raise --seconds")?;
    let per_round = |f: &dyn Fn(&Traced) -> f64| mean(&traced.iter().map(f).collect::<Vec<_>>());
    let phases =
        |s: &EngineStats| (s.filter_ns + s.build_ns + s.probe_ns + s.route_ns) as f64 / 1e9;
    let mut other = Vec::new();
    for (i, t) in traced.iter().enumerate() {
        let rest = t.wall_s - phases(&t.stats) - t.policy.total_s();
        if rest < 0.0 {
            return Err(format!(
                "traced round {i}: phases and policy exceed wall time by {}s",
                -rest
            ));
        }
        other.push(rest);
    }
    let s = first.stats;
    let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed) as f64;
    report.set("policy.choose_calls", load(&first.policy.choose_calls));
    report.set(
        "policy.choose_s",
        per_round(&|t| load(&t.policy.choose_ns) / 1e9),
    );
    report.set(
        "policy.observe_s",
        per_round(&|t| load(&t.policy.observe_ns) / 1e9),
    );
    report.set("policy.q_entries", load(&first.policy.q_entries));
    report.set(
        "policy.join_tuples_per_row",
        ratio(s.join_tuples as f64, first.result_rows as f64),
    );
    report.set("exec.episodes", s.episodes as f64);
    let episode_us: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.ledger.episode_us.iter().copied())
        .collect();
    report.set("exec.episode_us.p50", median(&episode_us));
    report.set("exec.episode_us.p99", quantile(&episode_us, 0.99));
    report.set(
        "exec.filter_s",
        per_round(&|t| t.stats.filter_ns as f64 / 1e9),
    );
    report.set(
        "exec.build_s",
        per_round(&|t| t.stats.build_ns as f64 / 1e9),
    );
    report.set(
        "exec.probe_s",
        per_round(&|t| t.stats.probe_ns as f64 / 1e9),
    );
    report.set(
        "exec.route_s",
        per_round(&|t| t.stats.route_ns as f64 / 1e9),
    );
    report.set("exec.other_s", mean(&other));
    report.set("exec.join_tuples", s.join_tuples as f64);
    report.set("exec.inserted_tuples", s.inserted_tuples as f64);
    report.set("exec.pruned_tuples", s.pruned_tuples as f64);
    report.set("exec.materialized_cells", s.materialized_cells as f64);
    let l = &first.ledger;
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
    report.set("exec.stem_mb", s.stem_bytes as f64 / 1e6);
    Ok(())
}

//! `serve-chains`: an in-process `roulette-server` hosting the chains demo
//! catalog, driven over TCP by two closed-loop connections.
//!
//! The hosted catalog is fixed and the seed draws the SQL pool, as for a
//! server whose database stays put while its query stream varies.
//!
//! Each connection sends the seeded SQL pool once per pass and waits for
//! every reply before sending the next request. Projecting queries ask for
//! `ROWS` (1,000–1,500 `ROW` lines each); `count(*)` queries get one
//! terminal line. Request parsing, admission, micro-batching and result
//! streaming dominate; each shared session does little engine work.
//!
//! Traced runs alternate untraced and traced passes on each connection.

use crate::check::RowTally;
use crate::stats::{median, peak_rss_mb, ratio, tail_quantile};
use crate::trace::{trace_path, Tracer};
use crate::{Args, Report};
use roulette_baselines::{ExecMode, QatEngine};
use roulette_query::parse;
use roulette_server::{demo_dataset, demo_sql, Request, Response, Server, ServerConfig};
use roulette_telemetry::{Histogram, Telemetry};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Distinct SQL statements in the pool.
const POOL: usize = 256;
/// The hosted catalog is `roulette-server`'s default demo dataset
/// (`--workload-seed 11`). The dataset seed draws each chain's join fan-out,
/// which moved the `ROW` lines per pass by ±20% between seeds and `qps`
/// with them; the pool's 256 statements average their own variation out.
const CATALOG_SEED: u64 = 11;
/// Set-ups (catalog, server start, first `PING`) timed per run.
const SETUPS: usize = 31;

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Connection {
    fn open(addr: SocketAddr) -> Result<Connection, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Connection {
            reader,
            writer,
            line: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())
    }

    /// The next response line; `None` when the server hung up.
    fn recv(&mut self) -> Option<Result<Response, String>> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(Response::parse(&self.line).map_err(|e| e.to_string())),
        }
    }
}

/// Catalog, server start-up and a first answered `PING`.
fn start() -> Result<(Server, Connection, f64), String> {
    let t0 = Instant::now();
    let ds = demo_dataset(CATALOG_SEED);
    let load_s = t0.elapsed().as_secs_f64();
    let server = Server::start(
        ServerConfig::default(),
        ds.catalog,
        Telemetry::with_defaults(),
    )
    .map_err(|e| format!("server start: {e}"))?;
    let mut conn = Connection::open(server.local_addr())?;
    conn.send("PING\n").map_err(|e| format!("PING: {e}"))?;
    match conn.recv() {
        Some(Ok(Response::Pong)) => Ok((server, conn, load_s)),
        other => Err(format!("PING answered {other:?}")),
    }
}

/// One request of the pool: its wire line and whether it streams rows.
struct Pooled {
    line: String,
    want_rows: bool,
}

/// What one client connection saw.
#[derive(Default)]
struct ClientRun {
    attempted: u64,
    ok: u64,
    failed: u64,
    /// `ROW` lines that did not add up to their terminal `OK`, or a second
    /// answer to the same SQL that differed from the first.
    bad: u64,
    passes: u64,
    row_lines: u64,
    /// Untraced round trips with the moment each ended.
    rtt_untraced_ms: Vec<(Instant, f64)>,
    rtt_all_ms: Vec<f64>,
    /// (traced?, wall seconds) per pass.
    pass_walls: Vec<(bool, f64)>,
    /// First `OK (rows, checksum)` per pool index.
    answers: HashMap<usize, (u64, u64)>,
    /// Rows of the first traced pass, for timing `Response::encode`.
    sample_rows: Vec<Vec<i64>>,
}

fn client(
    mut conn: Connection,
    order: &[usize],
    pool: &[Pooled],
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
    client_id: u64,
) -> ClientRun {
    let mut out = ClientRun::default();
    let start = Instant::now();
    // A traced run needs at least one untraced and one traced pass.
    let min_passes = if trace { 2 } else { 1 };
    'passes: while out.passes < min_passes || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && out.passes % 2 == 1;
        let keep_rows = traced && out.sample_rows.is_empty();
        let pass_id = (client_id << 32) | out.passes;
        let pass_span = if traced {
            tracer.open("serve.pass", pass_id, Tracer::root())
        } else {
            Tracer::root()
        };
        let t_pass = Instant::now();
        for &i in order {
            let req_span = if traced {
                tracer.open("serve.request", pass_id, pass_span)
            } else {
                Tracer::root()
            };
            let t0 = Instant::now();
            out.attempted += 1;
            if conn.send(&pool[i].line).is_err() {
                out.failed += 1;
                break 'passes;
            }
            let mut tally = RowTally::default();
            let mut rows = Vec::new();
            loop {
                match conn.recv() {
                    Some(Ok(Response::Row(v))) => {
                        tally.add(&v);
                        if keep_rows {
                            rows.push(v);
                        }
                    }
                    Some(Ok(Response::Ok { rows: n, checksum })) => {
                        out.ok += 1;
                        if pool[i].want_rows && !tally.matches(n, checksum) {
                            eprintln!(
                                "serve-chains: pool[{i}]: ROW lines {tally:?} vs OK {n} {checksum}"
                            );
                            out.bad += 1;
                        }
                        let first = *out.answers.entry(i).or_insert((n, checksum));
                        if first != (n, checksum) {
                            out.bad += 1;
                        }
                        break;
                    }
                    Some(other) => {
                        eprintln!("serve-chains: pool[{i}] answered {other:?}");
                        out.failed += 1;
                        break;
                    }
                    None => {
                        out.failed += 1;
                        break 'passes;
                    }
                }
            }
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            tracer.close(req_span);
            out.rtt_all_ms.push(ms);
            if !traced {
                out.rtt_untraced_ms.push((Instant::now(), ms));
            }
            out.row_lines += tally.rows;
            out.sample_rows.extend(rows);
        }
        tracer.close(pass_span);
        out.pass_walls
            .push((traced, t_pass.elapsed().as_secs_f64()));
        out.passes += 1;
    }
    out
}

pub fn run(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    // The pool is drawn for the seed's demo catalog; every demo catalog has
    // the same schema and `sel` domain, so it runs on the hosted one.
    let sql = demo_sql(args.seed, POOL).map_err(|e| format!("SQL pool: {e}"))?;
    let client_catalog = demo_dataset(CATALOG_SEED).catalog;
    let pool: Vec<Pooled> = sql
        .iter()
        .map(|s| {
            let q = parse(&client_catalog, s).map_err(|e| format!("parse {s}: {e}"))?;
            let want_rows = !q.projections.is_empty();
            let mut line = Request::Query {
                sql: s.clone(),
                want_rows,
                deadline_ms: None,
            }
            .encode();
            line.push('\n');
            Ok(Pooled { line, want_rows })
        })
        .collect::<Result<_, String>>()?;

    let mut setup_s = Vec::new();
    let mut load_s = Vec::new();
    let mut running = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let (server, conn, load) = start()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        load_s.push(load);
        if i + 1 < SETUPS {
            drop(conn);
            server.shutdown();
        } else {
            running = Some((server, conn));
        }
    }
    let (server, first_conn) = running.ok_or("no set-up ran")?;
    let second_conn = Connection::open(server.local_addr())?;

    // Two closed-loop connections, the second starting half-way round the
    // pool so the two mix projecting and counting requests.
    let forward: Vec<usize> = (0..POOL).collect();
    let rotated: Vec<usize> = (0..POOL).map(|i| (i + POOL / 2) % POOL).collect();
    let t_run = Instant::now();
    let (mut a, mut b, tracer) = std::thread::scope(|s| {
        let pool = &pool;
        let (fwd, rot) = (&forward, &rotated);
        let h = s.spawn(move || {
            let mut t = Tracer::new(args.trace, origin);
            let r = client(second_conn, rot, pool, args.seconds, args.trace, &mut t, 1);
            (r, t)
        });
        let mut t0 = Tracer::new(args.trace, origin);
        let a = client(first_conn, fwd, pool, args.seconds, args.trace, &mut t0, 0);
        let (b, t1) = h.join().expect("client thread panicked");
        t0.absorb(t1);
        (a, b, t0)
    });
    let run_s = t_run.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb()?;

    let m = server.metrics();
    let (batches, completed, rows_streamed) = (
        m.batches.total(),
        m.completed.total(),
        m.rows_streamed.total(),
    );
    let server_p50_us = histogram_median(&m.latency_us);
    let episodes = server
        .telemetry()
        .registry()
        .counter("roulette_episodes_total", "Episodes executed")
        .total();
    let drain = server.shutdown();

    // Reference: DBMS-V over the catalog the server hosts.
    let qat = QatEngine::new(&client_catalog, ExecMode::Vectorized, 7);
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    for c in [&a, &b] {
        report.attempted += c.attempted;
        report.failed += c.failed;
        if c.bad > 0 {
            report.correct = false;
        }
    }
    if drain.leaked != 0 || drain.admitted != drain.terminal {
        eprintln!("serve-chains: drain {drain:?}");
        report.correct = false;
    }
    for (i, s) in sql.iter().enumerate() {
        let q = parse(&client_catalog, s).map_err(|e| format!("parse {s}: {e}"))?;
        let want = qat.execute(&q);
        for c in [&a, &b] {
            if let Some(&got) = c.answers.get(&i) {
                if got != (want.rows, want.checksum) {
                    eprintln!(
                        "serve-chains: pool[{i}] OK {got:?}, DBMS-V {:?}",
                        (want.rows, want.checksum)
                    );
                    report.correct = false;
                }
            }
        }
    }
    let passes = (a.passes + b.passes) as f64;
    let rows_per_pass = ratio(rows_streamed as f64, passes);
    if rows_streamed != a.row_lines + b.row_lines {
        return Err(format!(
            "server streamed {rows_streamed} rows, clients read {}",
            a.row_lines + b.row_lines
        ));
    }
    eprintln!("counts: server.rows_streamed={rows_per_pass} passes={passes}");

    let mut timed = std::mem::take(&mut a.rtt_untraced_ms);
    timed.append(&mut b.rtt_untraced_ms);
    timed.sort_by_key(|&(at, _)| at);
    let rtt: Vec<f64> = timed.into_iter().map(|(_, ms)| ms).collect();
    if !args.trace {
        report.set("setup_s", median(&setup_s));
        report.set("qps", (a.ok + b.ok) as f64 / run_s);
        report.set("p50_ms", median(&rtt));
        report.set("p99_ms", tail_quantile(&rtt, 0.99));
        report.set("peak_rss_mb", peak_rss);
        return Ok(report);
    }

    let mut all_rtt = std::mem::take(&mut a.rtt_all_ms);
    all_rtt.append(&mut b.rtt_all_ms);
    report.set("storage.load_s", median(&load_s));
    report.set("query.parse_us", time_parse(&client_catalog, &sql)?);
    report.set("exec.episodes", ratio(episodes as f64, passes));
    report.set("server.latency_us.p50", server_p50_us);
    report.set("server.wire_us.p50", median(&all_rtt) * 1e3 - server_p50_us);
    report.set("server.batches", ratio(batches as f64, passes));
    report.set(
        "server.batch_queries_mean",
        ratio(completed as f64, batches as f64),
    );
    report.set("server.rows_streamed", rows_per_pass);
    let sample = if a.sample_rows.is_empty() {
        &b.sample_rows
    } else {
        &a.sample_rows
    };
    report.set("server.encode_ns_per_row", time_encode(sample));
    report.set("server.request_parse_us", time_request_parse(&pool));
    let pass_wall = |traced: bool| {
        let w: Vec<f64> = a
            .pass_walls
            .iter()
            .chain(&b.pass_walls)
            .filter(|p| p.0 == traced)
            .map(|p| p.1)
            .collect();
        median(&w)
    };
    report.set(
        "telemetry.overhead_pct",
        (pass_wall(true) / pass_wall(false) - 1.0) * 100.0,
    );
    tracer
        .write_jsonl(&trace_path(&args.workload, args.seed))
        .map_err(|e| format!("writing trace: {e}"))?;
    Ok(report)
}

/// Median of a power-of-two histogram, interpolated linearly inside the
/// bucket that holds it (bucket `i` spans `(2^(i-1), 2^i]`).
fn histogram_median(h: &Histogram) -> f64 {
    let counts = h.snapshot().counts;
    let total: u64 = counts.iter().sum();
    let target = total as f64 / 2.0;
    let mut below = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 && (below + c) as f64 >= target {
            let hi = roulette_telemetry::histogram::bucket_upper_bound(i) as f64;
            let lo = if i == 0 { 0.0 } else { hi / 2.0 };
            return lo + (hi - lo) * (target - below as f64) / c as f64;
        }
        below += c;
    }
    0.0
}

/// Median microseconds of `roulette_query::parse` over the pool's SQL.
fn time_parse(catalog: &roulette_storage::Catalog, sql: &[String]) -> Result<f64, String> {
    let mut us = Vec::new();
    for _ in 0..8 {
        for s in sql {
            let t0 = Instant::now();
            let q = parse(catalog, s).map_err(|e| format!("parse {s}: {e}"))?;
            us.push(t0.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(q);
        }
    }
    Ok(median(&us))
}

/// Nanoseconds per row of `Response::encode` on the workload's own rows.
fn time_encode(rows: &[Vec<i64>]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let mut per_row = Vec::new();
    for _ in 0..8 {
        let t0 = Instant::now();
        for r in rows {
            std::hint::black_box(Response::Row(r.clone()).encode());
        }
        per_row.push(t0.elapsed().as_secs_f64() * 1e9 / rows.len() as f64);
    }
    median(&per_row)
}

/// Median microseconds of `Request::parse` over the workload's own lines.
fn time_request_parse(pool: &[Pooled]) -> f64 {
    let mut us = Vec::new();
    for _ in 0..8 {
        for p in pool {
            let t0 = Instant::now();
            std::hint::black_box(Request::parse(&p.line).ok());
            us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&us)
}

//! `whatif-serve`: an in-process `Server` with 2 workers holding a
//! `tpch:1` session loaded with TPC-H 22, driven by two closed-loop
//! callers, because a tuning loop waits on each reply.
//!
//! Each caller's stream is seeded. Most requests are `whatif_cost` on
//! candidate layouts drawn from a pool of [`POOL`]: repeats hit the cost
//! cache, and a tenth are sent with `no_cache` to time the cold path.
//! Beside them run `add_statements` on the caller's scratch session,
//! recycled after 22 appends so state stays bounded, and `recommend` on
//! the shared session, whose lock the what-ifs also take. The shares are
//! chosen, not measured; `NOTES.md` shows how the gated metrics move when
//! the recommend share and the pool size change.
//!
//! The callers run in [`SEGMENTS`] segments, each against a fresh server.
//! Before each segment the previous server is shut down and set-up is
//! timed [`SETUP_WINDOW`] times; the last server started serves the
//! segment. So set-up samples span the run's host phases as the callers'
//! own samples do, and the process never holds more than one loaded
//! server.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dblayout_catalog::resolve_catalog;
use dblayout_core::costmodel::decompose_workload;
use dblayout_core::{available_parallelism, Advisor, AdvisorConfig, CostModel, Layout};
use dblayout_disksim::paper_disks;
use dblayout_obs::counters::{self, Counter};
use dblayout_server::protocol::ok_line;
use dblayout_server::{
    parse_request, recommendation_result, Client, Engine, RuntimeInfo, Server, ServerConfig,
    ServerHandle, Session,
};
use dblayout_workloads::tpch22::tpch_query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{Value, ValueExt};

use crate::expected;
use crate::inputs::{self, candidate_layouts};
use crate::measure::{peak_rss_mb, us_since, Mix, Samples};
use crate::report::Report;
use crate::spans::{Recorder, Span};
use crate::Args;

const WORKERS: usize = 2;
const CALLERS: u64 = 2;
/// Candidate layouts the what-ifs draw from, and recommends per 1000
/// requests. Both are chosen; `NOTES.md` ("Traffic mix") shows how the
/// gated metrics move at 64 and 1024 layouts and at 2 and 10 per mille.
const POOL: usize = 256;
const RECOMMEND_PER_MILLE: u32 = 5;
/// Caller segments per run, each against a fresh server.
const SEGMENTS: u32 = 7;
/// Set-up samples before each segment, and after the last.
const SETUP_WINDOW: usize = 16;
/// Every this many requests a traced caller records the round trip as a
/// span and replays the request on its private engine, layer by layer.
const REPLAY_EVERY: u64 = 16;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Op {
    Cached,
    Cold,
    Add,
    Recommend,
}

impl Op {
    /// Seeded op mix, per mille: [`RECOMMEND_PER_MILLE`] recommends, 20
    /// add_statements, 100 cold what-ifs, the rest what-ifs that may hit
    /// the cache.
    fn draw(rng: &mut StdRng) -> Op {
        const ADD: u32 = RECOMMEND_PER_MILLE + 20;
        const COLD: u32 = ADD + 100;
        match rng.gen_range(0..1000) {
            r if r < RECOMMEND_PER_MILLE => Op::Recommend,
            r if r < ADD => Op::Add,
            r if r < COLD => Op::Cold,
            _ => Op::Cached,
        }
    }

    fn engine_span(self) -> &'static str {
        match self {
            Op::Cached => "server.engine.whatif_cost",
            Op::Cold => "server.engine.whatif_cost_cold",
            Op::Add => "server.engine.add_statements",
            Op::Recommend => "server.engine.recommend",
        }
    }

    fn engine_metric(self) -> &'static str {
        match self {
            Op::Cached => "server.engine.whatif_cost_us",
            Op::Cold => "server.engine.whatif_cost_cold_us",
            Op::Add => "server.engine.add_statements_us",
            Op::Recommend => "server.engine.recommend_us",
        }
    }
}

/// Everything a caller needs, shared read-only.
struct Shared {
    session: u64,
    cached_lines: Vec<String>,
    cold_lines: Vec<String>,
    /// Library cold cost of each pool layout, bits: every what-if answer,
    /// cached or not, must equal it.
    reference: Vec<u64>,
    recommend_line: String,
    expected_recommend: String,
    sql: String,
    layouts: Vec<Layout>,
    workload: Vec<(Vec<dblayout_planner::Subplan>, f64)>,
    disks: Vec<dblayout_disksim::DiskSpec>,
}

/// One caller's results.
#[derive(Default)]
struct CallerOut {
    attempted: u64,
    failures: Vec<String>,
    samples: BTreeMap<Op, Samples>,
    /// Cache-hit round trips also recorded as spans (traced runs).
    traced_hits: Samples,
    /// Untraced replays of a cache hit on the private engine, in µs: the
    /// independent total the traced layers are closed against.
    untraced_replays: Samples,
    /// add_statements round trips in ms, per TPC-H query appended.
    add_ms: Mix,
    misses: u64,
    adds: u64,
    spans: Vec<Span>,
    recommend_ratio: Option<f64>,
}

impl CallerOut {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

fn response(line: &str) -> Option<Value> {
    let v: Value = serde_json::from_str(line).ok()?;
    v.get("ok")?.as_bool()?.then_some(v)
}

fn open_line() -> String {
    format!(
        "{{\"op\":\"open_session\",\"catalog\":\"{}\"}}",
        inputs::TPCH_CATALOG
    )
}

fn open_session(c: &mut Client) -> std::io::Result<Option<u64>> {
    let line = c.roundtrip(&open_line())?;
    Ok(response(&line).and_then(|v| v.get("result")?.get("session")?.as_u64()))
}

fn add_line(session: u64, sql: &str) -> String {
    format!(
        "{{\"op\":\"add_statements\",\"session\":{session},\"sql\":{}}}",
        serde_json::to_string(sql).expect("a string serialises")
    )
}

/// Set-up as a user pays it: start the server, open a session, load
/// TPC-H 22. Returns the running server and the session id.
fn start(sql: &str) -> Result<(ServerHandle, u64), String> {
    let handle = Server::start(ServerConfig {
        threads: WORKERS,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let mut c = Client::connect(&handle.addr().to_string()).map_err(|e| format!("connect: {e}"))?;
    let session = open_session(&mut c)
        .map_err(|e| format!("open_session: {e}"))?
        .ok_or("open_session refused")?;
    let loaded = c
        .roundtrip(&add_line(session, sql))
        .map_err(|e| format!("add_statements: {e}"))?;
    let added = response(&loaded).and_then(|v| v.get("result")?.get("added")?.as_u64());
    if added != Some(22) {
        return Err(format!("loading TPC-H 22 answered {loaded}"));
    }
    Ok((handle, session))
}

/// Times `n` [`start`]s, one sample each, shutting down every server but
/// the last, which it returns. One start takes about 20 ms, far above
/// timer and allocator jitter; what steadies the set-up envelope is the
/// number of samples and their spread over the run (`NOTES.md`).
fn time_starts(sql: &str, n: usize, samples: &mut Samples) -> Result<(ServerHandle, u64), String> {
    let mut last: Option<(ServerHandle, u64)> = None;
    for _ in 0..n.max(1) {
        if let Some((handle, _)) = last.take() {
            handle.shutdown();
        }
        let t = Instant::now();
        let started = start(sql)?;
        samples.push(t.elapsed().as_secs_f64());
        last = Some(started);
    }
    Ok(last.expect("at least one start ran"))
}

/// The `stats` op's result.
fn read_stats(handle: &ServerHandle) -> Option<Value> {
    Client::connect(&handle.addr().to_string())
        .and_then(|mut c| c.roundtrip("{\"op\":\"stats\"}"))
        .ok()
        .and_then(|l| response(&l))
        .and_then(|v| v.get("result").cloned())
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let instance = inputs::instance(args.seed);
    let sql = inputs::tpch22_text(instance);

    // The first segment's server; the library reference below needs its
    // session id.
    let mut setup = Samples::default();
    let (handle, session) = match time_starts(&sql, SETUP_WINDOW, &mut setup) {
        Ok(started) => started,
        Err(e) => {
            report.check(false, || e);
            return report;
        }
    };

    // The library reference: the same statements through `Advisor`.
    let catalog = resolve_catalog(inputs::TPCH_CATALOG).expect("built-in catalog spec");
    let disks = paper_disks();
    let rec = Advisor::new(&catalog, &disks)
        .recommend_sql(&sql, &AdvisorConfig::default())
        .expect("TPC-H 22 recommends");
    let workload = decompose_workload(&rec.plans);
    let sizes: Vec<u64> = catalog.objects().iter().map(|o| o.size_blocks).collect();
    let layouts = candidate_layouts(&sizes, &disks, POOL, &mut StdRng::seed_from_u64(args.seed));
    for (i, l) in layouts.iter().enumerate() {
        report.check(l.validate(&disks).is_ok(), || {
            format!("candidate layout {i} fails validation")
        });
    }
    report.check(rec.layout.validate(&disks).is_ok(), || {
        "advised layout fails validation".into()
    });
    // The server re-normalises each fraction row as it materialises a
    // layout, which can move the last bits; cost what it will cost.
    let session_view = Session::new(catalog.clone(), disks.clone());
    let rows: Vec<Vec<Vec<f64>>> = layouts
        .iter()
        .map(|l| {
            (0..l.object_count())
                .map(|i| l.fractions_of(i).to_vec())
                .collect()
        })
        .collect();
    let served: Vec<Layout> = rows
        .iter()
        .map(|r| {
            session_view
                .layout_from_fractions(r)
                .expect("candidate layouts are valid")
        })
        .collect();
    let model = CostModel::default();
    let layout_json: Vec<String> = rows
        .iter()
        .map(|r| serde_json::to_string(r).expect("a fraction matrix serialises"))
        .collect();
    let shared = Shared {
        session,
        cached_lines: layout_json
            .iter()
            .map(|l| format!("{{\"op\":\"whatif_cost\",\"session\":{session},\"layout\":{l}}}"))
            .collect(),
        cold_lines: layout_json
            .iter()
            .map(|l| format!("{{\"op\":\"whatif_cost\",\"session\":{session},\"layout\":{l},\"no_cache\":true}}"))
            .collect(),
        reference: served
            .iter()
            .map(|l| model.workload_cost_subplans(&workload, l, &disks).to_bits())
            .collect(),
        recommend_line: format!("{{\"op\":\"recommend\",\"session\":{session}}}"),
        expected_recommend: ok_line(recommendation_result(&catalog, &disks, &rec)),
        sql,
        layouts: served,
        workload,
        disks,
    };

    let epoch = Instant::now();
    let mut callers: Vec<Caller> = (0..CALLERS)
        .map(|c| Caller::new(&shared, args, c, epoch))
        .collect();
    let mut server = Some(handle);
    let mut stats = Vec::new();
    // Counters are read around the caller segments only.
    let mut edge_updates = 0;
    let segment = Duration::from_secs_f64(args.seconds / f64::from(SEGMENTS));
    for k in 0..SEGMENTS {
        if k > 0 {
            let (handle, session) = match time_starts(&shared.sql, SETUP_WINDOW, &mut setup) {
                Ok(started) => started,
                Err(e) => {
                    report.check(false, || e);
                    return report;
                }
            };
            report.check(session == shared.session, || {
                format!(
                    "a fresh server opened session {session}, not {}",
                    shared.session
                )
            });
            server = Some(handle);
        }
        let handle = server.take().expect("a server for every segment");
        let addr = handle.addr().to_string();
        for caller in callers.iter_mut() {
            let connected = caller.connect(&addr);
            report.check(connected.is_ok(), || format!("{connected:?}"));
        }
        let before = counters::snapshot();
        let until = Instant::now() + segment;
        std::thread::scope(|s| {
            for caller in callers.iter_mut() {
                let shared = &shared;
                s.spawn(move || caller.run(shared, args, until));
            }
        });
        edge_updates += counters::snapshot()
            .delta(&before)
            .get(Counter::GraphEdgeUpdates);
        // Hang up before reading the server-side view and shutting down:
        // shutdown waits for open connections.
        callers.iter_mut().for_each(Caller::hang_up);
        stats.extend(read_stats(&handle));
        handle.shutdown();
    }
    report.check(stats.len() == SEGMENTS as usize, || {
        format!("stats op answered {} of {SEGMENTS} times", stats.len())
    });
    match time_starts(&shared.sql, SETUP_WINDOW, &mut setup) {
        Ok((handle, _)) => handle.shutdown(),
        Err(e) => report.check(false, || e),
    }
    report.timing("setup_s", &setup);

    let mut samples: BTreeMap<Op, Samples> = BTreeMap::new();
    let mut traced_hits = Samples::default();
    let mut untraced_replays = Samples::default();
    let mut spans = Vec::new();
    let mut add_ms = Mix::default();
    let (mut misses, mut adds) = (0, 0);
    let mut ratio = None;
    for out in callers.into_iter().map(Caller::finish) {
        report.attempted += out.attempted;
        report.failed += out.failures.len() as u64;
        for f in out.failures.iter().take(20) {
            eprintln!("perfbench: check failed: {f}");
        }
        for (op, s) in &out.samples {
            samples.entry(*op).or_default().extend(s);
        }
        traced_hits.extend(&out.traced_hits);
        untraced_replays.extend(&out.untraced_replays);
        add_ms.extend(&out.add_ms);
        misses += out.misses;
        adds += out.adds;
        ratio = ratio.or(out.recommend_ratio);
        let offset = spans.len();
        spans.extend(out.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    let get = |op| samples.get(&op).cloned().unwrap_or_default();
    let (cached, cold, add, recommend) = (
        get(Op::Cached),
        get(Op::Cold),
        get(Op::Add),
        get(Op::Recommend),
    );
    for (name, s) in [
        ("recommend", &recommend),
        ("add_statements", &add),
        ("whatif cold", &cold),
        ("whatif cached", &cached),
    ] {
        report.check(s.len() >= 10, || format!("only {} {name} samples", s.len()));
    }

    report.timing("whatif_cached_us", &cached);
    report.timing("whatif_cold_us", &cold);
    report.mix_timing("add_statements_ms", &add_ms);
    let mut rec_ms = Samples::default();
    recommend.values().iter().for_each(|v| rec_ms.push(v / 1e3));
    report.timing("recommend_ms", &rec_ms);
    report.phase_ratio(&cached);
    report
        .diagnostics
        .insert("whatif_first_sighting_misses".into(), misses as f64);
    let recorded = f64::from_bits(expected::TPCH22_RATIO_BITS[instance as usize]);
    let ratio = ratio.unwrap_or(f64::NAN);
    report.check(ratio.to_bits() == recorded.to_bits(), || {
        format!("server advised_cost_ratio {ratio:?} differs from the {recorded:?} recorded for instance {instance}")
    });
    report.set("advised_cost_ratio", ratio);
    report.set("peak_rss_mb", peak_rss_mb());

    if args.trace {
        // Counts are summed over the segments' servers; rates and
        // percentiles are their median.
        let stat = |k: &str| -> Samples {
            let mut per = Samples::default();
            stats
                .iter()
                .filter_map(|s| s.get(k).and_then(ValueExt::as_f64))
                .for_each(|v| per.push(v));
            per
        };
        let sum = |k: &str| stat(k).values().iter().sum::<f64>();
        for (metric, key) in [
            ("server.stage_queue_p50_us", "stage_queue_p50_us"),
            ("server.stage_queue_p99_us", "stage_queue_p99_us"),
            ("server.stage_compute_p50_us", "stage_compute_p50_us"),
            ("server.stage_compute_p99_us", "stage_compute_p99_us"),
            ("server.stage_serialize_p50_us", "stage_serialize_p50_us"),
            ("server.stage_serialize_p99_us", "stage_serialize_p99_us"),
            ("server.session.cache_hit_ratio", "cache_hit_rate"),
        ] {
            report.set(metric, stat(key).median());
        }
        report.set("server.errors", sum("errors_total"));
        report.set(
            "server.shed",
            sum("rejected_total") + sum("deadline_expired_total"),
        );
        for (name, p50, p99, s) in [
            (
                "whatif_cost",
                "server.client.whatif_cost_p50_us",
                "server.client.whatif_cost_p99_us",
                &cached,
            ),
            (
                "recommend",
                "server.client.recommend_p50_us",
                "server.client.recommend_p99_us",
                &recommend,
            ),
            (
                "add_statements",
                "server.client.add_statements_p50_us",
                "server.client.add_statements_p99_us",
                &add,
            ),
        ] {
            report.set(p50, s.median());
            report.set(p99, s.quantile(0.99));
            report.describe(&format!("server.client.{name}_us"), s);
        }
        layer_metrics(&mut report, &spans, &cached, &untraced_replays);
        report.describe("whatif_cached_traced_us", &traced_hits);
        report.set(
            "core.access_graph.edge_updates",
            edge_updates as f64 / adds.max(1) as f64,
        );
        report.set("host.parallelism", available_parallelism() as f64);
        crate::write_spans(args, &spans);
    }
    report
}

/// Per-layer metrics from the replayed requests (see [`request_id`]):
/// each layer is read on the op it serves, appends per TPC-H query.
fn layer_metrics(report: &mut Report, spans: &[Span], hits: &Samples, untraced: &Samples) {
    let cached_env = hits.envelope();
    let op_of = |s: &Span| s.request % 8;
    let selfs = crate::spans::self_times_us(spans);
    let env_of = |name: &str, op: Op| -> Mix {
        let mut per: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, v) in spans.iter().zip(&selfs) {
            if s.name == name && op_of(s) == op as u64 {
                *per.entry(s.request).or_default() += v;
            }
        }
        let mut out = Mix::default();
        for (req, v) in per {
            let q = if op == Op::Add {
                (req / 8 % 32) as usize
            } else {
                0
            };
            out.push(q, v);
        }
        out
    };
    let parse = env_of("server.protocol.parse", Op::Cached);
    let serialize = env_of("server.protocol.serialize", Op::Cached);
    let engine = env_of("server.engine.whatif_cost", Op::Cached);
    report.mix_timing("server.protocol.parse_us", &parse);
    report.mix_timing("server.protocol.serialize_us", &serialize);
    for op in [Op::Cached, Op::Cold, Op::Add, Op::Recommend] {
        report.mix_timing(op.engine_metric(), &env_of(op.engine_span(), op));
    }
    report.mix_timing(
        "core.costmodel.full_recost_us",
        &env_of("core.costmodel.full_recost", Op::Cold),
    );
    let in_process = parse.envelope() + engine.envelope() + serialize.envelope();
    // The network share is the round trip's residual by definition, so it
    // closes nothing; closure covers the in-process layers of a cache hit,
    // against the same request replayed untraced on the same engine.
    report.set("server.network_us", cached_env - in_process);
    let mut root = Samples::default();
    for s in spans
        .iter()
        .filter(|s| s.name == "server.request" && op_of(s) == Op::Cached as u64)
    {
        root.push(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3);
    }
    report.set("trace.closure_ratio", in_process / untraced.envelope());
    report.set(
        "trace.overhead_ratio",
        root.envelope() / untraced.envelope(),
    );
    report.describe("server.request_untraced_us", untraced);
    report.describe("server.request_traced_us", &root);
}

/// Span request id: the caller's sequence number, the TPC-H query an
/// append carries, and the op, so layers can be read per op and query.
fn request_id(seq: u64, q: usize, op: Op) -> u64 {
    (seq * 32 + q as u64) * 8 + op as u64
}

/// One closed-loop caller, kept across the run's segments.
struct Caller {
    c: u64,
    out: CallerOut,
    rec: Recorder,
    rng: StdRng,
    /// The connection to the current segment's server.
    client: Option<Client>,
    scratch: u64,
    scratch_adds: usize,
    replay: Option<Replay>,
    seq: u64,
    /// Set when a request fails in transport; the caller then stops.
    stopped: bool,
}

impl Caller {
    fn new(shared: &Shared, args: &Args, c: u64, epoch: Instant) -> Self {
        Self {
            c,
            out: CallerOut::default(),
            rec: Recorder::new(epoch),
            rng: StdRng::seed_from_u64(
                args.seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(c + 1),
            ),
            client: None,
            scratch: 0,
            scratch_adds: 0,
            replay: args.trace.then(|| Replay::new(shared)),
            seq: 0,
            stopped: false,
        }
    }

    /// Connects to a segment's server and opens the scratch session there;
    /// a caller that cannot stops.
    fn connect(&mut self, addr: &str) -> Result<(), String> {
        let c = self.c;
        let opened = Client::connect(addr)
            .map_err(|e| format!("caller {c} connect: {e}"))
            .and_then(|mut client| match open_session(&mut client) {
                Ok(Some(s)) => Ok((client, s)),
                other => Err(format!("caller {c} scratch open_session: {other:?}")),
            });
        match opened {
            Ok((client, scratch)) => {
                self.client = Some(client);
                self.scratch = scratch;
                self.scratch_adds = 0;
                Ok(())
            }
            Err(e) => {
                self.stopped = true;
                Err(e)
            }
        }
    }

    fn hang_up(&mut self) {
        self.client = None;
    }

    fn finish(self) -> CallerOut {
        let mut out = self.out;
        out.spans = self.rec.spans().to_vec();
        out
    }

    /// Sends requests, each after the previous answer, until `until`.
    fn run(&mut self, shared: &Shared, args: &Args, until: Instant) {
        let c = self.c;
        let Some(client) = self.client.as_mut() else {
            return;
        };
        while !self.stopped && Instant::now() < until {
            self.seq += 1;
            let seq = self.seq;
            let op = Op::draw(&mut self.rng);
            let idx = self.rng.gen_range(0..POOL);
            let q = self.rng.gen_range(1..=22);
            let line: std::borrow::Cow<str> = match op {
                Op::Cached => (&shared.cached_lines[idx]).into(),
                Op::Cold => (&shared.cold_lines[idx]).into(),
                Op::Add => add_line(self.scratch, &format!("{};", tpch_query(q))).into(),
                Op::Recommend => (&shared.recommend_line).into(),
            };
            let start = Instant::now();
            let answer = client.roundtrip(&line);
            let end = Instant::now();
            let us = end.duration_since(start).as_secs_f64() * 1e6;
            let out = &mut self.out;
            let answer = match answer {
                Ok(a) => a,
                Err(e) => {
                    out.check(false, || format!("caller {c} request {seq}: {e}"));
                    self.stopped = true;
                    break;
                }
            };
            match op {
                Op::Cached | Op::Cold => {
                    let v = response(&answer).and_then(|v| v.get("result").cloned());
                    let cost = v.as_ref().and_then(|r| r.get("cost_ms")?.as_f64());
                    let hit = v.as_ref().and_then(|r| r.get("cached")?.as_bool());
                    out.check(
                        cost.map(f64::to_bits) == Some(shared.reference[idx]),
                        || {
                            format!(
                                "what-if on layout {idx} answered {answer}, not the cold cost {:?}",
                                f64::from_bits(shared.reference[idx])
                            )
                        },
                    );
                    match (op, hit) {
                        (Op::Cold, Some(false)) => out.samples.entry(op).or_default().push(us),
                        (Op::Cached, Some(true)) => {
                            out.samples.entry(op).or_default().push(us);
                            if args.trace && seq.is_multiple_of(REPLAY_EVERY) {
                                self.rec.record(
                                    "server.client.whatif_cost",
                                    request_id(seq, q, op),
                                    start,
                                    end,
                                );
                                out.traced_hits.push(us);
                            }
                        }
                        (Op::Cached, Some(false)) => out.misses += 1,
                        _ => out.check(false, || format!("no_cache what-if answered {answer}")),
                    }
                }
                Op::Add => {
                    let added =
                        response(&answer).and_then(|v| v.get("result")?.get("added")?.as_u64());
                    out.check(added == Some(1), || {
                        format!("add_statements answered {answer}")
                    });
                    out.samples.entry(op).or_default().push(us);
                    out.add_ms.push(q, us / 1e3);
                    out.adds += 1;
                    self.scratch_adds += 1;
                    if self.scratch_adds == 22 {
                        let closed = client.roundtrip(&format!(
                            "{{\"op\":\"close_session\",\"session\":{}}}",
                            self.scratch
                        ));
                        out.check(closed.ok().and_then(|l| response(&l)).is_some(), || {
                            "close_session failed".into()
                        });
                        match open_session(client) {
                            Ok(Some(s)) => self.scratch = s,
                            other => {
                                out.check(false, || format!("scratch re-open: {other:?}"));
                                self.stopped = true;
                                break;
                            }
                        }
                        out.attempted += 1;
                        self.scratch_adds = 0;
                    }
                }
                Op::Recommend => {
                    out.check(answer == shared.expected_recommend, || {
                        "server recommend differs from the library Advisor on the same statements"
                            .into()
                    });
                    if out.recommend_ratio.is_none() {
                        out.recommend_ratio = response(&answer).and_then(|v| {
                            let r = v.get("result")?;
                            Some(
                                r.get("recommended_cost_ms")?.as_f64()?
                                    / r.get("full_striping_cost_ms")?.as_f64()?,
                            )
                        });
                    }
                    out.samples.entry(op).or_default().push(us);
                }
            }
            if let Some(r) = self.replay.as_mut() {
                if seq.is_multiple_of(REPLAY_EVERY) {
                    r.replay(
                        shared,
                        &mut self.rec,
                        &mut self.out,
                        op,
                        idx,
                        q,
                        request_id(seq, q, op),
                    );
                }
            }
        }
    }
}

/// A private engine holding the same session, on which traced runs replay
/// requests one layer call at a time.
struct Replay {
    engine: Engine,
    scratch: u64,
    scratch_adds: usize,
}

impl Replay {
    fn new(shared: &Shared) -> Self {
        let engine = Engine::new(8, 1024);
        let exec = |line: &str| {
            engine
                .execute(
                    parse_request(line).expect("well-formed request"),
                    &RuntimeInfo::default(),
                )
                .expect("private engine set-up")
        };
        let open = open_line();
        let main = exec(&open)
            .get("session")
            .and_then(ValueExt::as_u64)
            .expect("session id");
        assert_eq!(
            main, shared.session,
            "private engine session ids follow the server's"
        );
        exec(&add_line(main, &shared.sql));
        let scratch = exec(&open)
            .get("session")
            .and_then(ValueExt::as_u64)
            .expect("session id");
        Self {
            engine,
            scratch,
            scratch_adds: 0,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn replay(
        &mut self,
        shared: &Shared,
        rec: &mut Recorder,
        out: &mut CallerOut,
        op: Op,
        idx: usize,
        q: usize,
        req: u64,
    ) {
        let line = match op {
            Op::Cached => shared.cached_lines[idx].clone(),
            Op::Cold => shared.cold_lines[idx].clone(),
            Op::Add => add_line(self.scratch, &format!("{};", tpch_query(q))),
            Op::Recommend => shared.recommend_line.clone(),
        };
        let runtime = RuntimeInfo::default();
        if op == Op::Cached {
            // Warm the private cache so the timed executions are hits,
            // then time the whole request once untraced: the total the
            // traced layers below must close against.
            let warm = parse_request(&line).expect("well-formed request");
            let _ = self.engine.execute(warm, &runtime);
            let t = Instant::now();
            let text = parse_request(&line)
                .and_then(|r| self.engine.execute(r, &runtime))
                .map(ok_line);
            out.untraced_replays.push(us_since(t));
            out.check(text.is_ok_and(|t| !t.is_empty()), || {
                "untraced private replay failed".into()
            });
        }
        let ok = rec.span("server.request", req, |r| {
            let request = r.span("server.protocol.parse", req, |_| parse_request(&line));
            let Ok(request) = request else { return false };
            let result = r.span(op.engine_span(), req, |_| {
                self.engine.execute(request, &runtime)
            });
            let Ok(result) = result else { return false };
            let text = r.span("server.protocol.serialize", req, |_| ok_line(result));
            !text.is_empty()
        });
        out.check(ok, || format!("private replay of {op:?} failed"));
        if op == Op::Cold {
            rec.span("core.costmodel.full_recost", req, |_| {
                CostModel::default().workload_cost_subplans(
                    &shared.workload,
                    &shared.layouts[idx],
                    &shared.disks,
                )
            });
        }
        if op == Op::Add {
            // The server's appends and these share the process-global
            // graph counters; count both.
            out.adds += 1;
            self.scratch_adds += 1;
            if self.scratch_adds == 22 {
                let close = format!("{{\"op\":\"close_session\",\"session\":{}}}", self.scratch);
                let open = open_line();
                let reopened = parse_request(&close)
                    .and_then(|r| self.engine.execute(r, &runtime))
                    .and_then(|_| parse_request(&open))
                    .and_then(|r| self.engine.execute(r, &runtime));
                match reopened
                    .ok()
                    .and_then(|v| v.get("session").and_then(ValueExt::as_u64))
                {
                    Some(s) => self.scratch = s,
                    None => out.check(false, || "private scratch re-open failed".into()),
                }
                self.scratch_adds = 0;
            }
        }
    }
}

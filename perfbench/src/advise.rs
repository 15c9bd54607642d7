//! The two library workloads.
//!
//! * `advise-tpch22` — `Advisor::recommend` from SQL text: TPC-H 22 on
//!   TPCH1G and the paper's 8 heterogeneous drives (Figure 10's input).
//!   The planner is most of a recommendation here.
//! * `advise-mega` — WK-MEGA 200×16 through graph build, `ts_greedy` with
//!   shipped defaults, and FULL STRIPING costing. No SQL and no planner;
//!   step-2 widening is over 99% of the time.
//!
//! Between recommendations each workload also runs the session operations
//! in process, on its own instance: a what-if costing of a seeded
//! candidate layout (`CostModel::workload_cost_subplans`, the call the
//! server's cold path makes), a cached what-if (`layout_hash` plus a
//! `CostCache` lookup, the server's hit path), and an append of one
//! statement (`Session::add_statements` for TPC-H; for WK-MEGA, whose
//! statements have no SQL, a rebuild of the access graph with the extra
//! statement, which is what the library offers for sub-plan workloads).

use std::time::{Duration, Instant};

use dblayout_catalog::{resolve_catalog, Catalog};
use dblayout_core::costmodel::decompose_workload;
use dblayout_core::{
    available_parallelism, build_access_graph_subplans, extend_access_graph, ts_greedy, Advisor,
    AdvisorConfig, CostModel, Layout, Partitioner, TsGreedyConfig,
};
use dblayout_disksim::{paper_disks, DiskSpec};
use dblayout_obs::counters::{self, Counter, CounterSnapshot};
use dblayout_partition::{max_cut_partition, multilevel_max_cut, Graph};
use dblayout_planner::{plan_statement, Subplan};
use dblayout_server::{layout_hash, CostCache, Session};
use dblayout_sql::parse_workload_file;
use dblayout_workloads::tpch22::tpch_query;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::expected;
use crate::inputs::{self, candidate_layouts, layout_bits};
use crate::measure::{ms_since, peak_rss_mb, repeat_setup, us_since, Mix, Samples};
use crate::report::Report;
use crate::spans::{per_request, Recorder};
use crate::Args;

type Workload = Vec<(Vec<Subplan>, f64)>;

/// TPC-H set-ups timed per set-up sample: one takes 8–11 µs, so a batch
/// of 64 is a sample of about 0.6 ms. A WK-MEGA set-up is long enough to
/// time one at a time, after every search.
const TPCH_SETUP_BATCH: usize = 64;
/// After every this many TPC-H recommendations, this many set-up batches
/// are timed back to back. A batch timed alone right after a
/// recommendation spread 22% from run to run against 8% for this
/// window, over ten alternating runs of each (`NOTES.md`).
const TPCH_SETUP_WINDOW: u64 = 16;

/// Which of the two library workloads, with its generated input.
enum Input {
    Tpch { catalog: Catalog, sql: String },
    Mega { workload: Workload },
}

/// One workload instance, as set-up produces it.
struct Instance {
    input: Input,
    sizes: Vec<u64>,
    disks: Vec<DiskSpec>,
}

fn setup(mega: bool, instance: u64) -> Instance {
    if mega {
        let m = inputs::mega_instance();
        Instance {
            input: Input::Mega {
                workload: m.workload,
            },
            sizes: m.sizes,
            disks: m.disks,
        }
    } else {
        let catalog = resolve_catalog(inputs::TPCH_CATALOG).expect("built-in catalog spec");
        let sizes = catalog.objects().iter().map(|o| o.size_blocks).collect();
        Instance {
            input: Input::Tpch {
                catalog,
                sql: inputs::tpch22_text(instance),
            },
            sizes,
            disks: paper_disks(),
        }
    }
}

/// What one recommendation produced.
struct Outcome {
    layout: Layout,
    /// The searched layout's cost, before the advisor's clamp to FULL
    /// STRIPING.
    search_cost: f64,
    fs_cost: f64,
}

fn search_config(threads: usize) -> TsGreedyConfig {
    TsGreedyConfig {
        threads,
        ..TsGreedyConfig::default()
    }
}

/// The recommendation pipeline, one span per layer call. With a disabled
/// recorder this is the advise-mega operation itself; for TPC-H it is
/// `Advisor::recommend` taken apart into the same calls.
fn pipeline(inst: &Instance, threads: usize, rec: &mut Recorder, req: u64) -> Outcome {
    let disks = &inst.disks;
    let sizes = &inst.sizes;
    rec.span("recommend", req, |r| {
        let (graph, workload) = match &inst.input {
            Input::Tpch { catalog, sql } => {
                let entries = r
                    .span("sql.parse", req, |_| parse_workload_file(sql))
                    .expect("TPC-H 22 parses");
                let plans: Vec<_> = r.span("planner.plan", req, |_| {
                    entries
                        .iter()
                        .map(|e| {
                            (
                                plan_statement(catalog, &e.statement).expect("TPC-H 22 plans"),
                                e.weight,
                            )
                        })
                        .collect()
                });
                let graph = r.span("core.access_graph.build", req, |_| {
                    let mut g = Graph::new(sizes.len());
                    extend_access_graph(&mut g, &plans);
                    g
                });
                let workload = r.span("core.costmodel.decompose", req, |_| {
                    decompose_workload(&plans)
                });
                (graph, std::borrow::Cow::Owned(workload))
            }
            Input::Mega { workload } => {
                let graph = r.span("core.access_graph.build", req, |_| {
                    build_access_graph_subplans(sizes.len(), workload)
                });
                (graph, std::borrow::Cow::Borrowed(workload))
            }
        };
        let res = r
            .span("core.tsgreedy", req, |_| {
                ts_greedy(sizes, &graph, &workload, disks, &search_config(threads))
            })
            .expect("unconstrained search succeeds");
        let fs_cost = r.span("core.costmodel.full_recost", req, |_| {
            let fs = Layout::full_striping(sizes.clone(), disks);
            fs.validate(disks).expect("FULL STRIPING is valid");
            counters::incr(Counter::CostmodelFullRecosts);
            CostModel::default().workload_cost_subplans(&workload, &fs, disks)
        });
        Outcome {
            layout: res.layout,
            search_cost: res.final_cost,
            fs_cost,
        }
    })
}

/// The graph and workload a recommendation searches, built untimed for
/// the step-1 measurement and the in-process session operations.
fn graph_and_workload(inst: &Instance) -> (Graph, Workload) {
    match &inst.input {
        Input::Tpch { catalog, sql } => {
            let plans: Vec<_> = parse_workload_file(sql)
                .expect("TPC-H 22 parses")
                .iter()
                .map(|e| {
                    (
                        plan_statement(catalog, &e.statement).expect("TPC-H 22 plans"),
                        e.weight,
                    )
                })
                .collect();
            let mut g = Graph::new(inst.sizes.len());
            extend_access_graph(&mut g, &plans);
            (g, decompose_workload(&plans))
        }
        Input::Mega { workload } => (
            build_access_graph_subplans(inst.sizes.len(), workload),
            workload.clone(),
        ),
    }
}

/// Step 1 as `ts_greedy` runs it without constraints: the shipped
/// `Partitioner::Auto` choice of entry point, on the graph contracted
/// the way the search contracts it, into `min(disks, objects)` parts.
fn step1(graph: &Graph, disks: usize, rec: &mut Recorder, req: u64) -> f64 {
    let mut cg = Graph::new(graph.len());
    for u in 0..graph.len() {
        cg.add_node_weight(u, graph.node_weight(u));
    }
    for (u, v, w) in graph.edges() {
        cg.add_edge(u, v, w);
    }
    let parts = disks.min(cg.len()).max(1);
    let Partitioner::Auto { threshold } = Partitioner::default() else {
        unreachable!("the shipped step-1 engine is Auto")
    };
    let assignment = rec.span("partition.step1", req, |_| {
        if cg.len() > threshold {
            multilevel_max_cut(&cg, parts)
        } else {
            max_cut_partition(&cg, parts)
        }
    });
    cg.cut_weight(&assignment)
}

/// In-process session operations on the workload's own instance.
struct SessionOps {
    candidates: Vec<Layout>,
    /// Cold cost of each candidate, bits, computed once before measuring.
    reference: Vec<u64>,
    cache: CostCache,
    workload: Workload,
    scratch: Scratch,
    next: usize,
}

/// The write path's target, recycled after 22 appends so state stays
/// bounded.
enum Scratch {
    Tpch {
        catalog: Catalog,
        session: Box<Session>,
    },
    Mega {
        base: Workload,
        extra: Workload,
        grown: Workload,
    },
}

const SHARED_SESSION: u64 = 1;
const SCRATCH_SESSION: u64 = 2;
const CACHED_BATCH: usize = 64;

impl SessionOps {
    fn new(inst: &Instance, workload: Workload, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let candidates = candidate_layouts(&inst.sizes, &inst.disks, 64, &mut rng);
        let model = CostModel::default();
        let reference: Vec<u64> = candidates
            .iter()
            .map(|c| {
                model
                    .workload_cost_subplans(&workload, c, &inst.disks)
                    .to_bits()
            })
            .collect();
        let mut cache = CostCache::new(1024);
        for (c, bits) in candidates.iter().zip(&reference) {
            cache.insert((SHARED_SESSION, 1, layout_hash(c)), f64::from_bits(*bits));
        }
        let scratch = match &inst.input {
            Input::Tpch { catalog, .. } => Scratch::Tpch {
                catalog: catalog.clone(),
                session: Box::new(Session::new(catalog.clone(), inst.disks.clone())),
            },
            Input::Mega { workload } => Scratch::Mega {
                base: workload.clone(),
                extra: inputs::mega_extra_statements(seed),
                grown: workload.clone(),
            },
        };
        Self {
            candidates,
            reference,
            cache,
            workload,
            scratch,
            next: 0,
        }
    }

    /// One cold what-if, one batch of cached what-ifs and one append.
    fn round(&mut self, inst: &Instance, report: &mut Report, t: &mut SessionTimes) {
        let i = self.next % self.candidates.len();
        self.next += 1;
        let cand = &self.candidates[i];

        let start = Instant::now();
        let cost = CostModel::default().workload_cost_subplans(&self.workload, cand, &inst.disks);
        t.cold.push(us_since(start));
        report.check(cost.to_bits() == self.reference[i], || {
            format!("what-if cost of candidate {i} differs from its first costing")
        });

        let start = Instant::now();
        let mut hits = 0;
        for k in 0..CACHED_BATCH {
            let j = (i + k) % self.candidates.len();
            let got = self
                .cache
                .get((SHARED_SESSION, 1, layout_hash(&self.candidates[j])));
            hits += usize::from(got.map(f64::to_bits) == Some(self.reference[j]));
        }
        t.cached.push(us_since(start) / CACHED_BATCH as f64);
        report.check(hits == CACHED_BATCH, || {
            format!(
                "{} of {CACHED_BATCH} cached what-ifs missed or differ from the cold cost",
                CACHED_BATCH - hits
            )
        });

        let q = self.next % 22 + 1;
        match &mut self.scratch {
            Scratch::Tpch { catalog, session } => {
                if session.plans.len() >= 22 {
                    **session = Session::new(catalog.clone(), inst.disks.clone());
                }
                let sql = format!("{};", tpch_query(q));
                let start = Instant::now();
                let added = session.add_statements(&sql);
                self.cache.invalidate_session(SCRATCH_SESSION);
                t.add.push(q, ms_since(start));
                report.check(added.is_ok(), || {
                    format!("add_statements of TPC-H Q{q} failed")
                });
            }
            Scratch::Mega { base, extra, grown } => {
                if grown.len() >= base.len() + 22 {
                    grown.clone_from(base);
                }
                let stmt = extra[self.next % extra.len()].clone();
                let start = Instant::now();
                grown.push(stmt);
                let g = std::hint::black_box(build_access_graph_subplans(inst.sizes.len(), grown));
                self.cache.invalidate_session(SCRATCH_SESSION);
                t.add.push(0, ms_since(start));
                report.check(g.len() == inst.sizes.len(), || {
                    "graph rebuild lost objects".into()
                });
            }
        }
    }
}

#[derive(Default)]
struct SessionTimes {
    cold: Samples,
    cached: Samples,
    add: Mix,
}

/// Counter deltas summed over the recommendations only.
#[derive(Default)]
struct CounterSums {
    sums: [u64; counters::COUNT],
    ops: u64,
}

impl CounterSums {
    fn add(&mut self, delta: &CounterSnapshot) {
        for (s, c) in self.sums.iter_mut().zip(Counter::ALL) {
            *s += delta.get(c);
        }
        self.ops += 1;
    }

    fn per_op(&self, c: Counter) -> f64 {
        self.sums[c as usize] as f64 / self.ops.max(1) as f64
    }
}

/// The instance's advised-cost ratio at 1 thread, for `--record`.
pub fn reference_ratio(mega: bool, instance: u64) -> f64 {
    let out = pipeline(&setup(mega, instance), 1, &mut Recorder::disabled(), 0);
    out.search_cost / out.fs_cost
}

pub fn run(args: &Args, mega: bool) -> Report {
    let mut report = Report::default();
    let instance = inputs::instance(args.seed);
    let threads = available_parallelism();
    // advise-mega times its search at 1 thread. On a shared 2-core host
    // the 2-thread search's envelope spread 18% over ten runs; at 1 thread
    // it was no slower and spread less (NOTES.md). One search per run at
    // `threads` still checks that the layout does not depend on them.
    let measured_threads = if mega { 1 } else { threads };

    // Set-up repeats here and again during the measured phase, so its
    // samples span the run's host phases like every other timing's.
    let batch = if mega { 1 } else { TPCH_SETUP_BATCH };
    let (mut setup_samples, inst) = repeat_setup(batch, 5, Duration::from_millis(100), || {
        setup(mega, instance)
    });

    // Reference: the layered pipeline at 1 thread. Every measured
    // recommendation must match it bit for bit.
    let mut off = Recorder::disabled();
    let one = pipeline(&inst, 1, &mut off, 0);
    let bits = layout_bits(&one.layout);
    report.check(one.layout.validate(&inst.disks).is_ok(), || {
        "advised layout fails validation".into()
    });
    let ratio = one.search_cost / one.fs_cost;
    report.set("advised_cost_ratio", ratio);
    let recorded = if mega {
        expected::MEGA_RATIO_BITS
    } else {
        expected::TPCH22_RATIO_BITS[instance as usize]
    };
    report.check(ratio.to_bits() == recorded, || {
        format!(
            "advised_cost_ratio {ratio:?} differs from the {:?} recorded for instance {instance}",
            f64::from_bits(recorded)
        )
    });

    let (graph, workload) = graph_and_workload(&inst);
    let mut ops = SessionOps::new(&inst, workload, args.seed);
    let advisor_cfg = AdvisorConfig {
        search: search_config(measured_threads),
        ..AdvisorConfig::default()
    };

    let epoch = Instant::now();
    let mut rec = if args.trace {
        Recorder::new(epoch)
    } else {
        Recorder::disabled()
    };
    let mut main = Samples::default();
    let mut traced = Samples::default();
    let mut times = SessionTimes::default();
    let mut sums = CounterSums::default();
    let mut cuts = Samples::default();
    let min_ops = if mega { 3 } else { 20 };
    let deadline = Duration::from_secs_f64(args.seconds);
    let mut iter = 0u64;
    while epoch.elapsed() < deadline || main.len() < min_ops {
        iter += 1;
        // Traced runs alternate untraced and traced recommendations, so
        // both see the same host phases.
        let trace_this = args.trace && iter.is_multiple_of(2);
        let before = counters::snapshot();
        let start = Instant::now();
        let out = if trace_this {
            pipeline(&inst, measured_threads, &mut rec, iter)
        } else if let Input::Tpch { catalog, sql } = &inst.input {
            let r = Advisor::new(catalog, &inst.disks)
                .recommend_sql(sql, &advisor_cfg)
                .expect("TPC-H 22 recommends");
            Outcome {
                layout: r.layout,
                search_cost: r.recommended_cost_ms,
                fs_cost: r.full_striping_cost_ms,
            }
        } else {
            pipeline(&inst, measured_threads, &mut off, iter)
        };
        let took = ms_since(start);
        sums.add(&counters::snapshot().delta(&before));
        if trace_this {
            traced.push(took);
            cuts.push(step1(&graph, inst.disks.len(), &mut rec, iter));
        } else {
            main.push(took);
        }
        report.check(out.layout.validate(&inst.disks).is_ok(), || {
            "recommended layout fails validation".into()
        });
        report.check(
            layout_bits(&out.layout) == bits && out.search_cost.to_bits() == one.search_cost.to_bits(),
            || format!("recommendation {iter} at {measured_threads} threads differs from the 1-thread reference"),
        );

        // Session operations for about a twentieth of the time the
        // recommendation took, at least one round.
        let budget = Duration::from_secs_f64(took / 1e3 / 20.0);
        let side = Instant::now();
        loop {
            ops.round(&inst, &mut report, &mut times);
            if side.elapsed() >= budget {
                break;
            }
        }
        let window = if mega {
            1
        } else if iter.is_multiple_of(TPCH_SETUP_WINDOW) {
            TPCH_SETUP_WINDOW as usize
        } else {
            0
        };
        if window > 0 {
            let (more, _) = repeat_setup(batch, window, Duration::ZERO, || setup(mega, instance));
            setup_samples.extend(&more);
        }
    }
    report.timing("setup_s", &setup_samples);

    // The thread-count check for a workload measured at 1 thread, whose
    // pool dispatch the per-layer `core.par.chunk_items` then reports.
    let mut par_items = None;
    if measured_threads != threads {
        let before = counters::snapshot();
        let out = pipeline(&inst, threads, &mut off, 0);
        par_items = Some(
            counters::snapshot()
                .delta(&before)
                .get(Counter::ParChunkItems) as f64,
        );
        report.check(
            layout_bits(&out.layout) == bits
                && out.search_cost.to_bits() == one.search_cost.to_bits(),
            || format!("recommendation at {threads} threads differs from the 1-thread reference"),
        );
    }

    report.timing("recommend_ms", &main);
    report.phase_ratio(&main);
    report.timing("whatif_cold_us", &times.cold);
    report.timing("whatif_cached_us", &times.cached);
    report.mix_timing("add_statements_ms", &times.add);
    report.set("peak_rss_mb", peak_rss_mb());

    if args.trace {
        layer_metrics(&mut report, &rec, main.envelope(), &traced, &sums, &cuts);
        if let Some(items) = par_items {
            report.set("core.par.chunk_items", items);
        }
        crate::write_spans(args, rec.spans());
    }
    report
}

/// Per-layer metrics from the traced recommendations.
fn layer_metrics(
    report: &mut Report,
    rec: &Recorder,
    untraced_env: f64,
    traced: &Samples,
    sums: &CounterSums,
    cuts: &Samples,
) {
    let selfs = per_request(rec.spans(), false);
    let totals = per_request(rec.spans(), true);
    let env_ms = |name: &str| selfs.get(name).map_or(0.0, |s| s.envelope() / 1e3);
    for (layer, metric) in [
        ("sql.parse", "sql.parse_ms"),
        ("planner.plan", "planner.plan_ms"),
        ("core.access_graph.build", "core.access_graph.build_ms"),
        ("core.costmodel.decompose", "core.costmodel.decompose_ms"),
        ("partition.step1", "partition.step1_ms"),
    ] {
        report.set(metric, env_ms(layer));
        if let Some(s) = selfs.get(layer) {
            report.describe(metric, s);
        }
    }
    // Step 2 is the search minus step 1, paired per recommendation.
    let mut step2 = Samples::default();
    if let (Some(search), Some(step1)) =
        (totals.get("core.tsgreedy"), totals.get("partition.step1"))
    {
        for (a, b) in search.values().iter().zip(step1.values()) {
            step2.push((a - b) / 1e3);
        }
    }
    report.timing("core.tsgreedy.step2_ms", &step2);
    let full = selfs
        .get("core.costmodel.full_recost")
        .cloned()
        .unwrap_or_default();
    report.timing("core.costmodel.full_recost_us", &full);
    report.set("partition.cut_weight", cuts.median());

    report.set(
        "core.access_graph.edge_updates",
        sums.per_op(Counter::GraphEdgeUpdates),
    );
    report.set(
        "core.tsgreedy.candidates_scored",
        sums.per_op(Counter::TsgreedyCandidatesScored),
    );
    report.set(
        "core.tsgreedy.adopt_ratio",
        sums.per_op(Counter::TsgreedyCandidatesAdopted)
            / sums.per_op(Counter::TsgreedyCandidatesScored),
    );
    report.set(
        "core.costmodel.delta_recosts",
        sums.per_op(Counter::CostmodelDeltaRecosts),
    );
    report.set("core.par.chunk_items", sums.per_op(Counter::ParChunkItems));

    // Closure: the layers' self times against the untraced recommendation.
    let layers_ms: f64 = [
        "sql.parse",
        "planner.plan",
        "core.access_graph.build",
        "core.costmodel.decompose",
        "core.tsgreedy",
        "core.costmodel.full_recost",
    ]
    .iter()
    .map(|l| env_ms(l))
    .sum();
    report.set("trace.closure_ratio", layers_ms / untraced_env);
    report.set("trace.overhead_ratio", traced.envelope() / untraced_env);
    report.describe("recommend_traced_ms", traced);
    report.set("host.parallelism", available_parallelism() as f64);
}

//! The three workloads. Each builds the shared index, drives an open
//! loop and then a closed loop through the server (`durable_churn`
//! once per episode), checks the answers, and reports the end-to-end
//! metrics — or, traced, hands its inputs to the per-layer
//! [`ledger`](crate::ledger).

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use gdim_core::{Hit, SearchRequest};
use gdim_graph::Graph;
use gdim_server::{GdimServer, Json};
use gdim_shard::ShardedIndex;

use crate::checks;
use crate::inputs::{self, Op, Planned};
use crate::ledger::{self, Ledger, LedgerInput};
use crate::load::{
    fell_behind, full_slices, merged, run_plans, Bodies, Pace, Rec, Run, Slice, SLICE,
};
use crate::setup::{serve_durable, setup, Setup};
use crate::stats::{Hist, Metrics};
use crate::{work_dir, Args, Outcome};

/// Share of `--seconds` spent in the open loop; the closed loop, which
/// the end-to-end metrics come from, gets the rest.
const OPEN_SHARE: f64 = 0.2;

/// Open-loop rates, about ⅓ (mapped) and 40% (refined) of the
/// closed-loop capacity measured with two clients (see README).
pub const MAPPED_RATE: f64 = 4000.0;
pub const REFINE_RATE: f64 = 8.0;
/// The mapped closed loop sends a Zipf draw of this length over and
/// over until its deadline.
const MAPPED_CLOSED_DRAW: usize = 8192;
/// Refined closed-loop inputs per second of the phase, all distinct:
/// above the measured capacity (17–31 req/s), so the deadline ends the
/// loop and a slow host cannot stretch the run. A server fast enough
/// to run out of inputs ends it early; its rate still counts.
const REFINE_CLOSED_CAP: f64 = 40.0;

/// One in `SAMPLE` timed searches is checked against the in-process
/// answer (and, refined, against the oracle).
const MAPPED_SAMPLE: u64 = 32;
const REFINE_SAMPLE: u64 = 16;
const CHURN_SAMPLE: u64 = 8;

/// Only the first `KEEP_WINDOW` entries of a thread's plan are
/// sampled, so how many answers a closed loop keeps does not grow
/// with its throughput.
const KEEP_WINDOW: usize = 8192;

/// Seeded sampling of plan entries, so a seed checks the same ones.
fn sampled(seed: u64, i: usize, every: u64) -> bool {
    let mut x = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (x >> 29).is_multiple_of(every)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Both phases of a run.
struct Phases {
    open: [Run; 2],
    open_span: Duration,
    closed: [Run; 2],
    closed_span: Duration,
}

impl Phases {
    fn kept(&self) -> impl Iterator<Item = &Rec> {
        self.open.iter().chain(&self.closed).flat_map(|r| &r.kept)
    }
}

/// Runs the open-loop plans, then the closed-loop ones, paced by
/// `closed_pace(start)`.
fn run_phases(
    addr: SocketAddr,
    open: &[Vec<Planned>; 2],
    closed: &[Vec<Planned>; 2],
    bodies: &Bodies,
    keep: &(dyn Fn(usize, Op) -> bool + Sync),
    closed_pace: impl FnOnce(Instant) -> Pace,
) -> Phases {
    let open_span = open
        .iter()
        .filter_map(|p| p.last())
        .map(|p| p.due)
        .max()
        .unwrap_or_default();
    // A short lead lets both threads connect before the first due time.
    let start = Instant::now() + Duration::from_millis(20);
    let open = run_plans(addr, open, bodies, Pace::Open { start }, keep);
    let t = Instant::now();
    let closed = run_plans(addr, closed, bodies, closed_pace(t), keep);
    Phases {
        open,
        open_span,
        closed,
        closed_span: t.elapsed(),
    }
}

/// What one run of the phases leaves for the result: its request
/// counts and the closed loop's latencies, completions and length, in
/// all and by the slices that carried both clients' load.
struct Tally {
    attempted: usize,
    failed: usize,
    search: Hist,
    all: Hist,
    completed: usize,
    span: Duration,
    slices: Vec<Slice>,
}

/// Counts the requests of `phases` and pools the closed loop's
/// figures; an open loop that fell behind its schedule adds to
/// `problems`.
fn tally(phases: &Phases, problems: &mut Vec<String>) -> Tally {
    for (t, run) in phases.open.iter().enumerate() {
        if let Some(late) = fell_behind(run, phases.open_span) {
            problems.push(format!(
                "open-loop thread {t} fell behind its schedule (last request {late:.1?} late): \
                 the run is invalid"
            ));
        }
    }
    let runs = || phases.open.iter().chain(&phases.closed);
    Tally {
        attempted: runs().map(Run::attempted).sum(),
        failed: runs().map(|r| r.failed).sum(),
        search: merged(phases.closed.iter().map(|r| &r.search)),
        all: merged(phases.closed.iter().map(|r| &r.all)),
        completed: phases.closed.iter().map(Run::completed).sum(),
        span: phases.closed_span,
        slices: full_slices(&phases.closed),
    }
}

/// How a workload takes its end-to-end figures from its closed loops.
#[derive(Clone, Copy)]
struct Figures {
    /// The quantile of all requests `request_tail_us` reports.
    tail_q: f64,
    /// Whether `search_p50_us` is the lowest slice median, and
    /// `request_qps` the highest slice rate, instead of figures over
    /// the whole closed loop. The best slice is the least disturbed
    /// stretch of the run: on a shared host the loopback round trip of
    /// a mapped search slows by up to 1.8× for seconds to minutes at a
    /// time, and across runs the lowest slice median spread about half
    /// as much as the pooled median (see `STEADINESS.md`).
    slice_p50: bool,
    slice_qps: bool,
}

/// A slice counts toward the sliced figures only with this many
/// searches, so its median is not one of a handful.
const MIN_SLICE_SEARCHES: u64 = 100;

/// The result of a run: its tallies' counts, the `problems` found,
/// and either the per-layer ledger or the end-to-end metrics over the
/// closed loops of the tallies, taken as `figures` says: the search
/// p50, the `tail_q` quantile of all requests pooled, and completions
/// per second.
fn finish(
    setup: &Setup,
    tallies: Vec<Tally>,
    figures: Figures,
    problems: Vec<String>,
    trace: Option<Ledger>,
) -> Outcome {
    let (mut attempted, mut failed, mut completed) = (0, 0, 0);
    let (mut search, mut all, mut span) = (Hist::default(), Hist::default(), Duration::ZERO);
    for t in &tallies {
        attempted += t.attempted;
        failed += t.failed;
        completed += t.completed;
        search.merge(&t.search);
        all.merge(&t.all);
        span += t.span;
    }
    if let Some(t) = &trace {
        attempted += t.attempted;
        failed += t.failed;
    }
    let slices: Vec<&Slice> = tallies
        .iter()
        .flat_map(|t| &t.slices)
        .filter(|s| s.search.len() >= MIN_SLICE_SEARCHES)
        .collect();
    let metrics = trace.map(|t| t.metrics).unwrap_or_else(|| {
        let mut m = Metrics::default();
        m.put("setup_s", setup.total.as_secs_f64(), "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        let p50 = if figures.slice_p50 {
            let medians = slices.iter().map(|s| s.search.quantile(0.5));
            medians.min_by(f64::total_cmp).unwrap_or(f64::NAN)
        } else {
            search.quantile(0.5)
        };
        m.put("search_p50_us", p50, "us");
        m.put("request_tail_us", all.quantile(figures.tail_q), "us");
        let qps = if figures.slice_qps {
            let rates = slices
                .iter()
                .map(|s| s.completed as f64 / SLICE.as_secs_f64());
            rates.max_by(f64::total_cmp).unwrap_or(f64::NAN)
        } else if completed > 0 {
            completed as f64 / span.as_secs_f64()
        } else {
            f64::NAN
        };
        m.put("request_qps", qps, "req/s");
        m
    });
    Outcome {
        metrics,
        attempted,
        failed,
        problems,
    }
}

/// Splits `items` over the two threads of a closed loop.
fn closed_plans(items: impl Iterator<Item = usize>) -> [Vec<Planned>; 2] {
    let mut plans: [Vec<Planned>; 2] = [Vec::new(), Vec::new()];
    for (i, q) in items.enumerate() {
        plans[i % 2].push(Planned {
            op: Op::Search(q),
            due: Duration::ZERO,
        });
    }
    plans
}

/// Checks the hits of every kept search answer of `recs` with
/// `check(query, hits)`.
fn check_kept<'a>(
    recs: impl Iterator<Item = &'a Rec>,
    problems: &mut Vec<String>,
    mut check: impl FnMut(usize, &[Hit]) -> Result<(), String>,
) -> usize {
    let mut checked = 0;
    for r in recs {
        if let (Op::Search(q), true) = (r.op, r.ok) {
            checked += 1;
            if let Err(e) = check(q, &r.hits) {
                problems.push(format!("query {q}: {e}"));
            }
        }
    }
    checked
}

/// A read-only workload: `queries` served with `req`.
struct ReadOnly<'a> {
    queries: &'a [Graph],
    req: SearchRequest,
    /// The open loop's query indices and rate.
    open: &'a [usize],
    rate: f64,
    /// The closed loop's query indices, how long it runs, and whether
    /// it starts them over when it runs out (otherwise it ends then).
    closed: &'a [usize],
    closed_for: f64,
    cycle: bool,
    /// One in `sample_every` answers is checked, Refined ones against
    /// the oracle too when `oracle` is set.
    sample_every: u64,
    oracle: bool,
    figures: Figures,
}

fn read_only(args: &Args, (server, setup): (GdimServer, Setup), w: ReadOnly) -> Outcome {
    let addr = server.addr();
    let snap = server.handle().snapshot();
    let search_bodies: Vec<Json> = w
        .queries
        .iter()
        .map(|q| inputs::search_body(q, &w.req))
        .collect();
    let bodies = Bodies::new(&search_bodies, &[]);
    let (seed, every) = (args.seed, w.sample_every);
    let keep = move |i: usize, _| i < KEEP_WINDOW && sampled(seed, i, every);
    let open = inputs::open_plans(w.open.iter().copied(), w.rate);
    let closed = closed_plans(w.closed.iter().copied());
    let (closed_for, cycle) = (Duration::from_secs_f64(w.closed_for), w.cycle);
    let phases = run_phases(addr, &open, &closed, &bodies, &keep, |t| Pace::Until {
        deadline: t + closed_for,
        cycle,
    });

    let mut problems = Vec::new();
    let checked = check_kept(phases.kept(), &mut problems, |q, hits| {
        if w.oracle {
            checks::refined_matches_oracle(&snap, &w.queries[q], hits)?;
        }
        checks::served_matches(&snap, &w.queries[q], &w.req, hits)
    });
    eprintln!("checked {checked} sampled answers");
    let trace = args.trace.then(|| {
        ledger::ledger(LedgerInput {
            args,
            addr,
            setup: &setup,
            initial: &snap,
            served: &snap,
            req: &w.req,
            queries: w.queries,
            traced: &w.open[..w.open.len().min(traced_len(w.rate))],
            rate: w.rate,
            timed_open: &phases.open,
            open_queries: w.open,
            tail_q: w.figures.tail_q,
            oracle: w.oracle,
            problems: &mut problems,
        })
    });
    let tallies = vec![tally(&phases, &mut problems)];
    server.shutdown();
    finish(&setup, tallies, w.figures, problems, trace)
}

/// Requests in the traced phase: one second of the open loop, and at
/// least 30 so the refined one has a median.
fn traced_len(rate: f64) -> usize {
    (rate as usize).max(30)
}

pub fn mapped_zipf(args: &Args) -> Outcome {
    let setup = setup(None);
    let db = inputs::database();
    let pool = inputs::mapped_pool(&db);
    let open_n = (MAPPED_RATE * args.seconds * OPEN_SHARE) as usize;
    let closed_for = args.seconds * (1.0 - OPEN_SHARE);
    let draw = inputs::zipf_draw(open_n + MAPPED_CLOSED_DRAW, args.seed);
    let (open, closed) = draw.split_at(open_n);
    let w = ReadOnly {
        queries: &pool,
        req: inputs::mapped_request(),
        open,
        rate: MAPPED_RATE,
        closed,
        closed_for,
        cycle: true,
        sample_every: MAPPED_SAMPLE,
        oracle: false,
        figures: Figures {
            tail_q: 0.99,
            slice_p50: true,
            slice_qps: true,
        },
    };
    read_only(args, setup, w)
}

pub fn refine_unique(args: &Args) -> Outcome {
    let setup = setup(None);
    let db = inputs::database();
    let open_n = (REFINE_RATE * args.seconds * OPEN_SHARE) as usize;
    let closed_for = args.seconds * (1.0 - OPEN_SHARE);
    let closed_n = (REFINE_CLOSED_CAP * closed_for) as usize;
    // The distinct queries are the same on every seed, which only
    // orders them: the open loop sends all of its own, the closed loop
    // as many of its own as its phase allows, so the seed picks no
    // cheaper or dearer MCS work beyond that prefix.
    let queries = inputs::unique_queries(&db, open_n + closed_n);
    let open = inputs::permuted(0..open_n, args.seed);
    let closed = inputs::permuted(open_n..open_n + closed_n, args.seed);
    let w = ReadOnly {
        queries: &queries,
        req: inputs::refined_request(),
        open: &open,
        rate: REFINE_RATE,
        closed: &closed,
        closed_for,
        cycle: false,
        sample_every: REFINE_SAMPLE,
        oracle: true,
        // Every query is distinct, so slices would differ in MCS work,
        // not only in how disturbed they were: the whole loop counts.
        figures: Figures {
            tail_q: 0.95,
            slice_p50: false,
            slice_qps: false,
        },
    };
    read_only(args, setup, w)
}

/// The churn runs as whole episodes, one per this many seconds of
/// `--seconds` (at least one). Each episode serves a fresh durable
/// copy of the built index and runs one churn plan, which is fixed by
/// operation count, so the index stays below the scatter-gather row
/// count however long the run is.
const CHURN_EPISODE_SECONDS: f64 = 6.0;

/// Thread 1 of a churn's closed loop sends only searches: this many
/// times as many requests as thread 0's closed-loop plan, which holds
/// every write. Both plans run whole, so the closed loop's mix is set
/// by the plans, not by how fast writes are against searches; at the
/// measured speeds the two threads end at about the same time.
const CHURN_READER_RATIO: usize = 5;

/// The churn's tail quantile for a closed loop of `total` requests of
/// which `writes` are writes: the one that falls in the middle of the
/// writes, were every write slower than every search. With the plans'
/// write share of about 5%, the p97.5.
fn churn_tail_q(writes: u64, total: u64) -> f64 {
    1.0 - writes as f64 / (2 * total.max(1)) as f64
}

/// The workload seed of churn episode `e`; episode 0 uses the run's.
fn episode_seed(seed: u64, e: usize) -> u64 {
    seed ^ (e as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

pub fn durable_churn(args: &Args) -> Outcome {
    let dir = |e: usize| {
        let d = work_dir().join(format!("durable-{}-{e}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    };
    let first = dir(0);
    let (server, setup) = setup(Some(&first));
    let initial: ShardedIndex = (*server.handle().snapshot()).clone();
    let mut first = Some((server, first));
    let db = inputs::database();
    let pool = inputs::mapped_pool(&db);
    let req = inputs::mapped_request();
    let search_bodies: Vec<Json> = pool.iter().map(|q| inputs::search_body(q, &req)).collect();
    let churn = Churn {
        initial: &initial,
        pool: &pool,
        req: &req,
        search_bodies: &search_bodies,
    };
    let (mut tallies, mut problems) = (Vec::new(), Vec::new());
    let mut trace = None;
    let episodes = ((args.seconds / CHURN_EPISODE_SECONDS).round() as usize).max(1);
    for e in 0..episodes {
        let (server, d) = first.take().unwrap_or_else(|| {
            let d = dir(e);
            (serve_durable(&d, initial.clone()), d)
        });
        let traced = (e == 0 && args.trace).then_some(&setup);
        let (t, ledger) = churn.episode(
            args,
            episode_seed(args.seed, e),
            server,
            &d,
            traced,
            &mut problems,
        );
        tallies.push(t);
        trace = trace.or(ledger);
    }
    let (writes, total) = tallies.iter().fold((0, 0), |(w, n), t| {
        (w + t.all.len() - t.search.len(), n + t.all.len())
    });
    // The searches are mapped ones, sliced as on `mapped_zipf`; the
    // throughput counts the whole loop, whose end thread 0 may run
    // alone.
    let figures = Figures {
        tail_q: churn_tail_q(writes, total),
        slice_p50: true,
        slice_qps: false,
    };
    finish(&setup, tallies, figures, problems, trace)
}

/// What every churn episode shares.
struct Churn<'a> {
    /// The index as built, before any write.
    initial: &'a ShardedIndex,
    pool: &'a [Graph],
    req: &'a SearchRequest,
    search_bodies: &'a [Json],
}

impl Churn<'_> {
    /// Runs one churn plan of `seed` through `server`, which serves a
    /// fresh durable copy of the built index from `dir`, and checks
    /// it: the acked writes replay on a private copy, no search sees
    /// an id after its acked remove, and `dir` reopens with every
    /// acked write. With `trace`, the per-layer ledger runs before the
    /// server stops.
    fn episode(
        &self,
        args: &Args,
        seed: u64,
        server: GdimServer,
        dir: &Path,
        trace: Option<&Setup>,
        problems: &mut Vec<String>,
    ) -> (Tally, Option<Ledger>) {
        let addr = server.addr();
        let (pool, req) = (self.pool, self.req);
        let (mut plans, inserts) = inputs::churn_plan(seed);
        let insert_graphs = inputs::churn_inserts(inserts, seed);
        let insert_bodies: Vec<Json> = insert_graphs.iter().map(inputs::insert_body).collect();
        let bodies = Bodies::new(self.search_bodies, &insert_bodies);
        // The open loop takes the plan entries due before the cut; the
        // closed loop runs the rest back to back.
        let cut = Duration::from_secs_f64(inputs::CHURN_OPEN_OPS as f64 / inputs::CHURN_RATE);
        let mut closed: [Vec<Planned>; 2] = plans.each_mut().map(|p| {
            let at = p.partition_point(|e| e.due < cut);
            p.split_off(at)
        });
        // Thread 1 has no writes; its closed-loop plan is filled up with
        // searches to a fixed multiple of thread 0's.
        let planned = plans.iter().chain(&closed).map(Vec::len).max().unwrap_or(0);
        let more = CHURN_READER_RATIO * closed[0].len() - closed[1].len();
        let more = inputs::zipf_draw(more, seed.wrapping_add(1));
        closed[1].extend(more.into_iter().map(|q| Planned {
            op: Op::Search(q),
            due: Duration::ZERO,
        }));
        let writes = closed[0].iter().filter(|p| p.op.is_write()).count() as u64;
        let tail_q = churn_tail_q(writes, closed.iter().map(Vec::len).sum::<usize>() as u64);
        // Every answer of the churn plan is kept: searches for the
        // removal check, writes for the replay below. Thread 1's extra
        // searches past that are not.
        let keep = move |i: usize, _| i < planned;
        let phases = run_phases(addr, &plans, &closed, &bodies, &keep, |_| Pace::Whole);

        let acked = checks::acked_writes(
            phases.kept().filter(|r| r.op.is_write()),
            |j| bodies.acked_id(j),
            &insert_graphs,
        );
        if let Err(e) = checks::no_hit_after_remove(phases.kept(), &acked) {
            problems.push(e);
        }
        let served = server.handle().snapshot();
        let recs: Vec<&Rec> = phases.kept().collect();
        let replay = checks::replay_matches(self.initial, &recs, &insert_graphs, pool, req, |i| {
            sampled(seed, i, CHURN_SAMPLE)
        })
        .and_then(|(n, replayed)| {
            checks::same_answers(&replayed, &served, pool, req)?;
            Ok(n)
        });
        match replay {
            Ok(n) => eprintln!("checked {n} churn answers against an in-process replay"),
            Err(e) => problems.push(e),
        }
        let ledger = trace.map(|setup| {
            let searches: Vec<usize> = plans
                .iter()
                .flatten()
                .filter_map(|p| match p.op {
                    Op::Search(q) => Some(q),
                    _ => None,
                })
                .collect();
            let rate = inputs::CHURN_RATE * (1.0 - inputs::INSERT_SHARE - inputs::REMOVE_SHARE);
            ledger::ledger(LedgerInput {
                args,
                addr,
                setup,
                initial: self.initial,
                served: &served,
                req,
                queries: pool,
                traced: &searches[..searches.len().min(traced_len(rate))],
                rate,
                timed_open: &phases.open,
                open_queries: &searches,
                tail_q,
                oracle: false,
                problems,
            })
        });
        let tally = tally(&phases, problems);
        server.shutdown();
        match checks::reopen_matches(dir, &acked, &served, pool, req) {
            Ok(rows) => eprintln!("reopened {rows} rows with every acked write"),
            Err(e) => problems.push(e),
        }
        let _ = std::fs::remove_dir_all(dir);
        (tally, ledger)
    }
}

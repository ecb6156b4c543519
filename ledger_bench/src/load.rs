//! The load generator: at most two threads, each owning one keep-alive
//! [`Client`] connection, running either an open loop (every request
//! has a due time; latency counts from it, so a slow server cannot
//! hide behind a late generator) or a closed loop (send, wait, send).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gdim_core::Hit;
use gdim_server::wire::response_from_json;
use gdim_server::{Client, Json};

use crate::inputs::{Op, Planned};
use crate::stats::Hist;

/// A request whose record the caller asked to keep.
#[derive(Debug, Clone)]
pub struct Rec {
    pub op: Op,
    pub sent: Instant,
    pub done: Instant,
    /// Whether it was answered 200, with a well-formed answer.
    pub ok: bool,
    /// A write's answer body.
    pub body: Option<Json>,
    /// A search's hits, and the total of its answer's `stats.stages`.
    pub hits: Vec<Hit>,
    pub stage_ns: u64,
}

/// What one thread's run of a plan leaves: histograms of every
/// request's latency, which do not grow with the request count, and
/// the records the caller asked to keep.
#[derive(Default)]
pub struct Run {
    /// Search latencies and every request's latency in µs: send to
    /// answer, plus in an open loop the time the request waited past
    /// its due time for the previous answer on its connection. A
    /// failed request counts as `INFINITY`.
    pub search: Hist,
    pub all: Hist,
    /// The generator's own lateness: how long after it could have gone
    /// out each request was sent (0 in a closed loop).
    pub late: Hist,
    pub failed: usize,
    /// How long after its due time the last request went out.
    pub behind: Duration,
    pub kept: Vec<Rec>,
    /// In a closed loop, the same figures by [`SLICE`] of the phase,
    /// and when, from the phase's start, the thread's last answer came.
    pub slices: Vec<Slice>,
    pub until: Duration,
}

/// A closed loop also keeps its figures per slice of this length,
/// counted from the phase's start.
pub const SLICE: Duration = Duration::from_millis(250);

/// One slice of a closed loop: the latencies of the searches answered
/// in it, and how many requests were answered in it.
#[derive(Clone)]
pub struct Slice {
    pub search: Hist,
    pub completed: u64,
}

impl Default for Slice {
    fn default() -> Self {
        Slice {
            search: Hist::coarse(),
            completed: 0,
        }
    }
}

impl Run {
    pub fn attempted(&self) -> usize {
        self.all.len() as usize
    }

    pub fn completed(&self) -> usize {
        self.attempted() - self.failed
    }
}

/// The bodies the threads send: search bodies by query index, insert
/// bodies by insert index. Remove bodies are made at run time from
/// `acked`, the ids earlier inserts were acked with (`u64::MAX` until
/// then); it outlives a phase, so a closed loop can remove what the
/// open loop inserted.
pub struct Bodies<'a> {
    pub search: &'a [Json],
    pub insert: &'a [Json],
    pub acked: Vec<AtomicU64>,
}

impl<'a> Bodies<'a> {
    pub fn new(search: &'a [Json], insert: &'a [Json]) -> Self {
        Bodies {
            search,
            insert,
            acked: (0..insert.len())
                .map(|_| AtomicU64::new(u64::MAX))
                .collect(),
        }
    }

    /// The id insert `j` was acked with, if it was.
    pub fn acked_id(&self, j: usize) -> Option<u64> {
        Some(self.acked[j].load(Ordering::Acquire)).filter(|&id| id != u64::MAX)
    }
}

/// How a thread paces its plan.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Each request at `start + due`.
    Open { start: Instant },
    /// Back to back until `deadline`, starting the plan over when
    /// `cycle` is set; otherwise the first thread to run out of plan
    /// ends the loop for both, so both send for its whole length.
    Until { deadline: Instant, cycle: bool },
    /// Back to back, each thread through its whole plan.
    Whole,
}

/// Runs one thread's plan; `keep(i, op)` says whether to keep the
/// record of the `i`-th request it sends. Slices its figures from
/// `from` when given. Sets `done_flag` when it stops.
fn run_plan(
    addr: SocketAddr,
    plan: &[Planned],
    bodies: &Bodies,
    pace: Pace,
    from: Option<Instant>,
    keep: &(dyn Fn(usize, Op) -> bool + Sync),
    done_flag: &AtomicBool,
) -> Run {
    let mut client = Client::connect(addr).expect("connect load client");
    let mut run = Run::default();
    let mut prev_done = None;
    let n = match pace {
        Pace::Until { cycle: true, .. } => usize::MAX,
        _ => plan.len(),
    };
    for (i, p) in plan.iter().cycle().take(n).enumerate() {
        let due = match pace {
            Pace::Open { start } => {
                let due = start + p.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                Some(due)
            }
            Pace::Until { deadline, .. } => {
                if done_flag.load(Ordering::Acquire) || Instant::now() >= deadline {
                    break;
                }
                None
            }
            Pace::Whole => None,
        };
        let remove_body;
        let (path, body) = match p.op {
            Op::Search(q) => ("/search", &bodies.search[q]),
            Op::Insert(j) => ("/insert", &bodies.insert[j]),
            Op::Remove(j) => {
                // An insert that failed leaves nothing to remove; the
                // remove then names no id and fails as well.
                let id = bodies.acked_id(j).map_or(Json::Null, Json::U64);
                remove_body = Json::obj([("id", id)]);
                ("/remove", &remove_body)
            }
            Op::Checkpoint => ("/checkpoint", &Json::Null),
        };
        let sent = Instant::now();
        let reply = client.post(path, body);
        let done = Instant::now();
        let (ok, answer) = match reply {
            Ok((200, j)) => (true, Some(j)),
            Ok((status, j)) => {
                eprintln!(
                    "request {path} answered {status}: {}",
                    j.to_string_compact()
                );
                (false, None)
            }
            Err(e) => {
                eprintln!("request {path} failed: {e}");
                (false, None)
            }
        };
        if let (Op::Insert(j), Some(id)) = (p.op, answer.as_ref().and_then(|a| a.get("id"))) {
            if let Some(id) = id.as_u64() {
                bodies.acked[j].store(id, Ordering::Release);
            }
        }
        // In an open loop a request could have gone out at its due time
        // or when the previous answer on the connection arrived,
        // whichever is later. Waiting past the due time for that answer
        // is the server's doing and counts as latency (no coordinated
        // omission); the generator's own wake-up jitter after that is
        // lateness, not latency.
        let ready = due.map_or(sent, |d| {
            prev_done.map_or(d, |p: Instant| d.max(p)).min(sent)
        });
        let queued = due.map_or(Duration::ZERO, |d| ready - d);
        prev_done = Some(done);
        let latency_us = if ok {
            (done - sent + queued).as_secs_f64() * 1e6
        } else {
            run.failed += 1;
            f64::INFINITY
        };
        if matches!(p.op, Op::Search(_)) {
            run.search.record(latency_us);
        }
        run.all.record(latency_us);
        if let Some(from) = from {
            run.until = done - from;
            let k = (run.until.as_secs_f64() / SLICE.as_secs_f64()) as usize;
            if run.slices.len() <= k {
                run.slices.resize_with(k + 1, Slice::default);
            }
            let slice = &mut run.slices[k];
            slice.completed += u64::from(ok);
            if matches!(p.op, Op::Search(_)) {
                slice.search.record(latency_us);
            }
        }
        run.late.record((sent - ready).as_secs_f64() * 1e6);
        run.behind = sent - due.unwrap_or(sent);
        if keep(i, p.op) {
            let mut rec = Rec {
                op: p.op,
                sent,
                done,
                ok,
                body: None,
                hits: Vec::new(),
                stage_ns: 0,
            };
            // A search keeps its hits, not its answer tree, so the
            // records a churn keeps stay small.
            match (p.op, answer) {
                (Op::Search(_), Some(j)) => match response_from_json(&j) {
                    Ok(r) => {
                        rec.hits = r.hits;
                        rec.stage_ns = r.stats.stages.total_ns();
                    }
                    Err(e) => {
                        eprintln!("request {path}: bad answer: {e}");
                        run.failed += 1;
                        rec.ok = false;
                    }
                },
                (_, answer) => rec.body = answer,
            }
            run.kept.push(rec);
        }
    }
    // The first thread to run out of plan ends a loop with a deadline
    // for both.
    done_flag.store(true, Ordering::Release);
    run
}

/// Runs both threads' plans at once and returns what each left,
/// thread 0's first; a closed loop's figures are also sliced.
pub fn run_plans(
    addr: SocketAddr,
    plans: &[Vec<Planned>; 2],
    bodies: &Bodies,
    pace: Pace,
    keep: &(dyn Fn(usize, Op) -> bool + Sync),
) -> [Run; 2] {
    let done_flag = AtomicBool::new(false);
    let done_flag = &done_flag;
    let from = (!matches!(pace, Pace::Open { .. })).then(Instant::now);
    std::thread::scope(|s| {
        let handles = plans
            .each_ref()
            .map(|plan| s.spawn(move || run_plan(addr, plan, bodies, pace, from, keep, done_flag)));
        handles.map(|h| h.join().expect("load thread"))
    })
}

/// An open loop is invalid when it fell behind its schedule: a
/// thread's last request went out more than `max(1 s, 10% of the
/// phase)` after it was due, so the offered rate was not the planned
/// one. Returns how late that request was.
pub fn fell_behind(run: &Run, phase: Duration) -> Option<Duration> {
    let limit = phase.mul_f64(0.1).max(Duration::from_secs(1));
    Some(run.behind).filter(|&late| late > limit)
}

/// The merge of `hists`.
pub fn merged<'a>(hists: impl IntoIterator<Item = &'a Hist>) -> Hist {
    let mut out = Hist::default();
    hists.into_iter().for_each(|h| out.merge(h));
    out
}

/// The slices of a closed loop's `runs`, merged, that ended before the
/// first thread stopped: every one of them carried both clients' load.
pub fn full_slices(runs: &[Run]) -> Vec<Slice> {
    let until = runs.iter().map(|r| r.until).min().unwrap_or_default();
    let n = (until.as_secs_f64() / SLICE.as_secs_f64()) as usize;
    (0..n)
        .map(|k| {
            let mut out = Slice::default();
            for s in runs.iter().filter_map(|r| r.slices.get(k)) {
                out.search.merge(&s.search);
                out.completed += s.completed;
            }
            out
        })
        .collect()
}

//! The traced run's per-layer ledger. It times calls into each
//! layer's public functions from this crate, with the same inputs as
//! the timed run, and keeps the timings as spans (name, start, end,
//! parent, request id) that are written out when the run ends.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use gdim_core::{GraphId, Ranker, SearchRequest, SearchResponse};
use gdim_graph::Graph;
use gdim_server::wire::{query_from_json, request_from_json, response_to_json};
use gdim_server::{parse_json, Json, QuerySpec};
use gdim_shard::durable::generation_dir;
use gdim_shard::{DurableHandle, ShardId, ShardedIndex, SyncPolicy};
use gdim_wal::{WalRecord, WalWriter};

use crate::checks;
use crate::inputs::{self, repeat_share, Op};
use crate::load::{merged, run_plans, Bodies, Pace, Run};
use crate::setup::{Setup, SYNC};
use crate::stats::{mean, median, quantile, Metrics};
use crate::{work_dir, Args};

/// Traced requests whose MCS verification is replayed call by call.
const MCS_SAMPLE: usize = 30;
/// Churn writes replayed through the write-path layers.
const WRITE_SAMPLE: usize = 200;

pub struct LedgerInput<'a> {
    pub args: &'a Args,
    /// Where the server listens.
    pub addr: SocketAddr,
    pub setup: &'a Setup,
    /// The index as built, before any write.
    pub initial: &'a ShardedIndex,
    /// The index the server answers from now (it does not change
    /// while the ledger runs).
    pub served: &'a ShardedIndex,
    pub req: &'a SearchRequest,
    pub queries: &'a [Graph],
    /// Query indices of the traced phase, in send order.
    pub traced: &'a [usize],
    pub rate: f64,
    /// The timed run's open loop, the queries it sent, and the tail
    /// quantile the run uses.
    pub timed_open: &'a [Run; 2],
    pub open_queries: &'a [usize],
    pub tail_q: f64,
    /// Whether each traced answer is checked against the refine oracle.
    pub oracle: bool,
    pub problems: &'a mut Vec<String>,
}

struct Span {
    req: usize,
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

#[derive(Default)]
struct Spans(Vec<Span>);

impl Spans {
    fn push(
        &mut self,
        req: usize,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.0.push(Span {
            req,
            name,
            start,
            end,
            parent,
        });
        self.0.len() - 1
    }

    /// Runs `f` as span `name` and returns its value and span index.
    fn time<R>(
        &mut self,
        req: usize,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let out = f();
        (out, self.push(req, name, start, Instant::now(), parent))
    }

    fn us(&self, i: usize) -> f64 {
        (self.0[i].end - self.0[i].start).as_secs_f64() * 1e6
    }

    /// Self time of every span: its duration minus its children's.
    fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = (0..self.0.len()).map(|i| self.us(i)).collect();
        for (i, s) in self.0.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] -= self.us(i);
            }
        }
        own
    }

    fn write(&self, path: &Path, origin: Instant) -> std::io::Result<()> {
        let own = self.self_us();
        let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos();
        let mut out = String::new();
        for (i, s) in self.0.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"span\": {i}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"self_us\": {:.3}}}\n",
                s.req,
                s.name,
                ns(s.start),
                ns(s.end),
                own[i]
            ));
        }
        std::fs::write(path, out)
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, us(t.elapsed()))
}

fn search(snap: &ShardedIndex, q: &Graph, req: &SearchRequest) -> SearchResponse {
    snap.search(q, req).expect("in-process search")
}

/// One MCS call of a replayed verification.
struct McsCall {
    us: f64,
    nodes: u64,
    exact: bool,
}

/// The per-layer metrics and the traced phase's request counts.
pub struct Ledger {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
}

/// Runs the traced run's layer measurements.
pub fn ledger(inp: LedgerInput) -> Ledger {
    let origin = Instant::now();
    let snap = inp.served;
    let addr = inp.addr;
    let mut m = Metrics::default();
    build_metrics(&mut m, inp.setup);

    // The traced phase, sent twice at the open-loop rate: untraced,
    // then traced (every answer kept for the replays below).
    let bodies_vec: Vec<Json> = inp
        .queries
        .iter()
        .map(|q| inputs::search_body(q, inp.req))
        .collect();
    let bodies = Bodies::new(&bodies_vec, &[]);
    let plans = inputs::open_plans(inp.traced.iter().copied(), inp.rate);
    let phase = |keep: bool| {
        let start = Instant::now() + Duration::from_millis(20);
        run_plans(addr, &plans, &bodies, Pace::Open { start }, &|_, _| keep)
    };
    let untraced = phase(false);
    let traced = phase(true);
    let both = || untraced.iter().chain(&traced);
    let attempted = both().map(Run::attempted).sum();
    let failed = both().map(|r| r.failed).sum();
    let p50 = |runs: &[Run; 2]| merged(runs.iter().map(|r| &r.search)).quantile(0.5);
    let overhead = p50(&traced) / p50(&untraced) - 1.0;
    let traced: Vec<_> = traced.into_iter().flat_map(|r| r.kept).collect();

    // Replay each traced request layer by layer.
    let shard0 = snap.shard(ShardId(0)).expect("shard 0");
    let mapped20 = inputs::mapped_candidates();
    let mut spans = Spans::default();
    let (mut map_us, mut scan_us, mut search_us, mut gap_us) = (vec![], vec![], vec![], vec![]);
    let (mut vf2_calls, mut vf2_pruned, mut rows) = (0usize, 0usize, vec![]);
    let (mut mcs, mut mcs_per_query, mut refine_self) = (Vec::new(), vec![], vec![]);
    let mut mcs_done: Vec<usize> = Vec::new();
    let mut root_spans = Vec::new();
    for (rid, r) in traced.iter().enumerate() {
        let (Op::Search(qi), true) = (r.op, r.ok) else {
            continue;
        };
        let root = spans.push(rid, "client.rtt", r.sent, r.done, None);
        root_spans.push(root);
        let text = bodies_vec[qi].to_string_compact();
        let ((req, q), _) = spans.time(rid, "server.wire.decode", Some(root), || {
            let j = parse_json(&text).expect("request JSON");
            let req = request_from_json(&j).expect("request options");
            let Ok(QuerySpec::Graph(q)) = query_from_json(j.get("query").expect("query")) else {
                panic!("inline query expected")
            };
            (req, q)
        });
        let (resp, s_span) = spans.time(rid, "shard.search", Some(root), || search(snap, &q, &req));
        spans.time(rid, "server.wire.encode", Some(root), || {
            response_to_json(&resp).to_string_compact()
        });
        if let Err(e) = checks::same_hits("served vs in-process", &r.hits, &resp.hits) {
            inp.problems.push(format!("traced request {rid}: {e}"));
        }
        gap_us.push(spans.us(s_span) - r.stage_ns as f64 / 1e3);
        let ((_, ms), m_span) = spans.time(rid, "core.map", Some(s_span), || {
            shard0.map_query_with_stats(&q)
        });
        vf2_calls += ms.vf2_calls;
        vf2_pruned += ms.vf2_pruned;
        map_us.push(spans.us(m_span));
        search_us.push(spans.us(s_span));
        let refined = matches!(req.ranker, Ranker::Refined { .. });
        // The Mapped scan leg: the served search itself when it is
        // Mapped, else a Mapped top-20 (the candidates Refined verifies).
        // Its scan is that search's time less its own mapping time, both
        // from the one call, so the two mapping measurements' noise
        // does not land in it.
        let (scan_resp, scan_total) = if refined {
            let (resp, i) = spans.time(rid, "shard.search.mapped", None, || {
                search(snap, &q, &mapped20)
            });
            (resp, spans.us(i))
        } else {
            (resp.clone(), spans.us(s_span))
        };
        scan_us.push(scan_total - us(scan_resp.stats.match_time));
        rows.push(scan_resp.stats.candidates_scanned as f64);

        // MCS verification, call by call, on the Mapped top-20: every
        // traced Refined request, and a sample of distinct queries of
        // the other workloads.
        if !(refined || (mcs_done.len() < MCS_SAMPLE && !mcs_done.contains(&qi))) {
            continue;
        }
        mcs_done.push(qi);
        let (cands, cands_us) = if refined {
            (scan_resp, scan_total)
        } else {
            timed(|| search(snap, &q, &mapped20))
        };
        // One span per MCS call: under the Refined search it verifies,
        // or a root of its own where the served search verified nothing.
        let parent = refined.then_some(s_span);
        let mut calls = Vec::with_capacity(cands.hits.len());
        let oracle = checks::rank_by_delta(snap, &q, &cands.hits, |out, start, end| {
            let i = spans.push(rid, "graph.mcs", start, end, parent);
            calls.push(McsCall {
                us: spans.us(i),
                nodes: out.nodes,
                exact: out.exact,
            });
        });
        if inp.oracle {
            if let Err(e) = checks::same_hits("oracle vs in-process", &oracle, &resp.hits) {
                inp.problems.push(format!("traced request {rid}: {e}"));
            }
        }
        let mcs_total: f64 = calls.iter().map(|c| c.us).sum();
        mcs_per_query.push(calls.len() as f64);
        mcs.extend(calls);
        let refined_us = if refined {
            spans.us(s_span)
        } else {
            timed(|| search(snap, &q, &inputs::refined_request())).1
        };
        refine_self.push(refined_us - cands_us - mcs_total);
    }
    let own = spans.self_us();
    let named = |name: &str| -> Vec<f64> {
        spans
            .0
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, _)| spans.us(i))
            .collect()
    };
    let rtt = named("client.rtt");
    let residual: Vec<f64> = root_spans.iter().map(|&i| own[i]).collect();
    m.put("client.rtt_us", median(&rtt), "us");
    m.put(
        "server.wire.decode_us",
        median(&named("server.wire.decode")),
        "us",
    );
    m.put(
        "server.wire.encode_us",
        median(&named("server.wire.encode")),
        "us",
    );
    m.put("server.residual_us", median(&residual), "us");
    m.put("server.stage_gap_us", median(&gap_us), "us");
    m.put("shard.search_us.p50", median(&search_us), "us");
    m.put("shard.search_us.p99", quantile(&search_us, 0.99), "us");
    m.put("core.map_us", median(&map_us), "us");
    m.put(
        "graph.vf2.calls_per_query",
        vf2_calls as f64 / map_us.len().max(1) as f64,
        "count",
    );
    m.put(
        "graph.vf2.pruned_frac",
        vf2_pruned as f64 / (vf2_calls + vf2_pruned).max(1) as f64,
        "ratio",
    );
    m.put("core.scan_us", median(&scan_us), "us");
    m.put("core.scan.rows_per_query", mean(&rows), "count");
    let call_us: Vec<f64> = mcs.iter().map(|c| c.us).collect();
    m.put("graph.mcs.calls_per_query", mean(&mcs_per_query), "count");
    m.put("graph.mcs.us_per_call.p50", median(&call_us), "us");
    m.put("graph.mcs.us_per_call.p99", quantile(&call_us, 0.99), "us");
    m.put(
        "graph.mcs.nodes_per_call",
        mean(&mcs.iter().map(|c| c.nodes as f64).collect::<Vec<_>>()),
        "count",
    );
    m.put(
        "graph.mcs.budget_hit_frac",
        mcs.iter().filter(|c| !c.exact).count() as f64 / mcs.len().max(1) as f64,
        "ratio",
    );
    m.put("core.refine.self_us", median(&refine_self), "us");
    eprintln!(
        "outside spans vs the server's stats.stages, same requests: median gap {:.1} us \
         (outside shard.search {:.1} us); residual {:.1} us of {:.1} us rtt",
        median(&gap_us),
        median(&search_us),
        median(&residual),
        median(&rtt)
    );

    write_path(&mut m, inp.args.seed, inp.initial, inp.problems);
    m.put("shard.rows_end", snap.len() as f64, "count");

    m.put("tracing.overhead_frac", overhead, "ratio");
    let sent = inp.open_queries.iter().map(|&q| &inp.queries[q]);
    m.put("load.repeat_share", repeat_share(sent), "ratio");
    let open = inp.timed_open;
    let late = merged(open.iter().map(|r| &r.late)).quantile(0.99);
    m.put("load.late_p99_us", late, "us");
    let open_p50 = merged(open.iter().map(|r| &r.search)).quantile(0.5);
    m.put("load.open.search_p50_us", open_p50, "us");
    let open_tail = merged(open.iter().map(|r| &r.all)).quantile(inp.tail_q);
    m.put("load.open.request_tail_us", open_tail, "us");

    let path = work_dir().join(format!(
        "spans-{}-{}.jsonl",
        inp.args.workload, inp.args.seed
    ));
    match spans.write(&path, origin) {
        Ok(()) => eprintln!("wrote {} spans to {}", spans.0.len(), path.display()),
        Err(e) => inp.problems.push(format!("writing spans: {e}")),
    }
    Ledger {
        metrics: m,
        attempted,
        failed,
    }
}

fn build_metrics(m: &mut Metrics, s: &Setup) {
    let st = &s.stats;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    m.put("mining.mine_ms", ms(st.mining_time), "ms");
    m.put("core.delta.matrix_s", st.delta_time.as_secs_f64(), "s");
    m.put("core.delta.pairs", st.delta_pairs as f64, "count");
    m.put(
        "graph.mcs.build_us_per_pair",
        us(st.delta_time) / st.delta_pairs.max(1) as f64,
        "us",
    );
    m.put("core.dspm.select_ms", ms(st.selection_time), "ms");
    let phases = st.mining_time + st.delta_time + st.selection_time;
    m.put(
        "shard.build.split_ms",
        ms(s.build.saturating_sub(phases)),
        "ms",
    );
    m.put("server.start_ms", ms(s.server_start), "ms");
}

/// The write-path layers, fed the first [`WRITE_SAMPLE`] writes of the
/// seed's churn plan (the `durable_churn` inputs) starting from the
/// freshly built index.
fn write_path(m: &mut Metrics, seed: u64, initial: &ShardedIndex, problems: &mut Vec<String>) {
    let (plans, inserts) = inputs::churn_plan(seed);
    let graphs = inputs::churn_inserts(inserts, seed);
    let writes: Vec<Op> = plans[0]
        .iter()
        .map(|p| p.op)
        .filter(|op| op.is_write())
        .take(WRITE_SAMPLE)
        .collect();

    // ShardedIndex::insert on a private copy, with a snapshot held
    // across each insert so it pays the copy-on-write a served insert
    // pays.
    let mut copy = initial.clone();
    let mut ids: Vec<Option<GraphId>> = vec![None; graphs.len()];
    let mut insert_us = Vec::new();
    for op in &writes {
        let held = copy.clone();
        match *op {
            Op::Insert(j) => {
                let (id, t) = timed(|| copy.insert(graphs[j].clone()));
                ids[j] = Some(id);
                insert_us.push(t);
            }
            Op::Remove(j) => {
                copy.remove(ids[j].expect("planned remove follows its insert"))
                    .expect("remove on the private copy");
            }
            _ => {}
        }
        drop(held);
    }
    m.put("shard.insert_us", median(&insert_us), "us");

    // The same writes through a scratch DurableHandle.
    let dir = work_dir().join(format!("ledger-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = DurableHandle::create(&dir, initial.clone(), SYNC).expect("scratch durable dir");
    let (mut d_ins, mut d_rem) = (Vec::new(), Vec::new());
    let mut ids: Vec<Option<GraphId>> = vec![None; graphs.len()];
    let mut records: Vec<Vec<u8>> = Vec::new();
    let mut user_bytes = 0usize;
    for op in &writes {
        match *op {
            Op::Insert(j) => {
                let (id, t) = timed(|| durable.insert(graphs[j].clone()));
                ids[j] = Some(id.expect("durable insert"));
                d_ins.push(t);
                records.push(WalRecord::Insert(graphs[j].clone()).encode());
                user_bytes += inputs::insert_body(&graphs[j]).to_string_compact().len();
            }
            Op::Remove(j) => {
                let id = ids[j].expect("planned remove follows its insert");
                let (removed, t) = timed(|| durable.remove(id));
                if !matches!(removed, Ok(true)) {
                    problems.push(format!("durable remove of {id:?} did not take effect"));
                }
                d_rem.push(t);
                records.push(WalRecord::Remove(id.get()).encode());
                let body = Json::obj([("id", Json::U64(id.get() as u64))]);
                user_bytes += body.to_string_compact().len();
            }
            _ => {}
        }
    }
    let wal_bytes = durable.wal_bytes();
    let (generation, ck_ms) = timed(|| durable.checkpoint().expect("checkpoint"));
    let ck_bytes = dir_bytes(&dir.join(generation_dir(generation)));
    drop(durable);
    m.put("shard.durable.insert_us.p50", median(&d_ins), "us");
    m.put("shard.durable.insert_us.p99", quantile(&d_ins, 0.99), "us");
    m.put("shard.durable.remove_us.p50", median(&d_rem), "us");
    m.put("shard.durable.remove_us.p99", quantile(&d_rem, 0.99), "us");
    m.put("shard.durable.checkpoint_ms", ck_ms / 1e3, "ms");
    m.put("shard.durable.checkpoint_bytes", ck_bytes as f64, "bytes");

    // WalWriter::append under Never, then sync, on a scratch log of
    // the same records.
    let log = dir.join("scratch.wal");
    let mut wal = WalWriter::create(&log, SyncPolicy::Never).expect("scratch log");
    let (mut append_us, mut fsync_us) = (Vec::new(), Vec::new());
    for rec in &records {
        append_us.push(timed(|| wal.append(rec).expect("append")).1);
        fsync_us.push(timed(|| wal.sync().expect("fsync")).1);
    }
    let log_bytes = wal.len();
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    m.put("wal.append_us.p50", median(&append_us), "us");
    m.put("wal.append_us.p99", quantile(&append_us, 0.99), "us");
    m.put("wal.fsync_us.p50", median(&fsync_us), "us");
    m.put("wal.fsync_us.p99", quantile(&fsync_us, 0.99), "us");
    m.put(
        "wal.bytes_per_write",
        log_bytes as f64 / records.len().max(1) as f64,
        "bytes",
    );
    m.put(
        "wal.bytes_per_user_byte",
        log_bytes as f64 / user_bytes.max(1) as f64,
        "ratio",
    );
    if log_bytes != wal_bytes {
        problems.push(format!(
            "scratch log holds {log_bytes} bytes, the durable log {wal_bytes}"
        ));
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

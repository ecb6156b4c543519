//! The correctness checks a run must pass: served answers equal the
//! in-process ones bit for bit, Refined answers equal an outside
//! oracle, and a durable directory reopens with every acked write.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use gdim_core::{GraphId, Hit, SearchRequest};
use gdim_graph::{mcs_edges, Graph, McsOutcome};
use gdim_server::Json;
use gdim_shard::{DurableHandle, ShardId, ShardedIndex};

use crate::inputs::{mapped_candidates, Op, K};
use crate::load::Rec;
use crate::setup::SYNC;

/// `a` and `b` hold the same ids with the same distance bits, in order.
pub fn same_hits(what: &str, a: &[Hit], b: &[Hit]) -> Result<(), String> {
    let key = |h: &Hit| (h.id, h.distance.to_bits());
    if a.len() == b.len() && a.iter().map(key).eq(b.iter().map(key)) {
        return Ok(());
    }
    Err(format!("{what}: {a:?} != {b:?}"))
}

/// The `served` hits for `q` must be exactly those of the in-process
/// `ShardedIndex::search`, ids and distance bits alike.
pub fn served_matches(
    snap: &ShardedIndex,
    q: &Graph,
    req: &SearchRequest,
    served: &[Hit],
) -> Result<(), String> {
    let local = snap.search(q, req).map_err(|e| e.to_string())?;
    same_hits("served vs in-process", served, &local.hits)
}

/// The top-k of `candidates` by `(δ, insertion order)` — `(δ, id)`
/// on a database that saw no inserts — with δ from `mcs_edges` under
/// the index's own MCS options. `on_call` sees each call's outcome and
/// when it started and ended.
pub fn rank_by_delta(
    snap: &ShardedIndex,
    q: &Graph,
    candidates: &[Hit],
    mut on_call: impl FnMut(&McsOutcome, Instant, Instant),
) -> Vec<Hit> {
    let shard = snap.shard(ShardId(0)).expect("shard 0");
    let (opts, kind) = (shard.delta_config().mcs, shard.dissimilarity());
    let mut ranked: Vec<(f64, u64, GraphId)> = candidates
        .iter()
        .map(|h| {
            let g = snap.graph(h.id).expect("candidate graph");
            let start = Instant::now();
            let out = mcs_edges(q, g, &opts);
            on_call(&out, start, Instant::now());
            let delta = kind.eval(q, g, out.edges);
            (delta, snap.seq_of(h.id).expect("candidate seq"), h.id)
        })
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranked
        .into_iter()
        .take(K)
        .map(|(distance, _, id)| Hit { id, distance })
        .collect()
}

/// The Refined answer, computed outside the index: the Mapped top-20,
/// each verified by [`rank_by_delta`].
pub fn refine_oracle(snap: &ShardedIndex, q: &Graph) -> Vec<Hit> {
    let candidates = snap
        .search(q, &mapped_candidates())
        .expect("mapped candidates");
    rank_by_delta(snap, q, &candidates.hits, |_, _, _| {})
}

/// Served Refined hits must equal [`refine_oracle`].
pub fn refined_matches_oracle(
    snap: &ShardedIndex,
    q: &Graph,
    served: &[Hit],
) -> Result<(), String> {
    same_hits("served vs oracle", served, &refine_oracle(snap, q))
}

/// What the churn's writes were acked with.
pub struct Acked<'a> {
    /// Insert index → (acked id, graph).
    pub inserts: Vec<(u64, &'a Graph)>,
    /// Acked remove → (id, when the ack arrived).
    pub removes: Vec<(u64, Instant)>,
}

/// Collects the acked writes from the records of every phase.
pub fn acked_writes<'a>(
    recs: impl IntoIterator<Item = &'a Rec>,
    acked_id: impl Fn(usize) -> Option<u64>,
    graphs: &'a [Graph],
) -> Acked<'a> {
    let mut acked = Acked {
        inserts: Vec::new(),
        removes: Vec::new(),
    };
    for r in recs {
        match (r.op, r.ok) {
            (Op::Insert(j), true) => acked
                .inserts
                .push((acked_id(j).expect("acked insert id"), &graphs[j])),
            (Op::Remove(j), true) => acked
                .removes
                .push((acked_id(j).expect("removed insert id"), r.done)),
            _ => {}
        }
    }
    acked
}

/// No search sent after an id's remove was acked may return that id.
pub fn no_hit_after_remove<'a>(
    searches: impl IntoIterator<Item = &'a Rec>,
    acked: &Acked,
) -> Result<(), String> {
    let removed: HashMap<u64, Instant> = acked.removes.iter().copied().collect();
    for r in searches {
        for id in r.hits.iter().map(|h| u64::from(h.id.0)) {
            if removed.get(&id).is_some_and(|&at| r.sent > at) {
                return Err(format!(
                    "id {id} returned by a search sent after its remove was acked"
                ));
            }
        }
    }
    Ok(())
}

/// The two indexes answer every query of `queries` identically.
pub fn same_answers(
    a: &ShardedIndex,
    b: &ShardedIndex,
    queries: &[Graph],
    req: &SearchRequest,
) -> Result<(), String> {
    for q in queries {
        let (x, y) = (a.search(q, req), b.search(q, req));
        same_hits(
            "replayed vs served",
            &x.map_err(|e| e.to_string())?.hits,
            &y.map_err(|e| e.to_string())?.hits,
        )?;
    }
    Ok(())
}

/// Replays the acked writes of a churn, in the order thread 0 sent
/// them, on a private copy of the `initial` index. Every insert must
/// get the id the server acked it with, every remove must take
/// effect, and each sampled search that ran entirely between two
/// writes must equal the replayed state's answer bit for bit. Returns
/// the number of searches checked and the final replayed index.
pub fn replay_matches(
    initial: &ShardedIndex,
    recs: &[&Rec],
    inserts: &[Graph],
    queries: &[Graph],
    req: &SearchRequest,
    sample: impl Fn(usize) -> bool,
) -> Result<(usize, ShardedIndex), String> {
    let mut writes: Vec<&Rec> = recs.iter().copied().filter(|r| r.op.is_write()).collect();
    writes.sort_by_key(|r| r.sent);
    if writes.iter().any(|r| !r.ok) {
        return Err("a write failed, so the churn cannot be replayed".to_string());
    }
    let mut due: Vec<(usize, usize, &[Hit])> = Vec::new();
    for (i, r) in recs.iter().enumerate() {
        let (Op::Search(q), true) = (r.op, r.ok) else {
            continue;
        };
        let before = writes.partition_point(|w| w.done <= r.sent);
        let overlaps = writes.get(before).is_some_and(|w| w.sent < r.done);
        if sample(i) && !overlaps {
            due.push((before, q, &r.hits));
        }
    }
    due.sort_by_key(|d| d.0);
    let mut index = initial.clone();
    let mut ids: HashMap<usize, u64> = HashMap::new();
    let mut applied = 0;
    let mut apply = |index: &mut ShardedIndex, w: &Rec| -> Result<(), String> {
        let answer = w.body.as_ref().ok_or("write answer not kept")?;
        match w.op {
            Op::Insert(j) => {
                let id = index.insert(inserts[j].clone()).get() as u64;
                if answer.get("id").and_then(Json::as_u64) != Some(id) {
                    return Err(format!(
                        "insert {j} acked with another id than replay's {id}"
                    ));
                }
                ids.insert(j, id);
            }
            Op::Remove(j) => {
                let id = ids[&j];
                let removed = index
                    .remove(GraphId(id as u32))
                    .map_err(|e| e.to_string())?;
                if !removed || answer.get("removed").and_then(Json::as_bool) != Some(true) {
                    return Err(format!("remove of id {id} did not take effect"));
                }
            }
            _ => unreachable!("only writes are replayed"),
        }
        Ok(())
    };
    for &(before, q, hits) in &due {
        while applied < before {
            apply(&mut index, writes[applied])?;
            applied += 1;
        }
        served_matches(&index, &queries[q], req, hits)?;
    }
    for w in &writes[applied..] {
        apply(&mut index, w)?;
    }
    Ok((due.len(), index))
}

/// Reopens the durable directory and checks every acked insert is
/// there with its graph, every acked remove took effect, and the
/// reopened index answers like the `served` one did. Returns the
/// reopened row count.
pub fn reopen_matches(
    dir: &Path,
    acked: &Acked,
    served: &ShardedIndex,
    queries: &[Graph],
    req: &SearchRequest,
) -> Result<usize, String> {
    let (durable, report) = DurableHandle::open(dir, SYNC).map_err(|e| format!("reopen: {e}"))?;
    let snap = durable.serving().snapshot();
    let dead = |id: GraphId| -> Result<bool, String> {
        let (s, local) = snap.split_id(id);
        let shard = snap.shard(s).map_err(|e| e.to_string())?;
        Ok(shard.tombstones().is_dead(local))
    };
    let removed: HashMap<u64, Instant> = acked.removes.iter().copied().collect();
    for &(id, g) in &acked.inserts {
        let gid = GraphId(id as u32);
        let stored = snap
            .graph(gid)
            .map_err(|e| format!("acked insert {id} lost after reopen ({report}): {e}"))?;
        if stored != g {
            return Err(format!(
                "acked insert {id} holds another graph after reopen"
            ));
        }
        if dead(gid)? != removed.contains_key(&id) {
            return Err(format!(
                "id {id}: liveness after reopen disagrees with the acks"
            ));
        }
    }
    if snap.len() != served.len() {
        return Err(format!(
            "{} rows after reopen, {} served",
            snap.len(),
            served.len()
        ));
    }
    let expect_live = snap.len() - acked.removes.len();
    if snap.live_len() != expect_live {
        return Err(format!(
            "{} live rows after reopen, expected {expect_live}",
            snap.live_len()
        ));
    }
    same_answers(&snap, served, queries, req)?;
    Ok(snap.len())
}

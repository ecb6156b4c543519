//! Everything a run sends, made from the workload seed: the Zipf draw
//! over the mapped query pool, the distinct refine queries and the
//! churn plan. The database (seed 42, as `gdim serve --synthetic`
//! builds it) and the mapped pool are fixed, so set-up does the same
//! work on every seed.

use std::collections::HashSet;
use std::time::Duration;

use gdim_core::{Ranker, SearchRequest};
use gdim_datagen::{chem_db, connected_edge_subgraph, zipf_workload, ChemConfig, ZipfConfig};
use gdim_graph::dfscode::canonical_key;
use gdim_graph::Graph;
use gdim_server::wire::{graph_to_json, request_to_json};
use gdim_server::Json;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Database size, seed, shard count and dimensions of the shared index.
pub const DB_GRAPHS: usize = 100;
pub const DB_SEED: u64 = 42;
pub const SHARDS: usize = 4;
pub const DIMENSIONS: usize = 32;
/// Hits per answer, and the Mapped candidates a Refined answer verifies.
pub const K: usize = 10;
pub const REFINE_CANDIDATES: usize = 20;
/// Distinct graphs behind the Zipf draw of the mapped searches, and
/// the seed that makes them.
pub const POOL: usize = 200;
const POOL_SEED: u64 = 7;
/// Rows at which 4 shards × 256 rows switch searches to scatter-gather.
pub const SCATTER_ROWS: usize = 1024;

/// Derives an independent stream seed from the workload seed.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

pub fn database() -> Vec<Graph> {
    chem_db(DB_GRAPHS, &ChemConfig::default(), DB_SEED)
}

pub fn mapped_request() -> SearchRequest {
    SearchRequest::new(K).ranker(Ranker::Mapped)
}

/// The Mapped top-20: the candidates a Refined answer verifies.
pub fn mapped_candidates() -> SearchRequest {
    SearchRequest::new(REFINE_CANDIDATES).ranker(Ranker::Mapped)
}

pub fn refined_request() -> SearchRequest {
    SearchRequest::new(K).ranker(Ranker::Refined {
        candidates: REFINE_CANDIDATES,
    })
}

/// The `/search` body carrying `q` inline with `req`'s options.
pub fn search_body(q: &Graph, req: &SearchRequest) -> Json {
    let Json::Obj(mut fields) = request_to_json(req) else {
        unreachable!("request options serialize as an object")
    };
    fields.push((
        "query".to_string(),
        Json::obj([("graph", graph_to_json(q))]),
    ));
    Json::Obj(fields)
}

pub fn insert_body(g: &Graph) -> Json {
    Json::obj([("graph", graph_to_json(g))])
}

/// The fixed mapped query pool: half
/// `connected_edge_subgraph(db[i], 0.8)` variants, half fresh
/// molecules from another seed. It is the same on every run; the
/// workload seed only draws from it.
pub fn mapped_pool(db: &[Graph]) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(POOL_SEED);
    let mut pool: Vec<Graph> = (0..POOL / 2)
        .map(|_| {
            let i = rng.gen_range(0..db.len());
            connected_edge_subgraph(&db[i], 0.8, rng.gen())
        })
        .collect();
    pool.extend(chem_db(
        POOL - pool.len(),
        &ChemConfig::default(),
        POOL_SEED,
    ));
    pool
}

/// `len` pool indices drawn Zipf(1.0) by the workload seed. The ranks
/// are shuffled over the pool by one fixed permutation, so every seed
/// has the same hot set and the seed changes only the draw.
pub fn zipf_draw(len: usize, seed: u64) -> Vec<usize> {
    let mut rank_to_pool: Vec<usize> = (0..POOL).collect();
    rank_to_pool.shuffle(&mut StdRng::seed_from_u64(POOL_SEED));
    let cfg = ZipfConfig::default().with_exponent(1.0).with_shuffle(false);
    zipf_workload(POOL, len, &cfg, sub_seed(seed, 3))
        .into_iter()
        .map(|rank| rank_to_pool[rank as usize])
        .collect()
}

/// `n` pairwise non-isomorphic query graphs (distinct
/// [`canonical_key`]s), alternating subgraph variants of database
/// graphs and fresh molecules. Like the mapped pool they are fixed;
/// see [`permuted`] for what the seed changes.
pub fn unique_queries(db: &[Graph], n: usize) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(POOL_SEED);
    let fresh = chem_db(n, &ChemConfig::default(), POOL_SEED + 1);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut fresh_next = 0;
    while out.len() < n {
        let g = if out.len() % 2 == 0 || fresh_next == fresh.len() {
            let i = rng.gen_range(0..db.len());
            connected_edge_subgraph(&db[i], rng.gen_range(0.6..0.9), rng.gen())
        } else {
            fresh_next += 1;
            fresh[fresh_next - 1].clone()
        };
        if seen.insert(canonical_key(&g)) {
            out.push(g);
        }
    }
    out
}

/// `range` in the order the workload seed shuffles it into.
pub fn permuted(range: std::ops::Range<usize>, seed: u64) -> Vec<usize> {
    let mut items: Vec<usize> = range.collect();
    items.shuffle(&mut StdRng::seed_from_u64(sub_seed(seed, 4)));
    items
}

/// Share of `queries` that repeat an earlier one up to isomorphism.
pub fn repeat_share<'a>(queries: impl IntoIterator<Item = &'a Graph>) -> f64 {
    let mut seen = HashSet::new();
    let (mut total, mut repeats) = (0usize, 0usize);
    for q in queries {
        total += 1;
        if !seen.insert(canonical_key(q)) {
            repeats += 1;
        }
    }
    repeats as f64 / total.max(1) as f64
}

/// One request of a generator thread's plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `/search` with query `i` of the workload's query list.
    Search(usize),
    /// `/insert` of fresh molecule `i`.
    Insert(usize),
    /// `/remove` of the id the `j`-th insert of this plan was acked with.
    Remove(usize),
    Checkpoint,
}

impl Op {
    pub fn is_write(self) -> bool {
        matches!(self, Op::Insert(_) | Op::Remove(_))
    }
}

/// A plan entry: the op and, in an open loop, when it is due.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub op: Op,
    pub due: Duration,
}

/// The churn mix: shares of all requests, checkpoint cadence, and its
/// length. It runs by operation count: `CHURN_OPEN_OPS` at
/// `CHURN_RATE` per second, then `CHURN_CLOSED_OPS` back to back.
pub const INSERT_SHARE: f64 = 0.12;
pub const REMOVE_SHARE: f64 = 0.03;
pub const CHECKPOINT_EVERY: usize = 250;
pub const CHURN_RATE: f64 = 500.0;
pub const CHURN_OPEN_OPS: usize = 1500;
pub const CHURN_CLOSED_OPS: usize = 5000;
/// At most this many inserts, so the index stays below
/// [`SCATTER_ROWS`] and every search takes the direct path; a planned
/// insert past it becomes a search.
pub const MAX_INSERTS: usize = SCATTER_ROWS - DB_GRAPHS - 64;

/// The churn plan over two threads. Thread 0 carries every write, so
/// the ids a remove names come from earlier acked inserts of the same
/// thread and the plan is the same on every run of a seed. Searches
/// index the mapped pool by the Zipf draw. Returns the per-thread
/// plans (open and closed loop entries alike, by due time) and the
/// insert count.
pub fn churn_plan(seed: u64) -> ([Vec<Planned>; 2], usize) {
    let ops = CHURN_OPEN_OPS + CHURN_CLOSED_OPS;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 6));
    let draw = zipf_draw(ops, seed);
    let mut plans: [Vec<Planned>; 2] = [Vec::new(), Vec::new()];
    let (mut inserts, mut live_inserts, mut writes) = (0usize, Vec::new(), 0usize);
    for (i, &q) in draw.iter().enumerate() {
        let due = Duration::from_secs_f64(i as f64 / CHURN_RATE);
        let x: f64 = rng.gen();
        // Writes land on thread 0; a write share of 15% overall is 30%
        // of thread 0's requests.
        let writer = i % 2 == 0;
        let op = if writer && x < 2.0 * INSERT_SHARE && inserts < MAX_INSERTS {
            inserts += 1;
            live_inserts.push(inserts - 1);
            Op::Insert(inserts - 1)
        } else if writer
            && (2.0 * INSERT_SHARE..2.0 * (INSERT_SHARE + REMOVE_SHARE)).contains(&x)
            && !live_inserts.is_empty()
        {
            let j = rng.gen_range(0..live_inserts.len());
            Op::Remove(live_inserts.swap_remove(j))
        } else {
            Op::Search(q)
        };
        plans[i % 2].push(Planned { op, due });
        if op.is_write() {
            writes += 1;
            if writes % CHECKPOINT_EVERY == 0 {
                plans[0].push(Planned {
                    op: Op::Checkpoint,
                    due,
                });
            }
        }
    }
    (plans, inserts)
}

/// Fresh molecules for the churn inserts, disjoint from the database.
pub fn churn_inserts(n: usize, seed: u64) -> Vec<Graph> {
    chem_db(n, &ChemConfig::default(), sub_seed(seed, 7))
}

/// Open-loop plans over two threads: request `i` is due at `i / rate`
/// and runs on thread `i % 2`.
pub fn open_plans(queries: impl Iterator<Item = usize>, rate: f64) -> [Vec<Planned>; 2] {
    let mut plans: [Vec<Planned>; 2] = [Vec::new(), Vec::new()];
    for (i, q) in queries.enumerate() {
        plans[i % 2].push(Planned {
            op: Op::Search(q),
            due: Duration::from_secs_f64(i as f64 / rate),
        });
    }
    plans
}

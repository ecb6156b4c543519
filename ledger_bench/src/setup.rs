//! Set-up: build the shared index the way `gdim serve --synthetic`
//! does, optionally make it durable, and start the server.

use std::path::Path;
use std::time::{Duration, Instant};

use gdim_core::index::IndexStats;
use gdim_core::IndexOptions;
use gdim_server::{GdimServer, ServerConfig};
use gdim_shard::{DurableHandle, ServingHandle, ShardId, ShardedIndex, ShardedOptions, SyncPolicy};

use crate::inputs::{database, DIMENSIONS, SHARDS};

/// Server worker threads (the `gdim serve` default on two cores).
pub const WORKERS: usize = 2;
/// The fsync policy of the durable workload: `gdim serve --durable`'s
/// default, fsync before every ack.
pub const SYNC: SyncPolicy = SyncPolicy::Always;

/// What set-up took, and what the build reported.
pub struct Setup {
    /// Build, durable create and server start, end to end.
    pub total: Duration,
    /// `ShardedIndex::build` alone, and the phases it reports.
    pub build: Duration,
    pub stats: IndexStats,
    pub server_start: Duration,
}

/// Builds `chem_db(100)` into 4 shards × 32 dimensions with the
/// default (`Auto`) selection strategy and serves it, from
/// `durable_dir` under [`SYNC`] when given.
pub fn setup(durable_dir: Option<&Path>) -> (GdimServer, Setup) {
    let t0 = Instant::now();
    let db = database();
    let tb = Instant::now();
    let index = ShardedIndex::build(
        db,
        ShardedOptions::new(SHARDS).with_index(IndexOptions::default().with_dimensions(DIMENSIONS)),
    );
    let build = tb.elapsed();
    let stats = index.shard(ShardId(0)).expect("shard 0").stats().clone();
    let (server, server_start) = match durable_dir {
        Some(dir) => {
            let durable = DurableHandle::create(dir, index, SYNC).expect("create durable dir");
            let t = Instant::now();
            let server =
                GdimServer::start_durable(durable, config()).expect("bind loopback server");
            (server, t.elapsed())
        }
        None => {
            let t = Instant::now();
            let server = GdimServer::start(ServingHandle::new(index), config())
                .expect("bind loopback server");
            (server, t.elapsed())
        }
    };
    let setup = Setup {
        total: t0.elapsed(),
        build,
        stats,
        server_start,
    };
    (server, setup)
}

/// Serves `index` from a fresh durable directory `dir` under [`SYNC`]:
/// the start of every churn episode after the first, whose server
/// [`setup`] starts.
pub fn serve_durable(dir: &Path, index: ShardedIndex) -> GdimServer {
    let durable = DurableHandle::create(dir, index, SYNC).expect("create durable dir");
    GdimServer::start_durable(durable, config()).expect("bind loopback server")
}

fn config() -> ServerConfig {
    ServerConfig::new().with_workers(WORKERS)
}

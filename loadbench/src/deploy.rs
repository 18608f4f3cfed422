//! The workloads, and setting up the serving stack each one drives.
//!
//! Set-up is everything between "here is a graph" and "the first timed
//! batch can go out": threshold encoding, store build, the cluster split
//! when there is one, binding the servers (and router), connecting the
//! load connections with their HELLO, and a warm-up that fills the
//! decode caches and dials every router→backend leg.

use std::sync::Arc;
use std::time::Instant;

use pl_cluster::{route, split_all, ClusterMap, Partitioner, RouterConfig, RouterHandle};
use pl_graph::Graph;
use pl_labeling::threshold::encode_with_stats_threads;
use pl_obs::MetricsRegistry;
use pl_serve::{
    Client, LabelStore, SchemeTag, ServeOptions, ServerHandle, StoreConfig, TaggedLabeling,
};

use crate::load::{self, ConnRun, Endpoints, Pool};

/// Vertices in the input graph.
pub const N: usize = 200_000;
/// Power-law exponent of the Chung–Lu input, and of the scheme's τ.
pub const ALPHA: f64 = 2.5;
/// Average degree of the Chung–Lu input.
pub const AVG_DEGREE: f64 = 5.0;
/// Load connections, one generator thread each.
pub const CONNECTIONS: usize = 2;
/// Cluster shape of `cluster-zipf-b32`, as in experiment E21.
const BACKENDS: usize = 3;
const REPLICAS: usize = 2;
/// Warm-up batches per connection.
const WARMUP_BATCHES: usize = 256;

/// One traffic mix.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub endpoints: Endpoints,
    /// Queries per BATCH frame.
    pub batch: usize,
    /// Open-loop rate, queries per second over all connections.
    pub rate_qps: f64,
    /// Served through the router over partial backends, not by one
    /// server.
    pub cluster: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve-zipf-b64",
        endpoints: Endpoints::Zipf(1.2),
        batch: 64,
        rate_qps: 400_000.0,
        cluster: false,
    },
    Workload {
        name: "serve-uniform-b1",
        endpoints: Endpoints::Uniform,
        batch: 1,
        rate_qps: 20_000.0,
        cluster: false,
    },
    Workload {
        name: "cluster-zipf-b32",
        endpoints: Endpoints::Zipf(1.2),
        batch: 32,
        rate_qps: 40_000.0,
        cluster: true,
    },
];

/// Set-up stage times of one deployment, seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub encode: f64,
    pub split: f64,
    pub store_build: f64,
    pub bind: f64,
    pub warmup: f64,
}

impl SetupTimes {
    #[must_use]
    pub fn total(&self) -> f64 {
        self.encode + self.split + self.store_build + self.bind + self.warmup
    }
}

/// The running servers.
pub enum Servers {
    Single {
        store: Arc<LabelStore>,
        server: ServerHandle,
    },
    Cluster {
        /// The full labeling the backends were split from.
        full: TaggedLabeling,
        stores: Vec<Arc<LabelStore>>,
        backends: Vec<ServerHandle>,
        router: RouterHandle,
    },
}

/// A set-up serving stack with its warmed load connections.
pub struct Deployment {
    pub servers: Servers,
    pub clients: Vec<Client>,
    /// The warm-up's answers, per connection, still to be checked.
    pub warmup: Vec<ConnRun>,
    pub label_bits_avg: f64,
    pub label_bits_max: usize,
}

impl Deployment {
    /// Where the load connections point: the server, or the router.
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        match &self.servers {
            Servers::Single { server, .. } => server.addr(),
            Servers::Cluster { router, .. } => router.addr(),
        }
    }

    /// Decode-cache `(hits, misses)` summed over every serving store.
    #[must_use]
    pub fn cache_counts(&self) -> (u64, u64) {
        let stores: Vec<&Arc<LabelStore>> = match &self.servers {
            Servers::Single { store, .. } => vec![store],
            Servers::Cluster { stores, .. } => stores.iter().collect(),
        };
        stores.iter().fold((0, 0), |(h, m), s| {
            (h + s.cache_hits(), m + s.cache_misses())
        })
    }

    /// Closes the load connections and stops every server and router,
    /// waiting for their threads.
    pub fn shut_down(self) {
        for c in self.clients {
            let _ = c.goodbye();
        }
        match self.servers {
            Servers::Single { server, .. } => {
                server.shutdown();
            }
            Servers::Cluster {
                backends, router, ..
            } => {
                router.shutdown();
                for b in backends {
                    b.shutdown();
                }
            }
        }
    }
}

/// A store built the way `plab serve` builds one: default sharding and
/// cache, counters in the registry the server then reports through.
fn store_and_options(tagged: TaggedLabeling, partial: bool) -> (Arc<LabelStore>, ServeOptions) {
    let registry = Arc::new(MetricsRegistry::new());
    let store =
        LabelStore::with_registry(tagged, StoreConfig::default(), &registry).with_partial(partial);
    let options = ServeOptions {
        registry: Some(registry),
        ..ServeOptions::default()
    };
    (Arc::new(store), options)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Builds and warms one serving stack for `w` over `g`, timing each
/// stage. `pools` holds one query pool per load connection.
pub fn set_up(
    w: &Workload,
    g: &Graph,
    tau: usize,
    threads: usize,
    seed: u64,
    pools: &[Pool],
) -> Result<(Deployment, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let (labeling, _) = encode_with_stats_threads(g, tau, threads);
    times.encode = secs(t);
    let tagged = TaggedLabeling {
        tag: SchemeTag::Threshold,
        labeling,
    };
    let label_bits_avg = tagged.labeling.avg_bits();
    let label_bits_max = tagged.labeling.max_bits();

    let servers = if w.cluster {
        let t = Instant::now();
        let part = Partitioner::new(seed, BACKENDS, REPLICAS);
        let (parts, _) = split_all(&tagged, &part).map_err(|e| format!("split: {e:?}"))?;
        times.split = secs(t);
        let t = Instant::now();
        let built: Vec<_> = parts
            .into_iter()
            .map(|sub| store_and_options(sub, true))
            .collect();
        times.store_build = secs(t);
        let t = Instant::now();
        let mut stores = Vec::new();
        let mut backends = Vec::new();
        for (store, options) in built {
            backends.push(
                pl_serve::serve_with(Arc::clone(&store), "127.0.0.1:0", options)
                    .map_err(|e| format!("binding a backend: {e}"))?,
            );
            stores.push(store);
        }
        let map = ClusterMap {
            epoch: 1,
            seed,
            replicas: REPLICAS as u32,
            n: tagged.labeling.len() as u32,
            tag: tagged.tag as u8,
            backends: backends.iter().map(|b| b.addr().to_string()).collect(),
        };
        let router = route(map, "127.0.0.1:0", RouterConfig::default())
            .map_err(|e| format!("binding the router: {e}"))?;
        times.bind = secs(t);
        Servers::Cluster {
            full: tagged,
            stores,
            backends,
            router,
        }
    } else {
        let t = Instant::now();
        let (store, options) = store_and_options(tagged, false);
        times.store_build = secs(t);
        let t = Instant::now();
        let server = pl_serve::serve_with(Arc::clone(&store), "127.0.0.1:0", options)
            .map_err(|e| format!("binding the server: {e}"))?;
        times.bind = secs(t);
        Servers::Single { store, server }
    };

    let mut dep = Deployment {
        servers,
        clients: Vec::new(),
        warmup: Vec::new(),
        label_bits_avg,
        label_bits_max,
    };
    let t = Instant::now();
    for pool in pools.iter().take(CONNECTIONS) {
        let mut client = Client::connect(dep.addr()).map_err(|e| format!("connect: {e}"))?;
        let run = load::warm_up(&mut client, pool, w.batch, WARMUP_BATCHES)
            .map_err(|e| format!("warm-up: {e}"))?;
        dep.clients.push(client);
        dep.warmup.push(run);
    }
    times.warmup = secs(t);
    Ok((dep, times))
}

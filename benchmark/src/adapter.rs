//! The one file that names repo APIs.
//!
//! Every other file of the benchmark talks to the system through the
//! items below, so a refactor of `crates/` has exactly one place to
//! keep compiling. The surface is deliberately the part ROADMAP items
//! 2/3 say survives (see `README.md`, "Pinned adapter surface"): a
//! later PR that collapses the scan front-ends or the codec must keep
//! these calls working as thin constructors, and may not edit this
//! file in the same change that claims a gain.

use fbp_feedback::{CategoryOracle, FeedbackLoop, FeedbackStepper, StepOutcome};
use fbp_imagegen::{DatasetConfig, SyntheticDataset};
use fbp_server::protocol::{Request, Response};
use fbp_server::{route, serve, Client, RouterConfig, RouterHandle, ServerConfig, ServerHandle};
use fbp_vecdb::{
    CollectionBuilder, Distance, KnnEngine, LinearScan, MultiQueryScan, PartitionConfig,
    PartitionedCollection, Precision, ResultList, ScanMode, WeightedEuclidean,
};
use feedbackbypass::{BypassConfig, FeedbackBypass, FeedbackConfig, QuerySpec, SharedBypass};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;

pub use fbp_server::{FeedbackReply, KnnReply, StatsSnapshot, TraceReport};
pub use fbp_vecdb::{CategoryId, Collection, Neighbor};

/// Results per search, everywhere (`FeedbackConfig::default().k`).
pub const K: usize = 50;

/// Errors cross the adapter as text: the benchmark only counts and
/// prints them.
pub type Res<T> = Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// ---------------------------------------------------------------- data

/// The labelled unit-cube generator of the `serving` bench: cluster =
/// category = the relevance oracle, spread ±0.08 around fixed lattice
/// centres, f32 mirror built.
pub fn clustered(n: usize, dim: usize, clusters: usize, seed: u64) -> Collection {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CollectionBuilder::new().with_f32_mirror();
    let cats: Vec<CategoryId> = (0..clusters)
        .map(|c| b.category(&format!("cluster-{c}")))
        .collect();
    let mut v = vec![0.0f64; dim];
    for _ in 0..n {
        let center = rng.gen_range(0..clusters);
        for (d, slot) in v.iter_mut().enumerate() {
            let base = (((center * 31 + d * 7) % 97) as f64) / 97.0;
            *slot = (base + rng.gen_range(-0.08..0.08)).clamp(0.0, 1.0);
        }
        b.push(&v, cats[center]).expect("uniform dims");
    }
    b.build()
}

/// The paper's §5 data: `fbp-imagegen` colour histograms. Returns the
/// mirrored collection and the labelled rows (the query pool).
pub fn histograms(scale: f64, noise_images: usize, seed: u64) -> (Collection, Vec<usize>) {
    let ds = SyntheticDataset::generate(DatasetConfig {
        scale,
        noise_images,
        seed,
        ..DatasetConfig::paper()
    });
    let mut coll = ds.collection;
    coll.ensure_f32_mirror();
    (coll, ds.labelled)
}

/// The collection's rows as the f32 kernels read them.
pub fn mirror_block(coll: &Collection) -> &[f32] {
    coll.block_f32(0, coll.len()).expect("mirrored collection")
}

// -------------------------------------------------------------- module

/// Search parameters of one query: a point and per-component weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Search point.
    pub point: Vec<f64>,
    /// Weighted-Euclidean weights.
    pub weights: Vec<f64>,
}

impl Params {
    /// The paper's default start: the query itself, uniform metric.
    pub fn default_for(q: &[f64]) -> Self {
        Params {
            point: q.to_vec(),
            weights: vec![1.0; q.len()],
        }
    }

    /// As a query spec; degenerate weights fall back to uniform, the
    /// rule every serving path applies.
    fn spec(&self) -> QuerySpec {
        let builder = QuerySpec::builder(self.point.clone());
        let builder = if self.weights.iter().all(|w| w.is_finite() && *w > 0.0) {
            builder.weights(self.weights.clone())
        } else {
            builder
        };
        builder.build().expect("finite search point")
    }
}

/// Shape of a learned module.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModuleShape {
    /// Stored query points.
    pub stored_points: u64,
    /// Simplex-tree depth.
    pub tree_depth: usize,
}

/// The shared learned module.
#[derive(Clone)]
pub struct Module(SharedBypass);

impl Module {
    /// Empty module over `[0,1]^dim` (the wire workloads).
    pub fn unit_cube(dim: usize) -> Self {
        Module(SharedBypass::new(
            FeedbackBypass::for_unit_cube(dim, BypassConfig::default()).expect("dim > 0"),
        ))
    }

    /// Empty module over normalized histograms (`learn_inproc`).
    pub fn for_histograms(dim: usize) -> Self {
        Module(SharedBypass::new(
            FeedbackBypass::for_histograms(dim, BypassConfig::default()).expect("dim >= 2"),
        ))
    }

    /// A module restored from a `to_bytes` image.
    pub fn from_image(image: &[u8]) -> Res<Self> {
        Ok(Module(SharedBypass::new(
            FeedbackBypass::from_bytes(image).map_err(text)?,
        )))
    }

    /// Predictions for a batch of queries under one read lock.
    pub fn predict_batch(&self, queries: &[Vec<f64>]) -> Res<Vec<Params>> {
        let preds = self.0.predict_batch(queries).map_err(text)?;
        Ok(preds
            .into_iter()
            .map(|p| Params {
                point: p.point,
                weights: p.weights,
            })
            .collect())
    }

    /// One prediction.
    pub fn predict(&self, q: &[f64]) -> Res<Params> {
        let p = self.0.with_read(|m| m.predict(q)).map_err(text)?;
        Ok(Params {
            point: p.point,
            weights: p.weights,
        })
    }

    /// Store converged parameters for `q`.
    pub fn insert(&self, q: &[f64], params: &Params) -> Res<()> {
        self.0
            .insert(q, &params.point, &params.weights)
            .map(|_| ())
            .map_err(text)
    }

    /// One coalesced pass serving every request.
    pub fn knn_batch(
        &self,
        scan: &ServingScan<'_>,
        requests: &[Params],
    ) -> Res<Vec<Vec<Neighbor>>> {
        let specs: Vec<QuerySpec> = requests.iter().map(Params::spec).collect();
        self.0.knn_batch(&scan.0, &specs, K).map_err(text)
    }

    /// The serialized module.
    pub fn to_image(&self) -> Vec<u8> {
        self.0.with_read(|m| m.to_bytes())
    }

    /// Stored points and tree depth.
    pub fn shape(&self) -> ModuleShape {
        let (stored_points, _nodes, tree_depth) = self.0.stats();
        ModuleShape {
            stored_points,
            tree_depth,
        }
    }
}

/// The multi-query scan `knn_batch` runs on: the serving layer's
/// precision (f32 stream, exact rescore) on the calling thread — the
/// mode a server's dispatcher uses (`ScanMode::Batched`), so that a
/// pass's cost does not depend on how many cores happen to be free.
pub struct ServingScan<'a>(MultiQueryScan<'a>);

impl<'a> ServingScan<'a> {
    /// Over `coll`.
    pub fn new(coll: &'a Collection) -> Self {
        ServingScan(
            MultiQueryScan::with_mode(coll, ScanMode::Batched)
                .with_precision(Precision::F32Rescore),
        )
    }
}

// ---------------------------------------------------------------- scan

fn metric(dim: usize, weights: Option<&[f64]>) -> WeightedEuclidean {
    match weights {
        Some(w) => WeightedEuclidean::new(w.to_vec()).expect("positive weights"),
        None => WeightedEuclidean::uniform(dim),
    }
}

/// The reference answer every path must equal bit for bit: the flat
/// f64 scan.
pub fn reference_knn(
    coll: &Collection,
    q: &[f64],
    weights: Option<&[f64]>,
    k: usize,
) -> Vec<Neighbor> {
    LinearScan::with_mode(coll, ScanMode::Batched).knn(q, k, &metric(coll.dim(), weights))
}

/// One single-query scan at serving precision (the `q1_us` probe).
pub fn serving_knn(coll: &Collection, q: &[f64], k: usize) -> Vec<Neighbor> {
    LinearScan::with_mode(coll, ScanMode::Batched)
        .with_precision(Precision::F32Rescore)
        .knn(q, k, &metric(coll.dim(), None))
}

/// Uniform-metric f64 keys of every row against `q`.
pub fn kernel_f64(coll: &Collection, q: &[f64], out: &mut [f64]) {
    metric(coll.dim(), None).eval_key_batch(
        q,
        coll.block(0, coll.len()),
        coll.dim(),
        f64::INFINITY,
        out,
    );
}

/// Uniform-metric f32 keys of every mirrored row against `q`.
pub fn kernel_f32(coll: &Collection, q: &[f32], out: &mut [f32]) {
    metric(coll.dim(), None).eval_key_batch_f32(
        q,
        mirror_block(coll),
        coll.dim(),
        f32::INFINITY,
        out,
    );
}

/// Build the default partition layout (what `wire_pruned_big`'s server
/// does at start-up); returns the partition count.
pub fn build_partitions(coll: &Collection) -> usize {
    PartitionedCollection::build(coll, &PartitionConfig::default()).partition_count()
}

/// Partitions per layout under the default configuration.
pub fn default_partition_count() -> usize {
    PartitionConfig::default().partitions
}

/// The shape every answer must have: `k` entries (or every row),
/// strictly ascending `(dist, index)`, every id a row of the collection.
pub fn well_formed(neighbors: &[Neighbor], rows: usize) -> bool {
    neighbors.len() == K.min(rows)
        && neighbors.iter().all(|x| (x.index as usize) < rows)
        && neighbors
            .windows(2)
            .all(|w| (w[0].dist, w[0].index) < (w[1].dist, w[1].index))
}

// ------------------------------------------------------------ feedback

/// One feedback transition under the category judge.
pub struct Stepper<'a> {
    coll: &'a Collection,
    inner: FeedbackStepper<'a>,
}

impl<'a> Stepper<'a> {
    /// Default loop configuration (k = 50, optimal movement,
    /// re-weighting on, 20-cycle cap).
    pub fn new(coll: &'a Collection) -> Self {
        Stepper {
            coll,
            inner: FeedbackStepper::new(coll, FeedbackConfig::default()),
        }
    }

    /// The cycle cap.
    pub fn max_cycles(&self) -> usize {
        self.inner.config().max_cycles
    }

    /// Judge `results` for a query of `category`; `None` = converged.
    pub fn step(
        &self,
        params: &Params,
        results: &[Neighbor],
        category: CategoryId,
    ) -> Res<Option<Params>> {
        let oracle = CategoryOracle::new(self.coll, category);
        let results = ResultList::new(results.to_vec());
        match self
            .inner
            .step(&params.point, &params.weights, &results, &oracle)
            .map_err(text)?
        {
            StepOutcome::Converged => Ok(None),
            StepOutcome::Continue { point, weights } => Ok(Some(Params { point, weights })),
        }
    }
}

/// Feedback cycles a whole loop needs for a query of `category` from
/// `start` (`None` = the default parameters), nothing inserted.
pub fn loop_cycles(
    coll: &Collection,
    q: &[f64],
    category: CategoryId,
    start: Option<&Params>,
) -> Res<usize> {
    let scan = LinearScan::with_mode(coll, ScanMode::Batched).with_precision(Precision::F32Rescore);
    let driver = FeedbackLoop::new(&scan, coll, FeedbackConfig::default());
    let oracle = CategoryOracle::new(coll, category);
    let run = match start {
        None => driver.run(q, &oracle),
        Some(p) => driver.run_from(&p.point, &p.weights, &oracle),
    };
    Ok(run.map_err(text)?.cycles)
}

// --------------------------------------------------------- query/codec

/// Build and lower a plain-anchor spec (the `lower_ns` probe).
pub fn lower_plain(q: &[f64]) {
    let spec = QuerySpec::builder(q.to_vec())
        .build()
        .expect("finite query");
    black_box(spec.lower());
}

/// Encode + decode one `Knn` request; returns the payload length.
pub fn knn_request_roundtrip(q: &[f64]) -> usize {
    let bytes = Request::Knn {
        session: 1,
        k: K as u32,
        query: q.to_vec(),
    }
    .encode();
    black_box(Request::decode(&bytes).expect("own encoding"));
    bytes.len()
}

/// Encode + decode one untraced `KnnResult`; returns the payload
/// length.
pub fn knn_response_roundtrip(neighbors: &[Neighbor]) -> usize {
    let bytes = Response::KnnResult {
        flags: 0,
        cycles: 1,
        missing_shards: Vec::new(),
        trace: None,
        neighbors: neighbors.to_vec(),
    }
    .encode();
    black_box(Response::decode(&bytes).expect("own encoding"));
    bytes.len()
}

/// Payload bytes of one router → shard hop (`ShardKnn` + `ShardPartial`
/// with `k` entries).
pub fn shard_hop_bytes(dim: usize, k: usize) -> usize {
    let req = Request::ShardKnn {
        k: k as u32,
        seed: f64::INFINITY,
        point: vec![0.5; dim],
        weights: vec![1.0; dim],
    }
    .encode();
    let resp = Response::ShardPartial {
        finished: false,
        entries: vec![(0.0, 0); k],
    }
    .encode();
    req.len() + resp.len()
}

// ------------------------------------------------------------ topology

/// Which serving stack a wire workload runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One flat `serve` (`shards: 1`, no partitions).
    Flat,
    /// The same with `partitions: Some(PartitionConfig::default())`.
    Pruned,
    /// `route` over two in-process shard servers on row halves.
    Router,
}

/// A running stack on loopback; dropping it joins every thread.
pub struct Stack {
    router: Option<RouterHandle>,
    servers: Vec<ServerHandle>,
    slices: Vec<Arc<Collection>>,
    module: Module,
}

impl Stack {
    /// Start `topology` over `coll` with an empty unit-cube module.
    pub fn start(topology: Topology, coll: &Arc<Collection>) -> Res<Stack> {
        let dim = coll.dim();
        // The session tier's module: the benchmark keeps a handle, so
        // that it can read what the sessions taught it.
        let module = Module::unit_cube(dim);
        match topology {
            Topology::Flat | Topology::Pruned => {
                let cfg = ServerConfig {
                    shards: 1,
                    partitions: (topology == Topology::Pruned).then(PartitionConfig::default),
                    ..Default::default()
                };
                let server =
                    serve("127.0.0.1:0", Arc::clone(coll), module.0.clone(), cfg).map_err(text)?;
                Ok(Stack {
                    router: None,
                    servers: vec![server],
                    slices: vec![Arc::clone(coll)],
                    module,
                })
            }
            Topology::Router => {
                let n = coll.len();
                let mut servers = Vec::new();
                let mut slices = Vec::new();
                for (start, end) in [(0, n / 2), (n / 2, n)] {
                    let slice = Arc::new(coll.slice_rows(start, end));
                    let cfg = ServerConfig {
                        row_offset: start,
                        ..Default::default()
                    };
                    let shard_module = Module::unit_cube(dim).0;
                    servers.push(
                        serve("127.0.0.1:0", Arc::clone(&slice), shard_module, cfg)
                            .map_err(text)?,
                    );
                    slices.push(slice);
                }
                let addrs: Vec<SocketAddr> = servers.iter().map(ServerHandle::local_addr).collect();
                let router = route(
                    "127.0.0.1:0",
                    &addrs,
                    Arc::clone(coll),
                    module.0.clone(),
                    RouterConfig::default(),
                )
                .map_err(text)?;
                Ok(Stack {
                    router: Some(router),
                    servers,
                    slices,
                    module,
                })
            }
        }
    }

    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        match &self.router {
            Some(r) => r.local_addr(),
            None => self.servers[0].local_addr(),
        }
    }

    /// Address of shard server `i`.
    pub fn shard_addr(&self, i: usize) -> SocketAddr {
        self.servers[i].local_addr()
    }

    /// The rows one scan pass covers (the whole collection, or one
    /// router shard).
    pub fn scan_unit(&self) -> &Arc<Collection> {
        &self.slices[0]
    }

    /// The module the session tier predicts from and inserts into.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Counters of the tier clients talk to.
    pub fn front_stats(&self) -> StatsSnapshot {
        match &self.router {
            Some(r) => r.stats(),
            None => self.servers[0].stats(),
        }
    }

    /// Counters of every scanning server (one, or the router's shards).
    pub fn shard_stats(&self) -> Vec<StatsSnapshot> {
        self.servers.iter().map(ServerHandle::stats).collect()
    }

    /// Stop accepting, drain, join every thread.
    pub fn shutdown(self) {
        if let Some(r) = self.router {
            r.shutdown();
        }
        for s in self.servers {
            s.shutdown();
        }
    }
}

/// One client connection with one open session.
pub struct WireClient {
    client: Client,
    session: u64,
}

impl WireClient {
    /// Connect and open a session; `hello` negotiates protocol ≥ v3,
    /// which traced searches need.
    pub fn connect(addr: SocketAddr, hello: bool) -> Res<WireClient> {
        let mut client = Client::connect(addr).map_err(text)?;
        if hello {
            let version = client.hello().map_err(text)?;
            if version < 3 {
                return Err(format!(
                    "tracing needs protocol v3, server speaks v{version}"
                ));
            }
        }
        let (session, _dim) = client.open_session().map_err(text)?;
        Ok(WireClient { client, session })
    }

    /// One search round for `q` under the session's current
    /// parameters; `traced` asks for the stage-timing trailer.
    pub fn knn(&mut self, q: &[f64], traced: bool) -> Res<KnnReply> {
        if traced {
            let spec = QuerySpec::builder(q.to_vec()).build().map_err(text)?;
            self.client
                .knn_spec_traced(self.session, K as u32, &spec)
                .map_err(text)
        } else {
            self.client.knn(self.session, K as u32, q).map_err(text)
        }
    }

    /// Judge the last round.
    pub fn feedback(&mut self, relevant: &[u32]) -> Res<FeedbackReply> {
        self.client.feedback(self.session, relevant).map_err(text)
    }

    /// Install a serialized module on the connected server.
    pub fn restore_module(&mut self, image: &[u8]) -> Res<()> {
        self.client.restore_module(image).map_err(text)
    }

    /// Close the session.
    pub fn close(mut self) -> Res<()> {
        self.client.close_session(self.session).map_err(text)
    }
}

//! Seeded input generation, done batch by batch so a long run never holds
//! its whole stream in memory, plus the benchmark's own record of every
//! graph it builds (the oracle the program's answers are checked against).
//!
//! The traffic shapes follow the repository's generators: tenant traffic is
//! the bursty `TenantStream` mix (Zipf tenant popularity, per-tenant
//! bursts around a hotspot, flap pairs that link and cut one edge inside a
//! batch, repeated queries), and the single-update stream is the
//! `StreamKind::Mixed` insert/delete mix. Base graphs come from the graph
//! layer's own `GraphSpec::RandomSparse`.

use pdmsf_graph::{BatchOp, EdgeId, GraphSpec, TenantId, TenantOp, VertexId, Weight};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// One graph as the benchmark itself tracks it: every edge ever inserted,
/// indexed by its sequential id, and whether it is still live.
pub struct OracleGraph {
    n: usize,
    edges: Vec<(u32, u32, i64)>,
    alive: Vec<bool>,
}

impl OracleGraph {
    fn new(n: usize) -> OracleGraph {
        OracleGraph {
            n,
            edges: Vec::new(),
            alive: Vec::new(),
        }
    }

    fn link(&mut self, u: VertexId, v: VertexId, w: Weight) -> u32 {
        self.edges.push((u.0, v.0, w.raw()));
        self.alive.push(true);
        (self.edges.len() - 1) as u32
    }

    fn cut(&mut self, id: u32) {
        debug_assert!(self.alive[id as usize], "generator cut a dead edge");
        self.alive[id as usize] = false;
    }

    /// Edge ids allocated so far (live or not).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    fn live_edges(&self) -> impl Iterator<Item = (u32, u32, i64)> + '_ {
        self.edges
            .iter()
            .zip(&self.alive)
            .filter(|(_, &a)| a)
            .map(|(&e, _)| e)
    }

    /// Component labels of the live graph.
    pub fn components(&self) -> UnionFind {
        let mut uf = UnionFind::new(self.n);
        for (u, v, _) in self.live_edges() {
            uf.union(u as usize, v as usize);
        }
        uf
    }

    /// Weight of the minimum spanning forest of the live graph (Kruskal;
    /// the forest weight is unique however ties are broken).
    pub fn msf_weight(&self) -> i128 {
        let mut order: Vec<(i64, u32, u32)> =
            self.live_edges().map(|(u, v, w)| (w, u, v)).collect();
        order.sort_unstable();
        let mut uf = UnionFind::new(self.n);
        order
            .into_iter()
            .filter(|&(_, u, v)| uf.union(u as usize, v as usize))
            .map(|(w, _, _)| i128::from(w))
            .sum()
    }
}

/// Union-find with path halving and union by size.
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let grand = self.parent[self.parent[x] as usize];
            self.parent[x] = grand;
            x = grand as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut a, mut b) = (self.find(a), self.find(b));
        if a == b {
            return false;
        }
        if self.size[a] < self.size[b] {
            std::mem::swap(&mut a, &mut b);
        }
        self.parent[b] = a as u32;
        self.size[a] += self.size[b];
        true
    }
}

fn random_weight(rng: &mut ChaCha8Rng) -> Weight {
    Weight::new(rng.gen_range(1..=1_000_000))
}

fn random_pair(rng: &mut ChaCha8Rng, n: usize) -> (VertexId, VertexId) {
    let u = rng.gen_range(0..n);
    let mut v = rng.gen_range(0..n - 1);
    if v >= u {
        v += 1;
    }
    (VertexId::from(u), VertexId::from(v))
}

/// A base graph's edges with their weights.
pub type EdgeList = Vec<(VertexId, VertexId, Weight)>;

/// The base graph of `n` vertices and `m` random edges for `seed`, from
/// the graph layer's generator.
pub fn base_edges(n: usize, m: usize, seed: u64) -> EdgeList {
    GraphSpec::RandomSparse { n, m, seed }.edges()
}

/// The shape of tenant traffic.
#[derive(Clone, Copy, Debug)]
pub struct TenantMix {
    pub tenants: usize,
    pub tenant_vertices: usize,
    pub tenant_edges: usize,
    pub batch_size: usize,
    pub burst: usize,
    pub zipf_permille: u32,
    pub query_permille: u32,
    pub flap_permille: u32,
}

struct TenantGen {
    rng: ChaCha8Rng,
    /// Live edges a later batch may cut (flap links are cut in their own
    /// batch and never listed here).
    cuttable: Vec<u32>,
    graph: OracleGraph,
}

/// Multi-tenant traffic generated one service batch at a time.
pub struct TenantTraffic {
    mix: TenantMix,
    pick: ChaCha8Rng,
    /// Cumulative Zipf popularity weights, one per tenant.
    cumulative: Vec<u64>,
    tenants: Vec<TenantGen>,
}

impl TenantTraffic {
    /// Per-tenant base graphs (tenant-local ids `0..tenant_edges`) and the
    /// traffic that follows them.
    pub fn new(mix: TenantMix, seed: u64) -> (TenantTraffic, Vec<EdgeList>) {
        let alpha = f64::from(mix.zipf_permille) / 1000.0;
        let mut total = 0u64;
        let cumulative = (0..mix.tenants)
            .map(|t| {
                total += ((1.0 / (t as f64 + 1.0).powf(alpha)) * 1_000_000.0).max(1.0) as u64;
                total
            })
            .collect();
        let mut bases = Vec::with_capacity(mix.tenants);
        let tenants = (0..mix.tenants as u64)
            .map(|t| {
                let base = base_edges(
                    mix.tenant_vertices,
                    mix.tenant_edges,
                    seed ^ (0x9E37_79B9 * (t + 1)),
                );
                let mut graph = OracleGraph::new(mix.tenant_vertices);
                for &(u, v, w) in &base {
                    graph.link(u, v, w);
                }
                bases.push(base);
                TenantGen {
                    rng: ChaCha8Rng::seed_from_u64(seed ^ (0xC2B2_AE35 * (t + 1))),
                    cuttable: (0..mix.tenant_edges as u32).collect(),
                    graph,
                }
            })
            .collect();
        let traffic = TenantTraffic {
            mix,
            pick: ChaCha8Rng::seed_from_u64(seed ^ 0x7E4A_4711_5EED_00D1),
            cumulative,
            tenants,
        };
        (traffic, bases)
    }

    /// The oracle graph of tenant `t` as of the last generated batch.
    pub fn graph(&self, t: TenantId) -> &OracleGraph {
        &self.tenants[t.index()].graph
    }

    /// Generate the next service batch into `out` (cleared first).
    pub fn next_batch(&mut self, out: &mut Vec<TenantOp>) {
        out.clear();
        let bursts = (self.mix.batch_size / self.mix.burst).max(1);
        let total = *self.cumulative.last().expect("at least one tenant");
        for _ in 0..bursts {
            let draw = self.pick.gen_range(0..total);
            let t = self.cumulative.partition_point(|&c| c <= draw);
            let mix = self.mix;
            let gen = &mut self.tenants[t];
            let start = out.len();
            gen.burst(&mix, out);
            for op in &mut out[start..] {
                op.tenant = TenantId(t as u32);
            }
        }
    }
}

impl TenantGen {
    /// One burst of `mix.burst` ops around a fresh hotspot of the tenant's
    /// vertex space (the `BatchKind::Bursty` shape).
    fn burst(&mut self, mix: &TenantMix, out: &mut Vec<TenantOp>) {
        let n = mix.tenant_vertices;
        let rng = &mut self.rng;
        let lo = rng.gen_range(0..n);
        let span = (n / 16).clamp(8.min(n), n);
        let mut pending_flaps: Vec<u32> = Vec::new();
        let mut last_query: Option<BatchOp> = None;
        let mut emitted = 0;
        let mut push = |op: BatchOp, emitted: &mut usize| {
            out.push(TenantOp {
                tenant: TenantId(0),
                op,
            });
            *emitted += 1;
        };
        let region_pair = |rng: &mut ChaCha8Rng| loop {
            let u = VertexId::from((lo + rng.gen_range(0..span)) % n);
            let v = VertexId::from((lo + rng.gen_range(0..span)) % n);
            if u != v {
                return (u, v);
            }
        };
        while emitted < mix.burst {
            let remaining = mix.burst - emitted;
            if pending_flaps.len() >= remaining
                || (!pending_flaps.is_empty() && rng.gen_range(0u32..1000) < 350)
            {
                let id = pending_flaps.remove(0);
                self.graph.cut(id);
                push(BatchOp::Cut { id: EdgeId(id) }, &mut emitted);
                continue;
            }
            if rng.gen_range(0u32..1000) < mix.query_permille {
                let op = match last_query {
                    Some(prev) if rng.gen_range(0u32..4) == 0 => prev,
                    _ if rng.gen_range(0u32..8) == 0 => BatchOp::QueryForestWeight,
                    _ => {
                        let (u, mut v) = region_pair(rng);
                        // Half the probes ask whether the hotspot is still
                        // attached to the rest of the tenant's graph.
                        if rng.gen_range(0u32..2) == 0 {
                            v = VertexId::from(rng.gen_range(0..n));
                            if v == u {
                                v = VertexId::from((u.index() + 1) % n);
                            }
                        }
                        BatchOp::QueryConnected { u, v }
                    }
                };
                last_query = Some(op);
                push(op, &mut emitted);
                continue;
            }
            if remaining >= pending_flaps.len() + 2 && rng.gen_range(0u32..1000) < mix.flap_permille
            {
                let (u, v) = region_pair(rng);
                let weight = random_weight(rng);
                pending_flaps.push(self.graph.link(u, v, weight));
                push(BatchOp::Link { u, v, weight }, &mut emitted);
                continue;
            }
            if self.cuttable.is_empty() || rng.gen_range(0u32..2) == 0 {
                let (u, v) = region_pair(rng);
                let weight = random_weight(rng);
                self.cuttable.push(self.graph.link(u, v, weight));
                push(BatchOp::Link { u, v, weight }, &mut emitted);
            } else {
                let k = rng.gen_range(0..self.cuttable.len());
                let id = self.cuttable.swap_remove(k);
                self.graph.cut(id);
                push(BatchOp::Cut { id: EdgeId(id) }, &mut emitted);
            }
        }
    }
}

/// The single-update stream: each op inserts a random edge or deletes a
/// uniformly random live edge, half and half (`StreamKind::Mixed` with
/// `insert_permille = 500`), generated one op at a time.
pub struct UpdateTraffic {
    n: usize,
    rng: ChaCha8Rng,
    live: Vec<u32>,
    graph: OracleGraph,
}

impl UpdateTraffic {
    /// A stream over the given base graph (ids `0..base.len()`).
    pub fn new(n: usize, base: &[(VertexId, VertexId, Weight)], seed: u64) -> UpdateTraffic {
        let mut graph = OracleGraph::new(n);
        for &(u, v, w) in base {
            graph.link(u, v, w);
        }
        UpdateTraffic {
            n,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            live: (0..base.len() as u32).collect(),
            graph,
        }
    }

    /// The benchmark's own copy of the live graph.
    pub fn graph(&self) -> &OracleGraph {
        &self.graph
    }

    /// The next update.
    pub fn next_op(&mut self) -> BatchOp {
        if self.live.is_empty() || self.rng.gen_range(0u32..1000) < 500 {
            let (u, v) = random_pair(&mut self.rng, self.n);
            let weight = random_weight(&mut self.rng);
            self.live.push(self.graph.link(u, v, weight));
            BatchOp::Link { u, v, weight }
        } else {
            let k = self.rng.gen_range(0..self.live.len());
            let id = self.live.swap_remove(k);
            self.graph.cut(id);
            BatchOp::Cut { id: EdgeId(id) }
        }
    }
}

//! Seeded inputs: the graphs `dmcs` loads and the request streams the
//! load generator sends. Everything here is a pure function of the seed.

use std::io::Write;

/// splitmix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Number of blocks and nodes per block of the fragmented serve graph.
pub const BLOCKS: usize = 250;
pub const PER_BLOCK: usize = 200;
/// Intra-block edge probability (average degree ~8, blocks connected).
pub const P_IN: f64 = 0.04;

/// The giant-plus-villages weighted batch graph.
pub const GIANT: usize = 40_000;
pub const VILLAGES: usize = 50;
pub const PER_VILLAGE: usize = 200;

/// Scrambled fragmented-50k: `BLOCKS` disconnected SBM blocks whose
/// node ids are a seeded permutation.
///
/// `dmcs` numbers nodes densely in order of first appearance in the
/// file, and its store shards are ranges of those dense ids. The file
/// therefore opens with spanning-tree edges that each name one new node
/// beside an already-numbered neighbour, in rounds: every round visits
/// the blocks in a fresh random order and numbers one random frontier
/// node of each. Dense ids then look random (no block holds a run of
/// them), yet each block gets one id in every window of about `BLOCKS`
/// ids, so every block covers every store shard. The remaining edges
/// follow in a seeded random order. Returns the edges in external ids,
/// in file order.
pub fn fragmented_edges(seed: u64) -> Vec<(u64, u64)> {
    let mut rng = Rng::new(seed);
    let n = BLOCKS * PER_BLOCK;
    let mut ext: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut ext);
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for b in 0..BLOCKS {
        let base = b * PER_BLOCK;
        for i in base..base + PER_BLOCK {
            for j in i + 1..base + PER_BLOCK {
                if rng.unit() < P_IN {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
    }
    // Per block: a frontier of (node, numbered neighbour that found it),
    // and a cursor over its members for the next search root (its first
    // member with an edge, and later the first member of any piece the
    // search could not reach). A root is numbered with its first
    // neighbour, in one edge.
    const NONE: usize = usize::MAX;
    let mut found_by = vec![NONE; n];
    let mut frontier: Vec<Vec<(usize, usize)>> = vec![Vec::new(); BLOCKS];
    let mut cursor: Vec<usize> = (0..BLOCKS).map(|b| b * PER_BLOCK).collect();
    let mut blocks: Vec<usize> = (0..BLOCKS).collect();
    let mut edges = Vec::with_capacity(n * 5);
    let mut open = true;
    while open {
        open = false;
        rng.shuffle(&mut blocks);
        for &b in &blocks {
            let end = (b + 1) * PER_BLOCK;
            let (v, by) = if frontier[b].is_empty() {
                while cursor[b] < end && (found_by[cursor[b]] != NONE || adj[cursor[b]].is_empty())
                {
                    cursor[b] += 1;
                }
                if cursor[b] == end {
                    continue;
                }
                let root = cursor[b];
                found_by[root] = root;
                (adj[root][0], root)
            } else {
                let f = &mut frontier[b];
                f.swap_remove(rng.below(f.len()))
            };
            open = true;
            if found_by[by] == by && found_by[v] == NONE {
                edges.push((ext[by], ext[v]));
                for &x in &adj[by] {
                    if found_by[x] == NONE && x != v {
                        found_by[x] = by;
                        frontier[b].push((x, by));
                    }
                }
            } else {
                edges.push((ext[v], ext[by]));
            }
            found_by[v] = by;
            for &x in &adj[v] {
                if found_by[x] == NONE {
                    found_by[x] = v;
                    frontier[b].push((x, v));
                }
            }
        }
    }
    let mut rest = Vec::new();
    for (i, nbrs) in adj.iter().enumerate() {
        for &j in nbrs {
            if j > i && found_by[j] != i && found_by[i] != j {
                rest.push((i, j));
            }
        }
    }
    rng.shuffle(&mut rest);
    edges.extend(rest.into_iter().map(|(i, j)| {
        if rng.unit() < 0.5 {
            (ext[i], ext[j])
        } else {
            (ext[j], ext[i])
        }
    }));
    edges
}

/// One 40k-node giant (a ring plus chords) and `VILLAGES` 200-node
/// villages (rings plus chords), with seeded weights in `[0.5, 2)`.
/// External ids equal the construction ids.
pub fn giant_villages_edges(seed: u64) -> Vec<(u64, u64, f64)> {
    let mut rng = Rng::new(seed ^ 0x006A_1A57);
    let mut w = || 0.5 + 1.5 * rng.unit();
    let mut edges = Vec::new();
    let g = GIANT as u64;
    for v in 0..g {
        edges.push((v, (v + 1) % g, w()));
        if v % 13 == 0 {
            edges.push((v, (v + g / 7) % g, w()));
        }
    }
    let per = PER_VILLAGE as u64;
    for blk in 0..VILLAGES as u64 {
        let base = g + blk * per;
        for i in 0..per {
            edges.push((base + i, base + (i + 1) % per, w()));
            if i % 7 == 0 {
                edges.push((base + i, base + (i + per / 3) % per, w()));
            }
        }
    }
    edges
}

pub fn write_edges(path: &std::path::Path, edges: &[(u64, u64)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (u, v) in edges {
        writeln!(out, "{u} {v}")?;
    }
    out.flush()
}

pub fn write_weighted_edges(
    path: &std::path::Path,
    edges: &[(u64, u64, f64)],
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (u, v, w) in edges {
        writeln!(out, "{u} {v} {w:.4}")?;
    }
    out.flush()
}

/// Batch queries over the giant graph: two-node giant queries plus an
/// occasional village single (external ids).
pub fn batch_queries(seed: u64, count: usize) -> Vec<Vec<u64>> {
    let mut rng = Rng::new(seed ^ 0xBA7C4);
    let mut queries = Vec::with_capacity(count);
    while queries.len() < count {
        if queries.len() % 16 == 15 {
            let blk = rng.below(VILLAGES) as u64;
            queries.push(vec![
                GIANT as u64 + blk * PER_VILLAGE as u64 + rng.below(PER_VILLAGE) as u64,
            ]);
        } else {
            let a = rng.below(GIANT - 40) as u64;
            queries.push(vec![a, a + 1 + rng.below(30) as u64]);
        }
    }
    queries
}

/// A Zipf(`s`) sampler over ranks `0..n` (inverse CDF by binary search).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

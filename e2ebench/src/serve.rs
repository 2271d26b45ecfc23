//! The three daemon workloads: `dmcs serve --layout bfs` over scrambled
//! fragmented-50k, driven open-loop over a unix socket.
//!
//! A round: start the daemon (`setup_s`), warm up, hold the base rate
//! (latency, then peak RSS), climb the rate ladder (`throughput_qps`)
//! and stop the daemon. After the rounds, the sampled replies are
//! deep-checked against an in-process replay. Every phase opens fresh
//! connections, so the daemon's per-connection state is the same size
//! in every run.

use crate::check::{compare, Applied, Checker, Sample};
use crate::daemon::Daemon;
use crate::inputs::{self, Rng, Zipf};
use crate::loadgen::{self, Class, Conn, Kind, Op, PhaseResult, FAILED};
use crate::{layers, stats, Args, Report};
use dmcs_engine::output::{response_json, Json};
use dmcs_engine::{AlgoSpec, Engine, QueryRequest, Session};
use dmcs_graph::{Graph, LayoutPolicy, NodeId, ShardLayout, DEFAULT_SHARD_COUNT};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// An end-to-end run repeats setup, warm-up, base segment and ladder
/// climb `ROUNDS` times on a fresh daemon, so every metric samples the
/// whole run rather than one stretch of it (the host's speed drifts).
const ROUNDS: usize = 6;
/// Daemon starts per round; `setup_s` is the median over all of them.
const SETUP_PER_ROUND: usize = 2;
/// Share of cold-stream queries that name 2-3 nodes of one component.
const SHARE_MULTI: f64 = 0.02;
/// Share of cold-stream queries that ask for the top 3 communities.
const SHARE_TOPK: f64 = 0.01;
const TOPK: usize = 3;
/// Hot set size (well inside the daemon's 1024-entry cache) and skew.
const HOT_SET: usize = 512;
const ZIPF_S: f64 = 1.0;
/// The daemon's layout policy in every serve workload.
pub const LAYOUT: LayoutPolicy = LayoutPolicy::Bfs;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Cold,
    Hot,
    Churn,
}

/// Rates and limits of one serve workload.
pub struct Shape {
    pub mix: Mix,
    /// Reader queries per second while latency is measured (10-20% of
    /// what the daemon sustains on the reference machine).
    pub base_rate: f64,
    /// Share of `--seconds` spent at the base rate (the ladder gets the rest).
    pub base_share: f64,
    /// p99 limit on k=0 reader query latency, µs. Under churn a reader
    /// repin waits behind a mirror rebuild (~20 ms) at any rate, so the
    /// churn limit sits well above that: its ladder then measures load,
    /// not the luck of stall overlaps.
    pub limit_us: f64,
    /// Updates per second on the writer connection (churn only).
    pub writer_rate: f64,
    /// Reader repin period (churn only), ns.
    pub repin_every_ns: u64,
    /// Length of one ladder step (shorter where rates are high, so a
    /// run stays within its time budget).
    pub step_seconds: f64,
}

/// The rate ladder: rungs `COARSE` apart, climbed from a start rung
/// until one fails, then `BISECTIONS` geometric bisections between the last
/// pass and the first failure (rungs about 6% apart; `throughput_qps` is
/// the median over the rounds' climbs of the highest passing rung's
/// answered rate). Each step runs
/// `Shape::step_seconds` (at least `STEP_MIN_OPS` reader ops). A step
/// fails when any op fails, its replies trail the last send by more than
/// the limit (a backlog built up), or the median of the p99s of its
/// `TAIL_WINDOWS` windows reaches the limit; the median keeps one host
/// stall from failing a step, while real overload fails every window.
/// A failed step gets one more attempt.
const COARSE: f64 = 1.6;
const BISECTIONS: usize = 3;
const STEP_MIN_OPS: usize = 1_000;
const STEP_ATTEMPTS: usize = 2;
/// Tails are the median of the p99s of this many equal windows, so one
/// host stall moves them little.
const TAIL_WINDOWS: usize = 5;

pub fn shape(mix: Mix) -> Shape {
    match mix {
        Mix::Cold => Shape {
            mix,
            base_rate: 1_000.0,
            base_share: 0.45,
            limit_us: 10_000.0,
            writer_rate: 0.0,
            repin_every_ns: 0,
            step_seconds: 0.3,
        },
        Mix::Hot => Shape {
            mix,
            base_rate: 5_000.0,
            base_share: 0.45,
            limit_us: 5_000.0,
            writer_rate: 0.0,
            repin_every_ns: 0,
            step_seconds: 0.2,
        },
        Mix::Churn => Shape {
            mix,
            base_rate: 1_000.0,
            base_share: 0.6,
            limit_us: 100_000.0,
            writer_rate: 20.0,
            repin_every_ns: 100_000_000,
            step_seconds: 0.3,
        },
    }
}

/// The generated graph as `dmcs` sees it: the file, and the same dense
/// ids `dmcs` assigns (its own loader, run in process).
pub struct Loaded {
    pub path: PathBuf,
    pub graph: Graph,
    pub original: Vec<u64>,
    pub dense: HashMap<u64, NodeId>,
}

impl Loaded {
    /// Wrap what `dmcs`'s loader returned for the file at `path`.
    pub fn new(path: PathBuf, graph: Graph, original: Vec<u64>) -> Loaded {
        let dense = original
            .iter()
            .enumerate()
            .map(|(i, &o)| (o, i as NodeId))
            .collect();
        Loaded {
            path,
            graph,
            original,
            dense,
        }
    }

    pub fn to_dense(&self, ext: &[u64]) -> Vec<NodeId> {
        ext.iter().map(|e| self.dense[e]).collect()
    }
}

pub fn load_fragmented(work: &Path, seed: u64) -> Result<Loaded, String> {
    let path = work.join("fragmented50k.txt");
    inputs::write_edges(&path, &inputs::fragmented_edges(seed)).map_err(|e| e.to_string())?;
    let (graph, original) = dmcs_graph::io::load_edge_list(&path).map_err(|e| e.to_string())?;
    Ok(Loaded::new(path, graph, original))
}

/// Seeded request streams over the loaded graph.
pub struct Streams {
    rng: Rng,
    order: Vec<u64>,
    cursor: usize,
    hot: Vec<u64>,
    zipf: Zipf,
    toggled: Option<(u64, u64)>,
}

impl Streams {
    pub fn new(seed: u64, g: &Loaded) -> Streams {
        let mut rng = Rng::new(seed ^ 0x005E_ED0F_57EA);
        let mut order = g.original.clone();
        rng.shuffle(&mut order);
        let hot = order[order.len() - HOT_SET..].to_vec();
        Streams {
            rng,
            order,
            cursor: 0,
            hot,
            zipf: Zipf::new(HOT_SET, ZIPF_S),
            toggled: None,
        }
    }

    pub fn hot_set(&self) -> &[u64] {
        &self.hot
    }

    fn next_cold(&mut self) -> u64 {
        let span = self.order.len() - HOT_SET;
        let v = self.order[self.cursor % span];
        self.cursor += 1;
        v
    }

    fn neighbor(&mut self, g: &Loaded, v: u64) -> Option<u64> {
        let nbrs = g.graph.neighbors(g.dense[&v]);
        (!nbrs.is_empty()).then(|| g.original[nbrs[self.rng.below(nbrs.len())] as usize])
    }

    /// One cold-stream query: mostly single nodes in permutation order,
    /// some 2-3-node same-component queries and some top-k queries.
    pub fn cold(&mut self, g: &Loaded) -> (Vec<u64>, usize, Class) {
        let v = self.next_cold();
        let r = self.rng.unit();
        if r < SHARE_MULTI {
            let mut nodes = vec![v];
            if let Some(w) = self.neighbor(g, v) {
                nodes.push(w);
                if let Some(x) = self.neighbor(g, w).filter(|x| !nodes.contains(x)) {
                    nodes.push(x);
                }
            }
            if nodes.len() > 1 {
                return (nodes, 0, Class::Multi);
            }
        } else if r < SHARE_MULTI + SHARE_TOPK {
            return (vec![v], TOPK, Class::TopK);
        }
        (vec![v], 0, Class::Cold)
    }

    pub fn hot(&mut self) -> (Vec<u64>, usize, Class) {
        (
            vec![self.hot[self.zipf.sample(&mut self.rng)]],
            0,
            Class::Hot,
        )
    }

    pub fn reader(&mut self, mix: Mix, g: &Loaded) -> (Vec<u64>, usize, Class) {
        match mix {
            Mix::Cold => self.cold(g),
            Mix::Hot => self.hot(),
            Mix::Churn if self.rng.unit() < 0.5 => self.hot(),
            Mix::Churn => (vec![self.next_cold()], 0, Class::Cold),
        }
    }

    /// A new daemon holds the generated graph: forget a pending delete.
    pub fn restart_updates(&mut self) {
        self.toggled = None;
    }

    /// The next writer update: add a missing same-component edge, then
    /// delete it again, so every update succeeds and the graph keeps
    /// returning to its generated state.
    pub fn update(&mut self, g: &Loaded) -> (bool, u64, u64) {
        if let Some((u, v)) = self.toggled.take() {
            return (false, u, v);
        }
        loop {
            let u = self.order[self.rng.below(self.order.len())];
            let Some(w) = self.neighbor(g, u) else {
                continue;
            };
            let Some(v) = self.neighbor(g, w) else {
                continue;
            };
            if v != u && !g.graph.has_edge(g.dense[&u], g.dense[&v]) {
                self.toggled = Some((u, v));
                return (true, u, v);
            }
        }
    }
}

/// Reader ops (conn 0) for `count` queries at `rate`, plus, for churn,
/// periodic reader repins and writer chains (update, repin, query on an
/// endpoint) on conn 1.
pub fn phase_ops(s: &mut Streams, shape: &Shape, g: &Loaded, count: usize, rate: f64) -> Vec<Op> {
    let mut ops = Vec::with_capacity(count + count / 8);
    let churn = shape.mix == Mix::Churn;
    let mut next_repin = shape.repin_every_ns;
    for at in loadgen::schedule(count, rate) {
        if churn && at >= next_repin {
            ops.push(Op {
                conn: 0,
                at_ns: next_repin,
                kind: Kind::Repin,
            });
            next_repin += shape.repin_every_ns;
        }
        let (nodes, k, class) = s.reader(shape.mix, g);
        ops.push(Op::query(0, at, nodes, k, class));
    }
    if churn {
        let span = (count as f64 / rate * 1e9) as u64;
        for at in loadgen::schedule(usize::MAX, shape.writer_rate).take_while(|&t| t < span) {
            let (add, u, v) = s.update(g);
            ops.push(Op {
                conn: 1,
                at_ns: at,
                kind: Kind::Update { add, u, v },
            });
            ops.push(Op {
                conn: 1,
                at_ns: at,
                kind: Kind::Repin,
            });
            ops.push(Op::query(1, at, vec![u], 0, Class::Fresh));
        }
    }
    ops.sort_by_key(|o| o.at_ns); // stable: a writer chain keeps its order
    ops
}

/// Everything one phase produced.
pub struct Phase {
    pub ops: Vec<Op>,
    pub res: PhaseResult,
    /// The daemon's closing summary line for the reader connection.
    pub summary: Option<String>,
}

pub fn run_phase(socket: &Path, ops: Vec<Op>, checker: &mut Checker) -> Result<Phase, String> {
    let nconns = ops.iter().map(|o| o.conn + 1).max().unwrap_or(1);
    let mut conns = (0..nconns)
        .map(|_| Conn::open(socket))
        .collect::<Result<Vec<_>, _>>()?;
    let res = loadgen::drive_low_priority(&mut conns, &ops, checker);
    let mut summary = None;
    for (i, c) in conns.into_iter().enumerate() {
        let last = c.finish(Duration::from_secs(10));
        if i == 0 {
            summary = last;
        }
    }
    Ok(Phase { ops, res, summary })
}

/// Latencies in µs of the ops `keep` selects; failures read as infinite.
pub fn latencies(p: &Phase, keep: impl Fn(&Op) -> bool) -> Vec<f64> {
    p.ops
        .iter()
        .zip(&p.res.latency_ns)
        .filter(|(op, _)| keep(op))
        .map(|(_, &l)| {
            if l == FAILED {
                f64::INFINITY
            } else {
                l as f64 / 1e3
            }
        })
        .collect()
}

/// k=0 reader queries (the latency the ladder limits).
pub fn is_read(op: &Op) -> bool {
    op.conn == 0 && matches!(op.class(), Some(Class::Cold | Class::Hot | Class::Multi))
}

fn workload_mix(name: &str) -> Mix {
    match name {
        "serve-cold" => Mix::Cold,
        "serve-hot" => Mix::Hot,
        _ => Mix::Churn,
    }
}

/// `dmcs serve` arguments (the listener is added by [`Daemon::start`]).
pub fn serve_args(g: &Loaded) -> Vec<String> {
    vec![
        "--graph".into(),
        g.path.display().to_string(),
        "--layout".into(),
        LAYOUT.as_str().into(),
    ]
}

/// One rung of the ladder: `true` when it passes (see [`COARSE`]).
struct Climb<'a> {
    streams: &'a mut Streams,
    shape: &'a Shape,
    g: &'a Loaded,
    socket: &'a Path,
    log: Vec<(f64, f64, f64, bool)>,
}

impl Climb<'_> {
    /// Run one rung; on a pass, returns the rate its reader queries were
    /// answered at (count over first send to last reply), a measured
    /// figure just under the rung's offered rate.
    fn step(
        &mut self,
        rate: f64,
        checker: &mut Checker,
        report: &mut Report,
    ) -> Result<Option<f64>, String> {
        let limit_ns = (self.shape.limit_us * 1e3) as u64;
        for _ in 0..STEP_ATTEMPTS {
            let count = ((rate * self.shape.step_seconds) as usize).max(STEP_MIN_OPS);
            let ops = phase_ops(self.streams, self.shape, self.g, count, rate);
            let p = run_phase(self.socket, ops, checker)?;
            tally(report, &p);
            let p99 = windowed_p99(&latencies(&p, is_read));
            let pass =
                p99 < self.shape.limit_us && p.res.failed() == 0 && p.res.drain_ns <= limit_ns;
            let late = stats::percentile(&mut ns_to_us(&p.res.lateness_ns), 0.99);
            self.log.push((rate, p99, late, pass));
            if pass {
                let reads = p
                    .ops
                    .iter()
                    .zip(&p.res.recv_ns)
                    .filter(|(op, _)| is_read(op));
                let (n, last) =
                    reads.fold((0usize, 0u64), |(n, last), (_, &r)| (n + 1, last.max(r)));
                return Ok(Some(n as f64 / (last as f64 / 1e9)));
            }
        }
        Ok(None)
    }

    /// Climb from the rung `start`; returns the answered rate of the
    /// highest rung that passed and that rung (both 0 if none did).
    fn run(
        &mut self,
        start: f64,
        checker: &mut Checker,
        report: &mut Report,
    ) -> Result<(f64, f64), String> {
        let base = self.shape.base_rate;
        let (mut pass, mut fail, mut answered) = (0.0, start, 0.0);
        while let Some(got) = self.step(fail, checker, report)? {
            (pass, answered) = (fail, got);
            fail *= COARSE;
        }
        while pass == 0.0 && fail > base / 10.0 {
            // Even the first rung failed: walk down instead.
            fail /= COARSE;
            if let Some(got) = self.step(fail, checker, report)? {
                (pass, answered) = (fail, got);
                fail = pass * COARSE;
            }
        }
        for _ in 0..BISECTIONS {
            if pass == 0.0 {
                break;
            }
            let mid = (pass * fail).sqrt();
            match self.step(mid, checker, report)? {
                Some(got) => (pass, answered) = (mid, got),
                None => fail = mid,
            }
        }
        Ok((answered, pass))
    }
}

fn tally(report: &mut Report, p: &Phase) {
    report.attempted += p.ops.len();
    report.failed += p.res.failed();
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mix = workload_mix(&args.workload);
    let shape = shape(mix);
    let g = load_fragmented(&args.work, args.seed)?;
    let mut streams = Streams::new(args.seed, &g);
    let socket = args.work.join("d.sock");
    let dmcs_args = serve_args(&g);
    let probe = streams.hot_set()[0];
    let mut checker = Checker::default();
    let mut report = Report::default();

    let rounds = if args.trace { 1 } else { ROUNDS };
    let base_count = (shape.base_rate * args.seconds * shape.base_share / rounds as f64) as usize;
    let (mut setups, mut rss, mut sustained) = (Vec::new(), Vec::new(), Vec::new());
    let mut bases: Vec<Phase> = Vec::new();
    let mut ladder = Vec::new();
    // The first climb starts two rungs above the base rate (the base rate
    // sits far below capacity, so lower rungs always pass); later climbs
    // start one rung below the previous round's highest pass, which
    // spends their steps near capacity.
    let first_rung = shape.base_rate * COARSE * COARSE;
    let mut start = first_rung;
    for round in 0..rounds {
        checker.round = round;
        streams.restart_updates();
        let mut daemon = None;
        for _ in 0..SETUP_PER_ROUND {
            if let Some(d) = daemon.take() {
                Daemon::stop(d)?;
            }
            let (d, secs) = Daemon::start(&args.dmcs, &dmcs_args, &socket, probe)?;
            setups.push(secs);
            daemon = Some(d);
        }
        let daemon = daemon.expect("at least one setup spawn per round");

        // Warm-up: the hot set enters the cache; code and allocator settle.
        let warm: Vec<Op> = if mix == Mix::Hot {
            let hot = streams.hot_set().to_vec();
            hot.into_iter()
                .enumerate()
                .map(|(i, v)| Op::query(0, i as u64 * 50_000, vec![v], 0, Class::Hot))
                .collect()
        } else {
            phase_ops(
                &mut streams,
                &shape,
                &g,
                (shape.base_rate * 0.3) as usize,
                shape.base_rate,
            )
        };
        let p = run_phase(&socket, warm, &mut checker)?;
        tally(&mut report, &p);

        let base_ops = phase_ops(&mut streams, &shape, &g, base_count, shape.base_rate);
        let base = run_phase(&socket, base_ops.clone(), &mut checker)?;
        tally(&mut report, &base);
        // Peak RSS through load, warm-up and the base phase; the ladder's
        // reach varies from run to run and must not move it.
        rss.push(daemon.peak_rss_mb()?);

        if !args.trace {
            let mut climb = Climb {
                streams: &mut streams,
                shape: &shape,
                g: &g,
                socket: &socket,
                log: Vec::new(),
            };
            let (answered, pass) = climb.run(start, &mut checker, &mut report)?;
            sustained.push(answered);
            start = (pass / COARSE).max(first_rung);
            ladder.extend(climb.log);
        }
        daemon.stop()?;
        bases.push(base);
    }

    report.failed += deep_check(&g, &mut checker)?;
    report.rejects = checker.rejects.clone();

    report.note(
        "graph.min_component_shards",
        min_component_shards(&g.graph) as f64,
        "count",
        1,
    );
    if args.trace {
        layers::serve_layers(args, &g, &shape, &bases[0], &checker, &mut report)?;
        return Ok(report);
    }

    // End-to-end metrics: medians over the rounds and over every base
    // segment's requests.
    let pooled = |keep: &dyn Fn(&Op) -> bool| -> Vec<f64> {
        bases.iter().flat_map(|b| latencies(b, keep)).collect()
    };
    let mut reads = pooled(&is_read);
    let read_p99 = stats::median(
        &mut bases
            .iter()
            .map(|b| windowed_p99(&latencies(b, is_read)))
            .collect::<Vec<_>>(),
    );
    let read_p50 = stats::median(&mut reads);
    report.put(
        "setup_s",
        stats::median(&mut setups.clone()),
        "s",
        setups.len(),
    );
    report.put(
        "rss_peak_mb",
        stats::median(&mut rss.clone()),
        "MB",
        rss.len(),
    );
    report.put(
        "throughput_qps",
        stats::median(&mut sustained.clone()),
        "1/s",
        sustained.len(),
    );
    if mix == Mix::Churn {
        let mut fresh = pooled(&|o| o.class() == Some(Class::Fresh));
        let (q, tail) = stats::tail(&mut fresh.clone());
        report.put(
            "latency_p50_us",
            stats::median(&mut fresh),
            "us",
            fresh.len(),
        );
        report.note(
            &format!("fresh_read_p{:.0}_us", q * 100.0),
            tail,
            "us",
            fresh.len(),
        );
        let mut upd = pooled(&|o| matches!(o.kind, Kind::Update { .. }));
        report.note("update_p50_us", stats::median(&mut upd), "us", upd.len());
    } else {
        report.put("latency_p50_us", read_p50, "us", reads.len());
    }
    report.note("query_p50_us", read_p50, "us", reads.len());
    report.note("query_p99_us", read_p99, "us", reads.len());
    if mix == Mix::Cold {
        let mut topk = pooled(&|o| o.class() == Some(Class::TopK));
        report.note("topk_p50_us", stats::median(&mut topk), "us", topk.len());
    }
    for (i, s) in sustained.iter().enumerate() {
        report.note(&format!("sustained_qps.round{i}"), *s, "1/s", 1);
    }
    for (rate, p99, late, pass) in ladder {
        let verdict = if pass { "pass" } else { "fail" };
        report.note(&format!("ladder.{rate:.0}.{verdict}.p99_us"), p99, "us", 0);
        report.note(
            &format!("ladder.{rate:.0}.{verdict}.lateness_p99_us"),
            late,
            "us",
            0,
        );
    }
    report.note("base_rate_qps", shape.base_rate, "1/s", 1);
    let mut late: Vec<f64> = bases
        .iter()
        .flat_map(|b| ns_to_us(&b.res.lateness_ns))
        .collect();
    report.note(
        "lateness_p99_us",
        stats::percentile(&mut late, 0.99),
        "us",
        late.len(),
    );
    Ok(report)
}

/// The fewest store shards (the daemon's default id-range layout) that
/// any connected component of `g` covers. A cached answer is
/// invalidated by an update that touches a shard its component covers,
/// so when this equals the shard count every update invalidates every
/// cached answer.
pub fn min_component_shards(g: &Graph) -> usize {
    let layout = ShardLayout::new(g.n(), DEFAULT_SHARD_COUNT);
    let (label, count) = dmcs_graph::traversal::connected_components(g);
    let mut covered = vec![0u64; count];
    for (v, &c) in label.iter().enumerate() {
        covered[c as usize] |= 1 << layout.shard_of(v as NodeId);
    }
    covered
        .iter()
        .map(|m| m.count_ones() as usize)
        .min()
        .unwrap_or(0)
}

/// Median of the p99s of `TAIL_WINDOWS` consecutive windows of `lat`.
pub fn windowed_p99(lat: &[f64]) -> f64 {
    let w = (lat.len() / TAIL_WINDOWS).max(1);
    let mut p99s: Vec<f64> = lat
        .chunks(w)
        .filter(|c| c.len() == w)
        .map(|c| stats::percentile(&mut c.to_vec(), 0.99))
        .collect();
    stats::median(&mut p99s)
}

pub fn ns_to_us(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&x| x as f64 / 1e3).collect()
}

/// Compare every sampled reply with the same request answered by an
/// in-process session on the same epoch of the same daemon, replaying
/// that daemon's acknowledged updates in version order. Returns the
/// number of mismatches.
pub fn deep_check(g: &Loaded, checker: &mut Checker) -> Result<usize, String> {
    let samples = std::mem::take(&mut checker.samples);
    let updates = std::mem::take(&mut checker.updates);
    let mut failures = 0;
    for round in 0..=checker.round {
        let mut samples: Vec<_> = samples.iter().filter(|s| s.round == round).collect();
        samples.sort_by_key(|s| s.version);
        let mut updates: Vec<_> = updates.iter().filter(|u| u.round == round).collect();
        updates.sort_by_key(|u| u.version);
        failures += deep_check_round(g, &samples, &updates, checker)?;
    }
    Ok(failures)
}

/// The reference engine has no mirror (identity layout): answers are
/// layout-invariant by contract, so the check also covers mirror serving
/// and skips a mirror rebuild per replayed epoch.
fn deep_check_round(
    g: &Loaded,
    samples: &[&Sample],
    updates: &[&Applied],
    checker: &mut Checker,
) -> Result<usize, String> {
    let engine = Engine::from_graph(g.graph.clone());
    let spec = AlgoSpec::new("fpa");
    let mut next_update = 0;
    let mut session: Option<Session> = None;
    let mut failures = 0;
    for s in samples {
        while next_update < updates.len() && updates[next_update].version <= s.version {
            let u = updates[next_update];
            let (a, b) = (g.dense[&u.u], g.dense[&u.v]);
            let applied = if u.add {
                engine.insert_edge(a, b)
            } else {
                engine.remove_edge(a, b)
            };
            if !applied || engine.version() != u.version {
                checker.reject(
                    "replay",
                    "update does not replay to the acknowledged version",
                    "",
                );
                failures += 1;
            }
            next_update += 1;
            session = None;
        }
        if !updates.is_empty() && engine.version() != s.version {
            checker.reject("replay", &format!("no replayable epoch {}", s.version), "");
            failures += 1;
            continue;
        }
        let sess = match &mut session {
            Some(sess) => sess,
            None => {
                session.insert(Session::new(engine.snapshot(), &spec).map_err(|e| e.to_string())?)
            }
        };
        let dense = g.to_dense(&s.nodes);
        let expected = if s.k == 0 {
            let resp = sess
                .query(&QueryRequest::new(dense))
                .map_err(|e| e.to_string())?;
            response_json(&resp, Some(&g.original))
        } else {
            topk_rounds_json(&sess.top_k(&dense, s.k), &g.original)
        };
        let expected = Json::parse(&expected.render()).map_err(|e| e.to_string())?;
        if let Err(why) = compare(&s.reply, &expected) {
            checker.reject("deep check", &why, &s.reply.render());
            failures += 1;
        }
    }
    Ok(failures)
}

/// The `rounds` member of a top-k reply, built from an in-process outcome.
fn topk_rounds_json(outcome: &dmcs_engine::TopKOutcome, original: &[u64]) -> Json {
    let rounds = match &outcome.rounds {
        Ok(rounds) => rounds
            .iter()
            .map(|r| {
                let mut c: Vec<u64> = r.community.iter().map(|&v| original[v as usize]).collect();
                c.sort_unstable();
                Json::Obj(vec![
                    ("size".into(), Json::UInt(c.len() as u64)),
                    ("dm".into(), Json::Num(r.density_modularity)),
                    (
                        "community".into(),
                        Json::Arr(c.into_iter().map(Json::UInt).collect()),
                    ),
                ])
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    Json::Obj(vec![("rounds".into(), Json::Arr(rounds))])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every block of the generated graph, numbered as `dmcs` numbers
    /// it, covers every store shard, so any update invalidates every
    /// cached answer.
    #[test]
    fn every_block_covers_every_shard() {
        for seed in [1, 7919] {
            let text: String = inputs::fragmented_edges(seed)
                .iter()
                .map(|(u, v)| format!("{u} {v}\n"))
                .collect();
            let (graph, _) = dmcs_graph::io::read_edge_list(text.as_bytes()).unwrap();
            assert_eq!(min_component_shards(&graph), DEFAULT_SHARD_COUNT);
        }
    }
}

//! Traced mode: replay the base phase's exact request stream in process
//! and time each layer's public function in a span, so the served mean
//! splits into layer means and an explicit residual (framing, syscalls,
//! flush, id translation and scheduling).
//!
//! The request path mirrors the daemon's `query` op: `output.parse`
//! (`Json::parse` of the wire line), `session.query_hit|miss` (a
//! cache-attached `Session` per connection, repinned where the client
//! repinned) and `output.render`. Probes re-run single layers on the
//! same state, only where the served path ran them: `cache.get` on every
//! query, `cache.insert` (on a twin cache fed the same inserts) on
//! misses, and, in a second pass over a replica so that each call meets
//! memory as cold as the daemon's, `session.search` (mirror when
//! eligible), `core.search` (canonical CSR) and `traversal.validate` on
//! misses. Updates add `store.insert`, the two rebuild tiers on
//! identity-layout twin stores
//! (`store.rebuild_patch` with nothing pinned, `store.rebuild_copy` with
//! the two previous snapshots pinned), `layout.mirror_build` and
//! `plan.choose_cold` on each new epoch.
//!
//! The daemon itself is never traced. `trace.overhead_ratio` prices
//! the spans where they run: the request-path pass with spans over the
//! same pass without them.

use crate::check::Checker;
use crate::loadgen::{Class, Kind, Op, FAILED};
use crate::serve::{is_read, latencies, ns_to_us, Loaded, Mix, Phase, Shape, LAYOUT};
use crate::trace::{Tracer, ROOT};
use crate::{stats, Args, Report};
use dmcs_engine::cache::{fingerprint, CacheKey, CachedAnswer, DEFAULT_CACHE_CAPACITY};
use dmcs_engine::output::{response_json, Json};
use dmcs_engine::{AlgoSpec, Engine, PlanMode, QueryPlan, QueryRequest, ResponseCache, Session};
use dmcs_graph::traversal::same_component_with_workspace;
use dmcs_graph::view::QueryWorkspace;
use dmcs_graph::{ComputeGraph, GraphStore, RebuildStats, Snapshot};
use std::collections::VecDeque;
use std::time::Instant;

/// Per-layer metric names and units, in output order. Every traced run
/// prints all of them; a layer the workload's stream never reaches
/// reads 0. `loc.*` count non-test lines per first-party crate.
const PER_LAYER: [(&str, &str); 43] = [
    ("server.residual_hit_us", "us"),
    ("server.residual_miss_us", "us"),
    ("server.overloaded", "count"),
    ("server.reported_p50_us", "us"),
    ("output.parse_us", "us"),
    ("output.render_us", "us"),
    ("output.reply_bytes", "bytes"),
    ("cache.get_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("session.pin_us", "us"),
    ("session.query_hit_us", "us"),
    ("session.query_miss_us", "us"),
    ("session.search_us", "us"),
    ("session.topk_us", "us"),
    ("session.mirror_served_ratio", "ratio"),
    ("session.memo_hit_ratio", "ratio"),
    ("core.search_us", "us"),
    ("core.search_weighted_us", "us"),
    ("traversal.validate_us", "us"),
    ("store.insert_us", "us"),
    ("store.rebuild_patch_us", "us"),
    ("store.rebuild_copy_us", "us"),
    ("store.shards_rebuilt_per_rebuild", "count"),
    ("layout.mirror_build_us", "us"),
    ("plan.choose_cold_us", "us"),
    ("batch.run_s", "s"),
    ("batch.groups", "count"),
    ("batch.shared_bfs_reuses", "count"),
    ("batch.skew", "ratio"),
    ("loadgen.lateness_p99_us", "us"),
    ("loadgen.backlog_max", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("error_ratio", "ratio"),
    ("loc.graph", "lines"),
    ("loc.core", "lines"),
    ("loc.engine", "lines"),
    ("loc.baselines", "lines"),
    ("loc.root", "lines"),
    ("loc.gen", "lines"),
    ("loc.metrics", "lines"),
    ("loc.bench", "lines"),
    ("loc.lint", "lines"),
];

/// Collects per-layer values; anything never set reads 0.
pub struct Layers {
    values: Vec<(&'static str, f64, &'static str, usize)>,
}

impl Layers {
    pub fn new() -> Layers {
        let values = PER_LAYER.iter().map(|&(n, u)| (n, 0.0, u, 0)).collect();
        Layers { values }
    }

    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let slot = self
            .values
            .iter_mut()
            .find(|v| v.0 == name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}"));
        slot.1 = if value.is_finite() { value } else { 0.0 };
        slot.3 = samples;
    }

    /// Set `name` to the mean duration of the spans called `span`.
    pub fn set_mean_of(&mut self, name: &str, t: &Tracer, span: &str) {
        let (mean, n) = t.mean_us(span);
        self.set(name, mean, n);
    }

    /// Count the `loc.*` lines in the checkout and hand every value over.
    pub fn into_report(self, report: &mut Report) {
        for (name, mut value, unit, mut samples) in self.values {
            if let Some(krate) = name.strip_prefix("loc.") {
                let dir = match krate {
                    "root" => "src".to_string(),
                    c => format!("crates/{c}/src"),
                };
                value = non_test_loc(std::path::Path::new(&dir)) as f64;
                samples = 1;
            }
            report.put(name, value, unit, samples);
        }
    }
}

/// Non-blank, non-comment lines of the `.rs` files under `dir`, each
/// file counted up to its first `#[cfg(test)]`.
pub fn non_test_loc(dir: &std::path::Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            total += non_test_loc(&path);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            total += text
                .lines()
                .map(str::trim)
                .take_while(|l| !l.starts_with("#[cfg(test)]"))
                .filter(|l| !l.is_empty() && !l.starts_with("//"))
                .count();
        }
    }
    total
}

/// Per-request timings of the replay, index-aligned with the ops.
struct Replayed {
    /// Whether the in-process session answered a k=0 query from the cache.
    cached: Vec<Option<bool>>,
    /// parse + session.query + render, ns, for k=0 queries.
    path_ns: Vec<u64>,
}

/// The twin stores that price the two rebuild tiers on each update.
struct Tiers {
    patch: GraphStore,
    copy: GraphStore,
    pinned: VecDeque<Snapshot>,
}

/// What the request-path pass leaves for the metrics.
struct RequestPath {
    rep: Replayed,
    reply_bytes: Vec<f64>,
    /// Session memo hits and mirror-served queries, net of the warm-up.
    memo_hits: u64,
    mirror_served: u64,
    rebuilds: RebuildStats,
}

/// Pass 1: the request path, as the daemon runs it, on a fresh engine.
fn request_path(
    args: &Args,
    g: &Loaded,
    shape: &Shape,
    ops: &[Op],
    t: &mut Tracer,
) -> Result<RequestPath, String> {
    let spec = AlgoSpec::new("fpa");
    let engine = new_engine(g);
    let nconns = ops.iter().map(|o| o.conn + 1).max().unwrap_or(1);
    let mut sessions: Vec<Session> = (0..nconns)
        .map(|_| engine.session(&spec))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    if shape.mix == Mix::Hot {
        // The daemon's cache held the hot set before the base phase.
        for &v in crate::serve::Streams::new(args.seed, g).hot_set() {
            let _ = sessions[0].query(&QueryRequest::new(g.to_dense(&[v])));
        }
    }
    // Session counters, net of the warm-up and summed over repins.
    let counters = |s: &[Session]| -> (u64, u64) {
        (
            s.iter().map(Session::memo_hits).sum(),
            s.iter().map(Session::mirror_served).sum(),
        )
    };
    let warm = counters(&sessions);
    let (mut memo_hits, mut mirror_served) = (0u64, 0u64);
    // A twin cache fed the same inserts prices `ResponseCache::insert`.
    let twin = ResponseCache::new(DEFAULT_CACHE_CAPACITY);
    let mut rep = Replayed {
        cached: vec![None; ops.len()],
        path_ns: vec![0; ops.len()],
    };
    let mut reply_bytes = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let req = i as u64;
        let c = op.conn;
        match &op.kind {
            Kind::Repin => {
                let fresh = t
                    .span("session.pin", ROOT, req, || engine.session(&spec))
                    .map_err(|e| e.to_string())?;
                let old = std::mem::replace(&mut sessions[c], fresh);
                memo_hits += old.memo_hits();
                mirror_served += old.mirror_served();
            }
            Kind::Update { add, u, v } => {
                let (a, b) = (g.dense[u], g.dense[v]);
                t.span("store.insert", ROOT, req, || {
                    if *add {
                        engine.insert_edge(a, b)
                    } else {
                        engine.remove_edge(a, b)
                    }
                });
            }
            Kind::Query { nodes, k, .. } => {
                let line = op.wire(i as u64 + 2);
                let dense = g.to_dense(nodes);
                let sess = &mut sessions[c];
                let snap = sess.snapshot().clone();
                let probe = t.begin("probe", ROOT, req);
                t.span("cache.get", probe, req, || {
                    let key = CacheKey::new(&spec, &dense, &snap);
                    engine.cache().get(&key, snap.shard_versions()).is_some()
                });
                t.end(probe);

                let root = t.begin("request", ROOT, req);
                let parsed = t.span("output.parse", root, req, || Json::parse(line.trim_end()));
                parsed.map_err(|e| e.to_string())?;
                if *k > 0 {
                    t.span("session.topk", root, req, || sess.top_k(&dense, *k));
                    t.end(root);
                    continue;
                }
                let q = t.begin("session.query", root, req);
                let resp =
                    sess.query(&QueryRequest::new(dense.clone()).with_tag(format!("t{}", i + 2)));
                t.end(q);
                let resp = resp.map_err(|e| e.to_string())?;
                let name = if resp.cached {
                    "session.query_hit"
                } else {
                    "session.query_miss"
                };
                t.rename(q, name);
                let rendered = t.span("output.render", root, req, || {
                    response_json(&resp, Some(&g.original)).render()
                });
                t.end(root);
                reply_bytes.push(rendered.len() as f64 + 1.0);
                rep.path_ns[i] = t.duration_ns(root);
                rep.cached[i] = Some(resp.cached);
                if !resp.cached {
                    let answer = CachedAnswer::single(resp.algo, resp.result.clone(), resp.seconds);
                    let key = CacheKey::new(&spec, &dense, &snap);
                    let probe = t.begin("probe", ROOT, req);
                    t.span("cache.insert", probe, req, || {
                        twin.insert(key, answer, fingerprint(&snap, None))
                    });
                    t.end(probe);
                }
            }
        }
    }
    let last = counters(&sessions);
    memo_hits += last.0 - warm.0;
    mirror_served += last.1 - warm.1;
    Ok(RequestPath {
        rep,
        reply_bytes,
        memo_hits,
        mirror_served,
        rebuilds: engine.rebuild_stats(),
    })
}

fn new_engine(g: &Loaded) -> Engine {
    let engine = Engine::from_graph(g.graph.clone());
    engine.store().set_layout_policy(LAYOUT);
    engine
}

pub fn serve_layers(
    args: &Args,
    g: &Loaded,
    shape: &Shape,
    base: &Phase,
    checker: &Checker,
    report: &mut Report,
) -> Result<(), String> {
    let spec = AlgoSpec::new("fpa");
    let nconns = base.ops.iter().map(|o| o.conn + 1).max().unwrap_or(1);

    // Pass 1 runs four times: an untraced warm-up, then untraced, traced,
    // untraced. The traced run gives the layer spans; its wall time over
    // the mean of the two untraced runs beside it is what tracing costs
    // where it runs (the daemon itself is never traced).
    let mut t = Tracer::new();
    let mut walls = [0.0f64; 4];
    let mut traced = None;
    for (run, wall) in walls.iter_mut().enumerate() {
        let mut off = Tracer::off();
        let tracer = if run == 2 { &mut t } else { &mut off };
        let started = Instant::now();
        let path = request_path(args, g, shape, &base.ops, tracer)?;
        *wall = started.elapsed().as_secs_f64();
        if run == 2 {
            traced = Some(path);
        }
    }
    let overhead = walls[2] / ((walls[1] + walls[3]) / 2.0);
    let RequestPath {
        rep,
        reply_bytes,
        memo_hits,
        mirror_served,
        rebuilds,
    } = traced.expect("the third request-path run is traced");

    // Pass 2: the layers under the path, re-run on an identical replica
    // (its own pass, so each call meets memory as cold as the daemon's).
    let engine = new_engine(g);
    let mut pins: Vec<Snapshot> = (0..nconns).map(|_| engine.snapshot()).collect();
    let mut probes: Vec<Option<Session>> = (0..nconns).map(|_| None).collect();
    let algo = spec.build().map_err(|e| e.to_string())?;
    let mut canon_ws = QueryWorkspace::new();
    let mut visit_ws = QueryWorkspace::new();
    let mut tiers = Tiers {
        patch: GraphStore::from_graph(g.graph.clone()),
        copy: GraphStore::from_graph(g.graph.clone()),
        pinned: VecDeque::new(),
    };
    for (i, op) in base.ops.iter().enumerate() {
        let req = i as u64;
        let c = op.conn;
        match &op.kind {
            Kind::Repin => {
                pins[c] = engine.snapshot();
                probes[c] = None;
            }
            Kind::Update { add, u, v } => {
                let (a, b) = (g.dense[u], g.dense[v]);
                let _ = if *add {
                    engine.insert_edge(a, b)
                } else {
                    engine.remove_edge(a, b)
                };
                price_tiers(&mut t, &mut tiers, *add, a, b, req);
            }
            Kind::Query { nodes, .. } if rep.cached[i] == Some(false) => {
                let dense = g.to_dense(nodes);
                let snap = &pins[c];
                let ps = match &mut probes[c] {
                    Some(p) => p,
                    slot => {
                        slot.insert(Session::new(snap.clone(), &spec).map_err(|e| e.to_string())?)
                    }
                };
                let root = t.begin("probe", ROOT, req);
                t.span("session.search", root, req, || ps.search(&dense).is_ok());
                t.span("core.search", root, req, || {
                    algo.search_with_workspace(snap.graph(), &dense, &mut canon_ws)
                        .is_ok()
                });
                t.span("traversal.validate", root, req, || {
                    same_component_with_workspace(snap.graph(), &dense, &mut visit_ws)
                });
                t.end(root);
            }
            Kind::Query { .. } => {}
        }
    }

    let mut l = Layers::new();
    // Served means per class (untraced base phase) minus the in-process path.
    let class_means = |hit: bool| -> (f64, usize) {
        let (mut served, mut path, mut n) = (0.0, 0.0, 0usize);
        for (i, op) in base.ops.iter().enumerate() {
            let lat = base.res.latency_ns[i];
            if is_read(op) && rep.cached[i] == Some(hit) && lat != FAILED {
                served += lat as f64 / 1e3;
                path += rep.path_ns[i] as f64 / 1e3;
                n += 1;
            }
        }
        if n == 0 {
            (0.0, 0)
        } else {
            ((served - path) / n as f64, n)
        }
    };
    let (res_hit, n_hit) = class_means(true);
    let (res_miss, n_miss) = class_means(false);
    l.set("server.residual_hit_us", res_hit, n_hit);
    l.set("server.residual_miss_us", res_miss, n_miss);
    l.set(
        "server.overloaded",
        checker.overloaded as f64,
        checker.checked,
    );
    if let Some(p50) = base
        .summary
        .as_deref()
        .and_then(|s| summary_field(s, "p50_seconds"))
    {
        l.set("server.reported_p50_us", p50 * 1e6, 1);
    }
    l.set_mean_of("output.parse_us", &t, "output.parse");
    l.set_mean_of("output.render_us", &t, "output.render");
    l.set(
        "output.reply_bytes",
        stats::mean(&reply_bytes),
        reply_bytes.len(),
    );
    l.set_mean_of("cache.get_us", &t, "cache.get");
    l.set_mean_of("cache.insert_us", &t, "cache.insert");
    if let Some(s) = base.summary.as_deref() {
        let hits = summary_field(s, "cache_hits").unwrap_or(0.0);
        let misses = summary_field(s, "cache_misses").unwrap_or(0.0);
        l.set(
            "cache.hit_ratio",
            hits / (hits + misses),
            (hits + misses) as usize,
        );
    }
    l.set_mean_of("session.pin_us", &t, "session.pin");
    l.set_mean_of("session.query_hit_us", &t, "session.query_hit");
    l.set_mean_of("session.query_miss_us", &t, "session.query_miss");
    l.set_mean_of("session.search_us", &t, "session.search");
    l.set_mean_of("session.topk_us", &t, "session.topk");
    let misses = rep.cached.iter().filter(|c| **c == Some(false)).count();
    if misses > 0 {
        l.set(
            "session.memo_hit_ratio",
            memo_hits as f64 / misses as f64,
            misses,
        );
        l.set(
            "session.mirror_served_ratio",
            mirror_served as f64 / misses as f64,
            misses,
        );
    }
    l.set_mean_of("core.search_us", &t, "core.search");
    l.set_mean_of("traversal.validate_us", &t, "traversal.validate");
    l.set_mean_of("store.insert_us", &t, "store.insert");
    l.set_mean_of("store.rebuild_patch_us", &t, "store.rebuild_patch");
    l.set_mean_of("store.rebuild_copy_us", &t, "store.rebuild_copy");
    let rb = rebuilds;
    if rb.rebuilds > 0 {
        l.set(
            "store.shards_rebuilt_per_rebuild",
            rb.shards_rebuilt as f64 / rb.rebuilds as f64,
            rb.rebuilds as usize,
        );
    }
    l.set_mean_of("layout.mirror_build_us", &t, "layout.mirror_build");
    l.set_mean_of("plan.choose_cold_us", &t, "plan.choose_cold");
    l.set(
        "loadgen.lateness_p99_us",
        stats::percentile(&mut ns_to_us(&base.res.lateness_ns), 0.99),
        base.ops.len(),
    );
    l.set(
        "loadgen.backlog_max",
        base.res.backlog_max as f64,
        base.ops.len(),
    );
    l.set("trace.overhead_ratio", overhead, 3);
    l.set(
        "error_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.attempted,
    );

    // Shares the acceptance criteria name (table only).
    let mut served = latencies(base, is_read);
    let served_mean = stats::mean(
        &served
            .iter()
            .copied()
            .filter(|x| x.is_finite())
            .collect::<Vec<_>>(),
    );
    let miss_share = n_miss as f64 / (n_hit + n_miss).max(1) as f64;
    let kernel = t.mean_us("core.search").0 * miss_share;
    report.note("served_mean_us", served_mean, "us", served.len());
    report.note(
        "served_p50_us",
        stats::median(&mut served),
        "us",
        n_hit + n_miss,
    );
    report.note(
        "kernel_share_of_served_mean",
        kernel / served_mean,
        "ratio",
        n_miss,
    );
    if shape.mix == Mix::Churn {
        let mut fresh = latencies(base, |o| o.class() == Some(Class::Fresh));
        let p50 = stats::median(&mut fresh);
        let mirror = t.mean_us("layout.mirror_build").0;
        let choose = t.mean_us("plan.choose_cold").0;
        for tier in ["store.rebuild_patch", "store.rebuild_copy"] {
            let share = (t.mean_us(tier).0 + mirror) / p50;
            report.note(
                &format!("fresh_read_share.{tier}+mirror"),
                share,
                "ratio",
                fresh.len(),
            );
        }
        report.note(
            "fresh_read_share.choose_cold",
            choose / p50,
            "ratio",
            fresh.len(),
        );
        report.note("fresh_read_p50_us", p50, "us", fresh.len());
    }
    for (name, (n, mean, own)) in t.summary() {
        report.note(&format!("span.{name}.mean_us"), mean, "us", n);
        report.note(&format!("span.{name}.self_us"), own, "us", n);
    }
    l.into_report(report);
    write_spans(args, &t);
    Ok(())
}

/// Price one mutation on the twin stores: the in-place patch tier where
/// it applies (a `del` restores the slot counts of the snapshot two
/// epochs back, which nothing pins; an `add` does not, and its unpinned
/// rebuild is only kept in the span file), and
/// the copy-forward tier with the two previous snapshots pinned; then
/// the mirror build and the cold component index on the new epoch.
fn price_tiers(t: &mut Tracer, tiers: &mut Tiers, add: bool, a: u32, b: u32, req: u64) {
    let root = t.begin("probe", ROOT, req);
    for store in [&tiers.patch, &tiers.copy] {
        if add {
            store.insert_edge(a, b);
        } else {
            store.remove_edge(a, b);
        }
    }
    let name = if add {
        "store.rebuild_unpinned"
    } else {
        "store.rebuild_patch"
    };
    let fresh = t.span(name, root, req, || tiers.patch.snapshot());
    let pinned = t.span("store.rebuild_copy", root, req, || tiers.copy.snapshot());
    tiers.pinned.push_back(pinned);
    if tiers.pinned.len() > 2 {
        tiers.pinned.pop_front();
    }
    t.span("layout.mirror_build", root, req, || {
        ComputeGraph::build(fresh.graph(), LAYOUT).is_some()
    });
    t.span("plan.choose_cold", root, req, || {
        QueryPlan::choose(PlanMode::Auto, &fresh).skew
    });
    t.end(root);
}

/// A numeric member of the daemon's per-connection summary line.
fn summary_field(line: &str, key: &str) -> Option<f64> {
    Json::parse(line).ok()?.get(key)?.as_f64()
}

/// Spans are kept in memory during the run and written out at its end.
pub fn write_spans(args: &Args, t: &Tracer) {
    let path = args
        .work
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = t.write_jsonl(&path) {
        eprintln!("e2ebench: cannot write {}: {e}", path.display());
    }
}

//! `batch-weighted`: `dmcs --graph G --weighted --queries Q --threads 2
//! --plan auto` over a weighted giant-plus-villages graph. The only
//! workload that reaches the batch scheduler, the planner's skew veto,
//! the weighted kernel and weighted Steiner seeding.
//!
//! A run alternates one-query batches (median = `setup_s`) with runs of
//! the full query file for `--seconds`, checks every answer, and
//! deep-checks a sample against an in-process weighted session.

use crate::check::compare;
use crate::daemon::{children_peak_rss_mb, run_batch};
use crate::inputs;
use crate::layers::{write_spans, Layers};
use crate::serve::Loaded;
use crate::trace::{Tracer, ROOT};
use crate::{stats, Args, Report};
use dmcs_engine::output::{response_json, Json};
use dmcs_engine::{AlgoSpec, Engine, PlanMode, QueryPlan, QueryRequest, Session};
use dmcs_graph::traversal::same_component_with_workspace;
use dmcs_graph::view::QueryWorkspace;
use dmcs_graph::Snapshot;
use std::path::Path;
use std::time::Instant;

/// Queries per batch file (about 0.4 s of work on the reference machine).
pub const QUERIES: usize = 48;
/// At least this many one-query setups, each followed by
/// `BATCHES_PER_SETUP` full batches.
const SETUP_RUNS: usize = 5;
const BATCHES_PER_SETUP: usize = 3;
/// Every `DEEP_EVERY`-th answer of the first batch is deep-checked.
const DEEP_EVERY: usize = 6;
/// In-process batch repetitions in traced mode.
const TRACED_RUNS: usize = 3;

fn batch_args(graph: &Path, queries: &Path) -> Vec<String> {
    [
        "--graph",
        &graph.display().to_string(),
        "--weighted",
        "--queries",
        &queries.display().to_string(),
        "--threads",
        "2",
        "--plan",
        "auto",
        "--format",
        "json",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn write_queries(path: &Path, queries: &[Vec<u64>]) -> Result<(), String> {
    let text: String = queries
        .iter()
        .map(|q| q.iter().map(u64::to_string).collect::<Vec<_>>().join(",") + "\n")
        .collect();
    std::fs::write(path, text).map_err(|e| e.to_string())
}

/// Check one batch's JSON-lines output: one ok response per query, in
/// submission order, each holding its query nodes, then a summary.
/// Returns the parsed responses and the number of bad answers.
fn check_output(out: &str, queries: &[Vec<u64>], rejects: &mut Vec<String>) -> (Vec<Json>, usize) {
    let lines: Vec<&str> = out.lines().collect();
    let mut bad = 0;
    let mut parsed = Vec::with_capacity(queries.len());
    let mut reject = |why: String, bad: &mut usize| {
        *bad += 1;
        if rejects.len() < 5 {
            rejects.push(why);
        }
    };
    for (i, q) in queries.iter().enumerate() {
        let Some(line) = lines.get(i) else {
            reject(format!("batch: no answer for query {i}"), &mut bad);
            continue;
        };
        let reply = match Json::parse(line) {
            Ok(r) => r,
            Err(e) => {
                reject(format!("batch query {i}: unparsable: {e}"), &mut bad);
                continue;
            }
        };
        let mut want = q.clone();
        want.sort_unstable();
        let echo: Option<Vec<u64>> = reply
            .get("query")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_u64).collect());
        let community: Vec<u64> = reply
            .get("community")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_u64).collect())
            .unwrap_or_default();
        let ok = reply.get("type").and_then(Json::as_str) == Some("response")
            && reply.get("ok").and_then(Json::as_bool) == Some(true)
            && echo.as_ref() == Some(&want)
            && want.iter().all(|v| community.binary_search(v).is_ok())
            && reply.get("size").and_then(Json::as_u64) == Some(community.len() as u64);
        if !ok {
            reject(
                format!(
                    "batch query {i}: bad answer: {}",
                    &line[..line.len().min(160)]
                ),
                &mut bad,
            );
        }
        parsed.push(reply);
    }
    let summary_ok = lines
        .get(queries.len())
        .and_then(|l| Json::parse(l).ok())
        .is_some_and(|s| {
            s.get("type").and_then(Json::as_str) == Some("summary")
                && s.get("ok").and_then(Json::as_u64) == Some(queries.len() as u64)
        });
    if !summary_ok || lines.len() != queries.len() + 1 {
        reject("batch: missing or wrong summary line".into(), &mut bad);
    }
    (parsed, bad)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let graph_path = args.work.join("giant50k-weighted.txt");
    inputs::write_weighted_edges(&graph_path, &inputs::giant_villages_edges(args.seed))
        .map_err(|e| e.to_string())?;
    let file = std::fs::File::open(&graph_path).map_err(|e| e.to_string())?;
    let (wg, original) =
        dmcs_graph::io::read_weighted_edge_list(file).map_err(|e| e.to_string())?;
    let g = Loaded::new(graph_path, wg.into_graph(), original);
    let queries = inputs::batch_queries(args.seed, QUERIES);
    let qpath = args.work.join("queries.txt");
    let one_path = args.work.join("one-query.txt");
    write_queries(&qpath, &queries)?;
    write_queries(&one_path, &queries[..1])?;

    let mut report = Report::default();
    let mut setups = Vec::new();
    let started = Instant::now();
    let budget = if args.trace { 0.3 } else { 1.0 } * args.seconds;
    let mut walls = Vec::new();
    let mut first: Option<Vec<Json>> = None;
    // One-query setups interleave with full batches, so both sample the
    // whole run (the host's speed drifts).
    while setups.len() < SETUP_RUNS || started.elapsed().as_secs_f64() < budget {
        let (wall, out) = run_batch(&args.dmcs, &batch_args(&g.path, &one_path))?;
        let (_, bad) = check_output(&out, &queries[..1], &mut report.rejects);
        report.attempted += 1;
        report.failed += bad;
        setups.push(wall);
        for _ in 0..BATCHES_PER_SETUP {
            let (wall, out) = run_batch(&args.dmcs, &batch_args(&g.path, &qpath))?;
            let (answers, bad) = check_output(&out, &queries, &mut report.rejects);
            report.attempted += queries.len();
            report.failed += bad;
            walls.push(wall);
            // Every batch must give the first one's answers exactly.
            match &first {
                None => first = Some(answers),
                Some(f) => {
                    for (i, (a, b)) in answers.iter().zip(f).enumerate() {
                        if let Err(why) = compare(a, b) {
                            report.failed += 1;
                            if report.rejects.len() < 5 {
                                report
                                    .rejects
                                    .push(format!("batch query {i}: {why} between runs"));
                            }
                        }
                    }
                }
            }
        }
    }
    let rss = children_peak_rss_mb();
    report.failed += deep_check(
        &g,
        &queries,
        first.as_deref().unwrap_or(&[]),
        &mut report.rejects,
    )?;

    let mut qps: Vec<f64> = walls.iter().map(|w| queries.len() as f64 / w).collect();
    let mut wall_us: Vec<f64> = walls.iter().map(|w| w * 1e6).collect();
    if args.trace {
        traced_layers(args, &g, &queries, &mut report)?;
        return Ok(report);
    }
    let (q, tail) = stats::tail(&mut wall_us.clone());
    report.put(
        "setup_s",
        stats::median(&mut setups.clone()),
        "s",
        setups.len(),
    );
    report.put("rss_peak_mb", rss, "MB", 1);
    report.put(
        "throughput_qps",
        stats::median(&mut qps),
        "1/s",
        walls.len(),
    );
    report.put(
        "latency_p50_us",
        stats::median(&mut wall_us),
        "us",
        walls.len(),
    );
    report.note(
        "batch_qps",
        stats::median(&mut qps.clone()),
        "1/s",
        walls.len(),
    );
    report.note(
        &format!("batch_wall_p{:.0}_us", q * 100.0),
        tail,
        "us",
        walls.len(),
    );
    report.note("queries_per_batch", queries.len() as f64, "count", 1);
    Ok(report)
}

/// Compare every `DEEP_EVERY`-th answer with an in-process weighted
/// session on the same graph. Returns the number of mismatches.
fn deep_check(
    g: &Loaded,
    queries: &[Vec<u64>],
    answers: &[Json],
    rejects: &mut Vec<String>,
) -> Result<usize, String> {
    let spec = AlgoSpec::new("fpa").weighted();
    let mut session =
        Session::new(Snapshot::freeze(g.graph.clone()), &spec).map_err(|e| e.to_string())?;
    let mut bad = 0;
    for (i, (q, answer)) in queries.iter().zip(answers).enumerate().step_by(DEEP_EVERY) {
        let resp = session
            .query(&QueryRequest::new(g.to_dense(q)))
            .map_err(|e| e.to_string())?;
        let expected = Json::parse(&response_json(&resp, Some(&g.original)).render())
            .map_err(|e| e.to_string())?;
        if let Err(why) = compare(answer, &expected) {
            bad += 1;
            rejects.push(format!("batch query {i}: deep check: {why}"));
        }
    }
    Ok(bad)
}

/// Per-layer figures: the same batch through `Engine::run_batch_planned`
/// in process, plus the weighted kernel, the validation BFS, the cold
/// planner and rendering per query.
fn traced_layers(
    args: &Args,
    g: &Loaded,
    queries: &[Vec<u64>],
    report: &mut Report,
) -> Result<(), String> {
    let spec = AlgoSpec::new("fpa").weighted();
    let requests: Vec<QueryRequest> = queries
        .iter()
        .map(|q| QueryRequest::new(g.to_dense(q)))
        .collect();
    let mut t = Tracer::new();
    let mut last = None;
    for rep in 0..TRACED_RUNS {
        let engine = Engine::from_graph(g.graph.clone());
        let r = t.span("batch.run", ROOT, rep as u64, || {
            engine.run_batch_planned(&spec, &requests, 2, PlanMode::Auto)
        });
        last = Some(r.map_err(|e| e.to_string())?);
        let fresh = Snapshot::freeze(g.graph.clone());
        t.span("plan.choose_cold", ROOT, rep as u64, || {
            QueryPlan::choose(PlanMode::Auto, &fresh).skew
        });
    }
    let batch = last.expect("at least one traced batch");
    let algo = spec.build().map_err(|e| e.to_string())?;
    // The per-query probes run four times: an untraced warm-up, then
    // untraced, traced, untraced. The traced run gives the spans; its
    // wall time over the mean of the two untraced runs beside it is what
    // tracing costs where it runs (the `dmcs` process itself is never
    // traced).
    let probes = |t: &mut Tracer| -> Vec<f64> {
        let (mut ws, mut visit) = (QueryWorkspace::new(), QueryWorkspace::new());
        let mut bytes = Vec::new();
        for (i, (req, resp)) in requests.iter().zip(&batch.responses).enumerate() {
            let root = t.begin("probe", ROOT, i as u64);
            t.span("core.search_weighted", root, i as u64, || {
                algo.search_with_workspace(&g.graph, &req.nodes, &mut ws)
                    .is_ok()
            });
            t.span("traversal.validate", root, i as u64, || {
                same_component_with_workspace(&g.graph, &req.nodes, &mut visit)
            });
            let line = t.span("output.render", root, i as u64, || {
                response_json(resp, Some(&g.original)).render()
            });
            t.end(root);
            bytes.push(line.len() as f64 + 1.0);
        }
        bytes
    };
    let mut walls = [0.0f64; 4];
    let mut bytes = Vec::new();
    for (run, wall) in walls.iter_mut().enumerate() {
        let mut off = Tracer::off();
        let tracer = if run == 2 { &mut t } else { &mut off };
        let started = Instant::now();
        let got = probes(tracer);
        *wall = started.elapsed().as_secs_f64();
        if run == 2 {
            bytes = got;
        }
    }
    let overhead = walls[2] / ((walls[1] + walls[3]) / 2.0);

    let mut l = Layers::new();
    let (run_us, runs) = t.mean_us("batch.run");
    l.set("batch.run_s", run_us / 1e6, runs);
    l.set("batch.groups", batch.groups as f64, 1);
    l.set("batch.shared_bfs_reuses", batch.shared_bfs_reuses as f64, 1);
    l.set("batch.skew", batch.skew, 1);
    l.set_mean_of("plan.choose_cold_us", &t, "plan.choose_cold");
    l.set_mean_of("core.search_weighted_us", &t, "core.search_weighted");
    l.set_mean_of("traversal.validate_us", &t, "traversal.validate");
    l.set_mean_of("output.render_us", &t, "output.render");
    l.set("output.reply_bytes", stats::mean(&bytes), bytes.len());
    l.set("trace.overhead_ratio", overhead, 3);
    l.set(
        "error_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.attempted,
    );
    for (name, (n, mean, own)) in t.summary() {
        report.note(&format!("span.{name}.mean_us"), mean, "us", n);
        report.note(&format!("span.{name}.self_us"), own, "us", n);
    }
    l.into_report(report);
    write_spans(args, &t);
    Ok(())
}

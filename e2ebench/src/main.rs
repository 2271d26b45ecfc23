//! End-to-end benchmark of `dmcs`: seeded inputs, the real binary
//! driven over a unix socket (or as a batch process), every reply
//! checked, and a traced in-process replay that splits the served time
//! into layer shares. See `run.py` for the entry point and
//! `PROVENANCE.json` for why each workload exists.
//!
//! ```text
//! dmcs-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               --dmcs <path to dmcs> --work <scratch dir>
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics untraced, per-layer
//! metrics traced). The lines before it are a readable table.

mod batch;
mod check;
mod daemon;
mod inputs;
mod layers;
mod loadgen;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dmcs: PathBuf,
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        dmcs: PathBuf::from(get("--dmcs")?),
        work: PathBuf::from(get("--work")?),
    })
}

/// One reported metric: name, value, unit and the samples behind it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// The contract metrics of this run (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Further figures printed in the table only.
    pub extra: Vec<Metric>,
    pub rejects: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("e2ebench: cannot create {}: {e}", args.work.display());
        std::process::exit(2);
    }
    let result = match args.workload.as_str() {
        "serve-cold" | "serve-hot" | "serve-churn" => serve::run(&args),
        "batch-weighted" => batch::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let mode = if args.trace {
        "traced per-layer"
    } else {
        "end-to-end"
    };
    println!("# {} seed {} ({mode})", args.workload, args.seed);
    for m in report.metrics.iter().chain(&report.extra) {
        println!(
            "{:<34} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if !args.trace {
        // Traced runs carry error_ratio among their per-layer metrics.
        let error_ratio = report.failed as f64 / report.attempted.max(1) as f64;
        println!(
            "{:<34} {:>16.6} {:<6} n={}",
            "error_ratio", error_ratio, "ratio", report.attempted
        );
    }
    for r in &report.rejects {
        println!("# rejected {r}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}

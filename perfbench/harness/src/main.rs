//! The XSDF benchmark harness.
//!
//! ```text
//! perfbench --workload <batch-warm|batch-cold|serve-open> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke] [--xsdf <path>] [--out <dir>]
//! ```
//!
//! Every input is a document of the seeded `corpus::stream`; the system
//! under test only ever sees the generated XML. With `--trace 0` the run
//! reports the end-to-end metrics; with `--trace 1` it alternates untraced
//! and traced phases and reports the per-layer metrics (see `trace.rs`).
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Why each workload
//! exists and which layer metric should move which end-to-end metric is
//! written down in `perfbench/README.md`.

mod batch;
mod check;
mod serve;
mod sys;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

/// Stream position where every workload's timed inputs start. Warm-up
/// slices use positions below it, so timed documents are always fresh.
pub const TIMED_BASE: u64 = 1_000_000;

/// Run sizes. `--smoke` shrinks every count so a full pass over all
/// workloads and both modes finishes in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Documents in the batch-warm warm-up slice.
    pub warm_docs: usize,
    /// Documents per `BatchEngine::run` call in the timed phase.
    pub chunk: usize,
    /// Timed documents compared with the serial reference and scored
    /// against the gold senses.
    pub sample: usize,
    /// Warm-up requests sent to each serve-open server.
    pub warm_requests: usize,
    /// Open-loop arrival rate of serve-open, documents per second.
    pub rate: f64,
}

impl Plan {
    fn new(smoke: bool) -> Self {
        if smoke {
            Plan {
                setups: 1,
                warm_docs: 64,
                chunk: 32,
                sample: 32,
                warm_requests: 32,
                rate: 100.0,
            }
        } else {
            Plan {
                setups: 5,
                warm_docs: 1024,
                chunk: 256,
                sample: 1000,
                warm_requests: 600,
                rate: 320.0,
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchWarm,
    BatchCold,
    ServeOpen,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "batch-warm" => Some(Self::BatchWarm),
            "batch-cold" => Some(Self::BatchCold),
            "serve-open" => Some(Self::ServeOpen),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::BatchWarm => "batch-warm",
            Self::BatchCold => "batch-cold",
            Self::ServeOpen => "serve-open",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub plan: Plan,
    /// The `xsdf` binary serve-open starts.
    pub xsdf: Option<PathBuf>,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let required = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = required("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = required("--seed")?;
    let seed = seed.parse().map_err(|_| format!("bad --seed {seed:?}"))?;
    let seconds = required("--seconds")?;
    let seconds: f64 = seconds
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0 && *s <= 3600.0)
        .ok_or_else(|| format!("bad --seconds {seconds:?}"))?;
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        plan: Plan::new(argv.iter().any(|a| a == "--smoke")),
        xsdf: value("--xsdf").map(PathBuf::from),
        out: PathBuf::from(value("--out").unwrap_or("perfbench/out")),
    })
}

/// What one run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when an output check failed or the run is invalid.
    pub correct: bool,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no infinity; a latency of failed requests is
                // reported as the largest finite number.
                let value = if value.is_finite() { *value } else { f64::MAX };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a non-empty sample (the mean of the middle two for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of durations, in seconds.
pub fn median_s(values: &[Duration]) -> f64 {
    median(&values.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// Worker count of the batch-warm and serve-open workloads: one per core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} cores {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        nproc()
    );
    let outcome = match args.workload {
        Workload::BatchWarm | Workload::BatchCold => batch::run(&args),
        Workload::ServeOpen => serve::run(&args),
    };
    match outcome {
        Ok(outcome) => println!("{}", outcome.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

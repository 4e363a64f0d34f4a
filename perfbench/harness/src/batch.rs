//! The batch workloads.
//!
//! * `batch-warm`: one resident `BatchEngine` with one worker per core and
//!   the default concept-based configuration, its cache warmed during
//!   set-up on a separate slice of the stream; the timed phase runs fresh
//!   positions through `BatchEngine::run` in chunks.
//! * `batch-cold`: a new single-worker engine (empty `SharedCache`) for
//!   every session of [`SESSION`] documents, with the Eq. 13 combined
//!   process, as each `xsdf batch` or `disambiguate` run gets. One session
//!   runs per core at a time; sessions share nothing but the network, so
//!   every count repeats exactly, and using every core averages out noise
//!   that strikes one core of the host at a time.
//!
//! Only `BatchEngine::run` (and, for batch-cold, the engine construction
//! before it) is timed; generating the next chunk of documents is not.
//! Both workloads run the engine with its own per-document spans on (as
//! `xsdf serve` does for every request): they are the only exact source of
//! per-document latency.

use std::time::{Duration, Instant};

use corpus::stream::document_at;
use corpus::AnnotatedDocument;
use runtime::{BatchEngine, BatchReport, XsdfError};
use semnet::SemanticNetwork;
use xsdf::{DisambiguationProcess, DisambiguationResult, Xsdf, XsdfConfig};

use crate::check::{Reference, Tally};
use crate::trace::{self, parallel_map, Counts, Replay};
use crate::{median, median_s, nproc, sys, Args, Outcome, Workload, TIMED_BASE};

/// Documents per batch-cold session, each on a fresh engine.
const SESSION: usize = 32;

/// Traced chunks whose counts the per-layer count metrics cover, so they
/// repeat exactly for a given seed however long the run is.
const COUNTED_CHUNKS: usize = 2;

/// The pipeline configuration of a workload.
pub fn config(workload: Workload) -> XsdfConfig {
    match workload {
        Workload::BatchCold => XsdfConfig {
            process: DisambiguationProcess::Combined {
                concept: 0.5,
                context: 0.5,
            },
            ..XsdfConfig::default()
        },
        Workload::BatchWarm | Workload::ServeOpen => XsdfConfig::default(),
    }
}

/// `count` stream documents from position `first`, with their XML.
pub fn generate(
    sn: &SemanticNetwork,
    seed: u64,
    first: u64,
    count: usize,
) -> (Vec<AnnotatedDocument>, Vec<String>) {
    (first..first + count as u64)
        .map(|pos| {
            let doc = document_at(sn, seed, pos);
            let xml = xmltree::serialize::to_string_compact(&doc.doc);
            (doc, xml)
        })
        .unzip()
}

fn refs(xml: &[String]) -> Vec<&str> {
    xml.iter().map(String::as_str).collect()
}

type DocResult = Result<DisambiguationResult, XsdfError>;

/// The system under test of one batch workload.
enum Engine<'sn> {
    /// batch-warm: one resident engine whose cache outlives every run.
    Warm(BatchEngine<'sn>),
    /// batch-cold: a fresh single-worker engine per session.
    Cold(Xsdf<'sn>),
}

impl<'sn> Engine<'sn> {
    fn new(workload: Workload, sn: &'sn SemanticNetwork) -> Self {
        match workload {
            Workload::BatchCold => Engine::Cold(Xsdf::new(sn, config(workload))),
            Workload::BatchWarm | Workload::ServeOpen => Engine::Warm(
                BatchEngine::new(sn, config(workload))
                    .threads(nproc())
                    .tracing(true),
            ),
        }
    }

    /// Runs a chunk through `BatchEngine::run`; batch-cold splits it into
    /// sessions, each on a new engine.
    fn run(&self, docs: &[&str]) -> (Vec<DocResult>, Vec<BatchReport>) {
        match self {
            Engine::Warm(engine) => {
                let mut report = engine.run(docs);
                (std::mem::take(&mut report.results), vec![report])
            }
            Engine::Cold(xsdf) => {
                let parts: Vec<&[&str]> = docs.chunks(SESSION).collect();
                let mut reports = parallel_map(parts.len(), nproc(), |i| {
                    BatchEngine::new(xsdf.network(), xsdf.config().clone())
                        .threads(1)
                        .tracing(true)
                        .run(parts[i])
                });
                let results = reports
                    .iter_mut()
                    .flat_map(|r| std::mem::take(&mut r.results))
                    .collect();
                (results, reports)
            }
        }
    }

    /// The traced counterpart of [`Engine::run`].
    fn replay(&self, replay: &mut Replay, docs: &[&str], first: u64) {
        match self {
            Engine::Warm(engine) => replay.run(engine.xsdf(), docs, first, nproc(), engine.cache()),
            Engine::Cold(xsdf) => {
                let sessions: Vec<(u64, &[&str])> = docs
                    .chunks(SESSION)
                    .enumerate()
                    .map(|(i, part)| (first + (i * SESSION) as u64, part))
                    .collect();
                replay.run_sessions(xsdf, &sessions, nproc());
            }
        }
    }
}

/// What the untraced chunks of a run measured.
#[derive(Default)]
struct Untraced {
    docs: u64,
    failed: u64,
    wall: Duration,
    cpu: Duration,
    chunk_secs: Vec<f64>,
    /// Per-document latency from the engine's spans, in milliseconds.
    doc_ms: Vec<f64>,
    /// Summed stage time and worker-seconds of wall time, for the busy ratio.
    stage_time: Duration,
    worker_time: Duration,
}

impl Untraced {
    /// Runs one chunk, offers its documents to the output check, and
    /// returns when the `run` call started and ended.
    fn chunk(
        &mut self,
        engine: &Engine,
        docs: Vec<AnnotatedDocument>,
        xml: Vec<String>,
        sample: &mut Sample,
    ) -> Result<(Instant, Instant), String> {
        let refs = refs(&xml);
        let cpu = sys::cpu_time("self")?;
        let start = Instant::now();
        let (results, reports) = engine.run(&refs);
        let end = Instant::now();
        let took = end - start;
        self.cpu += sys::cpu_time("self")?.saturating_sub(cpu);
        self.wall += took;
        self.docs += refs.len() as u64;
        self.chunk_secs.push(took.as_secs_f64());
        for report in &reports {
            let spans = report.trace.as_ref().map_or(&[][..], |t| &t.spans[..]);
            self.doc_ms.extend(spans.iter().map(|s| ms(s.duration())));
            let m = &report.metrics;
            self.failed += m.failed_documents as u64;
            self.stage_time += m.stages.total();
            self.worker_time += m.wall_clock * m.threads as u32;
        }
        sample.offer(docs, xml, results);
        Ok((start, end))
    }
}

/// The first `Plan::sample` untraced documents, kept for the output check.
struct Sample {
    wanted: usize,
    kept: Vec<(AnnotatedDocument, String, DocResult)>,
}

impl Sample {
    fn new(wanted: usize) -> Self {
        Self {
            wanted,
            kept: Vec::new(),
        }
    }

    fn full(&self) -> bool {
        self.kept.len() >= self.wanted
    }

    fn offer(&mut self, docs: Vec<AnnotatedDocument>, xml: Vec<String>, results: Vec<DocResult>) {
        let room = self.wanted.saturating_sub(self.kept.len());
        self.kept.extend(
            docs.into_iter()
                .zip(xml)
                .zip(results)
                .map(|((d, x), r)| (d, x, r))
                .take(room),
        );
    }

    /// Compares every kept result with the serial reference. A failed or
    /// mismatched document counts as failed.
    fn check(&self, sn: &SemanticNetwork, config: XsdfConfig) -> Result<Tally, String> {
        let reference = Reference::new(sn, config);
        let mut tally = Tally::default();
        for (doc, xml, result) in &self.kept {
            match result {
                Ok(got) => tally.check(&reference, doc, xml, got)?,
                Err(_) => tally.mismatched += 1,
            }
        }
        tally.report();
        Ok(tally)
    }
}

/// Warms an engine on `warm_xml`, one chunk at a time.
fn warm_up(engine: &Engine, warm_xml: &[String], chunk: usize) -> Result<(), String> {
    for part in warm_xml.chunks(chunk) {
        let (results, _) = engine.run(&refs(part));
        if results.iter().any(Result::is_err) {
            return Err("a warm-up document failed".into());
        }
    }
    Ok(())
}

/// The traced run of serve-open: an in-process engine, warmed like the
/// server on its warm-up documents, replays the window's positions.
pub fn replay_resident(
    args: &Args,
    gen: &SemanticNetwork,
    warm_xml: &[String],
    server: trace::Server,
    mut replay: Replay,
) -> Result<Outcome, String> {
    let t = Instant::now();
    let sn = semnet::builtin::build_mini_wordnet();
    replay.record("semnet.load", t, Instant::now(), None, 0);
    let load_s = t.elapsed().as_secs_f64();
    let engine = Engine::new(Workload::ServeOpen, &sn);
    warm_up(&engine, warm_xml, args.plan.chunk)?;
    traced(args, gen, &engine, load_s, server, replay)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = args.plan;
    let gen = semnet::mini_wordnet();
    let warm_docs = match args.workload {
        Workload::BatchCold => nproc() * SESSION,
        Workload::BatchWarm | Workload::ServeOpen => plan.warm_docs,
    };
    let (_, warm_xml) = generate(gen, args.seed, 0, warm_docs);

    // Each set-up loads a fresh network, starts the engine and warms it;
    // the last one is kept for the timed phase.
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut replay = Replay::new(Instant::now(), plan.chunk as u64);
    for i in 0..plan.setups {
        let t = Instant::now();
        let sn = semnet::builtin::build_mini_wordnet();
        loads.push(t.elapsed());
        replay.record("semnet.load", t, t + loads[i], None, 0);
        let engine = Engine::new(args.workload, &sn);
        warm_up(&engine, &warm_xml, plan.chunk)?;
        setups.push(t.elapsed());
        if i + 1 < plan.setups {
            continue;
        }
        println!(
            "set-up: {:.3?}; network load median {:.2} ms",
            setups,
            median_s(&loads) * 1e3
        );
        return if args.trace {
            traced(
                args,
                gen,
                &engine,
                median_s(&loads),
                trace::Server::default(),
                replay,
            )
        } else {
            untraced(args, gen, &engine, median_s(&setups))
        };
    }
    Err("no set-up ran".into())
}

fn untraced(
    args: &Args,
    gen: &SemanticNetwork,
    engine: &Engine,
    setup_s: f64,
) -> Result<Outcome, String> {
    let plan = args.plan;
    let mut sample = Sample::new(plan.sample);
    let mut run = Untraced::default();
    let mut pos = TIMED_BASE;
    while run.wall.as_secs_f64() < args.seconds || !sample.full() {
        let (docs, xml) = generate(gen, args.seed, pos, plan.chunk);
        pos += plan.chunk as u64;
        run.chunk(engine, docs, xml, &mut sample)?;
    }
    let tally = sample.check(gen, config(args.workload))?;

    let chunk_rate: Vec<f64> = run
        .chunk_secs
        .iter()
        .map(|s| plan.chunk as f64 / s)
        .collect();
    let q = quartiles(&chunk_rate);
    println!(
        "timed: {} document(s) in {} chunk(s), {:.3} s; chunk docs/s quartiles \
         {:.1} {:.1} {:.1}; latency samples {}",
        run.docs,
        run.chunk_secs.len(),
        run.wall.as_secs_f64(),
        q[0],
        q[1],
        q[2],
        run.doc_ms.len()
    );
    let mut out = Outcome {
        attempted: run.docs,
        failed: run.failed + tally.mismatched + tally.misaligned,
        ..Outcome::default()
    };
    out.correct = out.failed == 0 && tally.passed(plan.sample);
    out.metric("setup_s", setup_s, "s");
    out.metric(
        "docs_per_s",
        run.docs as f64 / run.wall.as_secs_f64(),
        "1/s",
    );
    out.metric(
        "cpu_ms_per_doc",
        run.cpu.as_secs_f64() * 1e3 / run.docs as f64,
        "ms",
    );
    out.metric("latency_p50_ms", nearest(&run.doc_ms, 0.50), "ms");
    out.metric("latency_p99_ms", nearest(&run.doc_ms, 0.99), "ms");
    out.metric("peak_rss_mb", sys::peak_rss_mb("self")?, "MiB");
    out.metric("sense_f1", tally.prf.f_value(), "ratio");
    Ok(out)
}

fn traced(
    args: &Args,
    gen: &SemanticNetwork,
    engine: &Engine,
    load_s: f64,
    server: trace::Server,
    mut replay: Replay,
) -> Result<Outcome, String> {
    let plan = args.plan;
    let mut sample = Sample::new(plan.sample);
    let mut run = Untraced::default();
    let mut counted: Option<Counts> = None;
    let mut pos = TIMED_BASE;
    let mut measured = Duration::ZERO;
    // Untraced and traced chunks alternate, so host noise hits both alike.
    for k in 0.. {
        if measured.as_secs_f64() >= args.seconds && sample.full() && counted.is_some() {
            break;
        }
        let (docs, xml) = generate(gen, args.seed, pos, plan.chunk);
        if k % 2 == 0 {
            let (start, end) = run.chunk(engine, docs, xml, &mut sample)?;
            replay.record("executor.run", start, end, None, pos);
            measured += end - start;
        } else {
            let before = replay.wall;
            engine.replay(&mut replay, &refs(&xml), pos);
            measured += replay.wall - before;
            if counted.is_none() && replay.counts.docs >= (COUNTED_CHUNKS * plan.chunk) as u64 {
                counted = Some(replay.counts.clone());
            }
        }
        pos += plan.chunk as u64;
    }
    let tally = sample.check(gen, config(args.workload))?;
    let counted = counted.expect("the loop runs until the counted chunks are traced");

    let mut out = Outcome {
        attempted: run.docs + replay.counts.docs,
        failed: run.failed + replay.counts.failed + tally.mismatched + tally.misaligned,
        ..Outcome::default()
    };
    out.correct = out.failed == 0 && tally.passed(plan.sample);
    let executor = trace::Executor {
        run_ms_per_chunk: median(&run.chunk_secs) * 1e3,
        worker_busy_ratio: run.stage_time.as_secs_f64() / run.worker_time.as_secs_f64(),
        untraced_s_per_doc: run.wall.as_secs_f64() / run.docs as f64,
    };
    trace::emit(
        &mut out,
        &trace::Layers {
            load_s,
            replay: &replay,
            counted: &counted,
            kernel_us: trace::kernel_us_per_pair(gen, &replay.missed),
            executor,
            server,
        },
    );
    let path = args.out.join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    trace::write_spans(&path, &replay.spans)?;
    println!(
        "traced {} document(s) on {} worker(s); {} span(s) written to {}",
        replay.counts.docs,
        nproc(),
        replay.spans.len(),
        path.display()
    );
    Ok(out)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q` quantile by nearest rank (0 for an empty sample).
pub fn nearest(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1]
}

/// First quartile, median and third quartile.
fn quartiles(values: &[f64]) -> [f64; 3] {
    [0.25, 0.5, 0.75].map(|q| nearest(values, q))
}

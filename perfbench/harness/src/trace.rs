//! The traced replay: documents run through each layer's public stage
//! functions, with spans recorded from outside around every call.
//!
//! Spans (name, start, end, parent, document) stay in memory and are
//! written out as JSON Lines when the run ends. The similarity cache is
//! wrapped in [`TracingCache`], which counts every lookup but times only
//! misses and stores: the interval from a missed lookup to the call that
//! stores its score (a similarity computed on a miss), the same for a
//! context vector (a vector build), and each store call. Timing each
//! ~50 ns hit would swamp what it measures.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use runtime::SharedCache;
use semnet::SemanticNetwork;
use semsim::{CombinedSimilarity, PairKey, SimilarityCache, SparseVector, VectorKey};
use xsdf::{Guard, Xsdf};

/// Parent index of a root span.
const ROOT: u32 = u32::MAX;

/// Spans of the similarity-cache layer. They are children of
/// `disambiguate`, the only stage that scores through the cache. Their
/// time is always summed, but the spans themselves are kept only for the
/// first traced documents: a batch-cold document has hundreds.
const LEAVES: [&str; 3] = ["semsim.miss", "semsim.vector_build", "cache.store"];

/// Missed pairs kept for replaying through each similarity kernel.
const KERNEL_PAIRS: usize = 20_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same list, or [`ROOT`].
    pub parent: u32,
    /// Stream position of the document (of the chunk's first document
    /// for `executor.run`, 0 for `semnet.load`).
    pub doc: u64,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// Counts kept at the layer boundaries.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub docs: u64,
    pub failed: u64,
    pub bytes: u64,
    pub nodes: u64,
    pub targets: u64,
    pub sense_pairs: u64,
    pub pruned: u64,
    pub lookups: u64,
    pub hits: u64,
    pub stores: u64,
    /// Distinct pair keys looked up, summed per document.
    pub distinct_pairs: u64,
    pub vector_lookups: u64,
    pub vector_hits: u64,
    pub vector_builds: u64,
}

impl Counts {
    fn merge(&mut self, o: &Counts) {
        self.docs += o.docs;
        self.failed += o.failed;
        self.bytes += o.bytes;
        self.nodes += o.nodes;
        self.targets += o.targets;
        self.sense_pairs += o.sense_pairs;
        self.pruned += o.pruned;
        self.lookups += o.lookups;
        self.hits += o.hits;
        self.stores += o.stores;
        self.distinct_pairs += o.distinct_pairs;
        self.vector_lookups += o.vector_lookups;
        self.vector_hits += o.vector_hits;
        self.vector_builds += o.vector_builds;
    }
}

/// One worker's trace state.
#[derive(Default)]
struct Recorder {
    counts: Counts,
    spans: Vec<Span>,
    /// The open span new child spans hang under.
    parent: u32,
    doc: u64,
    /// Pair keys the current document looked up; deduplicated when the
    /// document ends, outside every timed span.
    looked_up: Vec<PairKey>,
    missed: Vec<PairKey>,
    /// Summed time of each of [`LEAVES`].
    leaf_nanos: [u64; 3],
    /// Whether leaf spans are kept.
    keep_leaves: bool,
}

impl Recorder {
    fn leaf(&mut self, which: usize, start: u64, end: u64) {
        self.leaf_nanos[which] += end - start;
        if self.keep_leaves {
            self.spans.push(Span {
                name: LEAVES[which],
                start,
                end,
                parent: self.parent,
                doc: self.doc,
            });
        }
    }
}

/// A [`SimilarityCache`] over the engine's [`SharedCache`] that records
/// what the cache layer does for one worker.
pub struct TracingCache {
    inner: Arc<SharedCache>,
    epoch: Instant,
    miss_at: Cell<Option<u64>>,
    vector_miss_at: Cell<Option<u64>>,
    rec: RefCell<Recorder>,
}

impl TracingCache {
    fn new(inner: Arc<SharedCache>, epoch: Instant, keep_leaves: bool) -> Self {
        Self {
            inner,
            epoch,
            miss_at: Cell::new(None),
            vector_miss_at: Cell::new(None),
            rec: RefCell::new(Recorder {
                parent: ROOT,
                keep_leaves,
                ..Recorder::default()
            }),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records `store` as a `cache.store` leaf and, when a miss opened an
    /// interval, the computation before it as leaf `computed`.
    fn timed_store(&self, computed: usize, opened: Option<u64>, store: impl FnOnce()) {
        let at = self.now();
        store();
        let end = self.now();
        let mut rec = self.rec.borrow_mut();
        if let Some(start) = opened {
            rec.leaf(computed, start, at);
        }
        rec.leaf(2, at, end);
    }
}

impl SimilarityCache for TracingCache {
    fn lookup(&self, key: PairKey) -> Option<f64> {
        let found = self.inner.lookup(key);
        let mut rec = self.rec.borrow_mut();
        rec.counts.lookups += 1;
        rec.looked_up.push(key);
        if found.is_some() {
            rec.counts.hits += 1;
        } else {
            rec.missed.push(key);
            drop(rec);
            self.miss_at.set(Some(self.now()));
        }
        found
    }

    fn store(&self, key: PairKey, value: f64) {
        self.rec.borrow_mut().counts.stores += 1;
        self.timed_store(0, self.miss_at.take(), || self.inner.store(key, value));
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn lookup_vector(&self, key: VectorKey) -> Option<Arc<SparseVector>> {
        let found = self.inner.lookup_vector(key);
        let mut rec = self.rec.borrow_mut();
        rec.counts.vector_lookups += 1;
        if found.is_some() {
            rec.counts.vector_hits += 1;
        } else {
            drop(rec);
            self.vector_miss_at.set(Some(self.now()));
        }
        found
    }

    fn store_vector(&self, key: VectorKey, value: Arc<SparseVector>) {
        self.rec.borrow_mut().counts.vector_builds += 1;
        self.timed_store(1, self.vector_miss_at.take(), || {
            self.inner.store_vector(key, value)
        });
    }

    fn vectors_len(&self) -> usize {
        self.inner.vectors_len()
    }
}

/// Everything a traced run recorded, merged over workers.
pub struct Replay {
    /// Time zero of every span.
    epoch: Instant,
    pub counts: Counts,
    pub spans: Vec<Span>,
    /// The first [`KERNEL_PAIRS`] missed pairs.
    pub missed: Vec<PairKey>,
    /// Summed time of each of [`LEAVES`].
    leaf_nanos: [u64; 3],
    /// Leaf spans are kept while fewer documents than this were traced.
    keep_leaves_for: u64,
    /// Wall time of the replay calls.
    pub wall: Duration,
}

impl Replay {
    /// A run whose spans count from `epoch`, keeping leaf spans for about
    /// the first `keep_leaves_for` traced documents.
    pub fn new(epoch: Instant, keep_leaves_for: u64) -> Self {
        Self {
            epoch,
            counts: Counts::default(),
            spans: Vec::new(),
            missed: Vec::new(),
            leaf_nanos: [0; 3],
            keep_leaves_for,
            wall: Duration::ZERO,
        }
    }

    /// Records a span measured outside the replay (a network load, an
    /// untraced `BatchEngine::run`, a client request) and returns its
    /// index, for children to name as their parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        doc: u64,
    ) -> u32 {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: parent.unwrap_or(ROOT),
            doc,
        });
        (self.spans.len() - 1) as u32
    }

    /// Runs `docs` (stream positions `first..`) through the four stage
    /// functions on `threads` workers sharing `cache`.
    pub fn run(
        &mut self,
        xsdf: &Xsdf,
        docs: &[&str],
        first: u64,
        threads: usize,
        cache: &Arc<SharedCache>,
    ) {
        let (started, epoch) = (Instant::now(), self.epoch);
        let keep = self.counts.docs < self.keep_leaves_for;
        let next = AtomicUsize::new(0);
        let recorders = parallel_map(threads.min(docs.len()), threads, |_| {
            let sim = CombinedSimilarity::with_cache(
                xsdf.config().similarity,
                TracingCache::new(Arc::clone(cache), epoch, keep),
            );
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(xml) = docs.get(i) else { break };
                trace_document(xsdf, xml, first + i as u64, &sim);
            }
            sim.cache().rec.take()
        });
        self.wall += started.elapsed();
        recorders.into_iter().for_each(|rec| self.absorb(rec));
    }

    /// Runs each session (first stream position, documents) on one worker
    /// with a cache of its own, `threads` sessions at a time.
    pub fn run_sessions(&mut self, xsdf: &Xsdf, sessions: &[(u64, &[&str])], threads: usize) {
        let (started, epoch) = (Instant::now(), self.epoch);
        let keep = self.counts.docs < self.keep_leaves_for;
        let recorders = parallel_map(sessions.len(), threads, |i| {
            let (first, docs) = sessions[i];
            let sim = CombinedSimilarity::with_cache(
                xsdf.config().similarity,
                TracingCache::new(Arc::new(SharedCache::new()), epoch, keep),
            );
            for (j, xml) in docs.iter().enumerate() {
                trace_document(xsdf, xml, first + j as u64, &sim);
            }
            sim.cache().rec.take()
        });
        self.wall += started.elapsed();
        recorders.into_iter().for_each(|rec| self.absorb(rec));
    }

    fn absorb(&mut self, rec: Recorder) {
        // Parent indices are per recorder; make them index the merged list.
        let base = self.spans.len() as u32;
        self.spans.extend(rec.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
        self.counts.merge(&rec.counts);
        let room = KERNEL_PAIRS.saturating_sub(self.missed.len());
        self.missed.extend(rec.missed.into_iter().take(room));
        for (total, n) in self.leaf_nanos.iter_mut().zip(rec.leaf_nanos) {
            *total += n;
        }
    }

    /// Summed duration of spans called `name`; for one of [`LEAVES`], of
    /// every such interval, kept as a span or not.
    pub fn nanos(&self, name: &str) -> u64 {
        match LEAVES.iter().position(|&leaf| leaf == name) {
            Some(which) => self.leaf_nanos[which],
            None => self
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::nanos)
                .sum(),
        }
    }

    /// Self time of `disambiguate`: its spans minus their leaf children.
    pub fn disambiguate_self_nanos(&self) -> u64 {
        let leaves: u64 = self.leaf_nanos.iter().sum();
        self.nanos("disambiguate").saturating_sub(leaves)
    }
}

/// Calls `f(0)`, …, `f(n - 1)` on up to `threads` scoped workers, each
/// taking the next index, and returns the results in index order.
pub fn parallel_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.clamp(1, n.max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break got;
                        }
                        got.push((i, f(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("benchmark worker panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, t)| t).collect()
}

/// One document through parse → preprocess → select → disambiguate, each
/// call inside its own span under the document's root span.
fn trace_document(xsdf: &Xsdf, xml: &str, pos: u64, sim: &CombinedSimilarity<TracingCache>) {
    let cache = sim.cache();
    let open = |name: &'static str, parent: u32| -> u32 {
        let mut rec = cache.rec.borrow_mut();
        let index = rec.spans.len() as u32;
        let start = cache.now();
        rec.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            doc: pos,
        });
        rec.parent = index;
        index
    };
    let shut = |index: u32| {
        let end = cache.now();
        let mut rec = cache.rec.borrow_mut();
        rec.spans[index as usize].end = end;
        rec.parent = rec.spans[index as usize].parent;
    };
    {
        let mut rec = cache.rec.borrow_mut();
        rec.doc = pos;
        rec.counts.docs += 1;
        rec.counts.bytes += xml.len() as u64;
    }
    let guard = Guard::unlimited();
    let root = open("doc", ROOT);
    let outcome = (|| -> Option<()> {
        let span = open("xmltree.parse", root);
        let doc = xmltree::parser::Parser::new(xml).parse_document();
        shut(span);
        let doc = doc.ok()?;
        let span = open("preprocess", root);
        let tree = xsdf.build_tree(&doc);
        shut(span);
        let span = open("select", root);
        let selected = xsdf.select_guarded(&tree, &guard);
        shut(span);
        let selected = selected.ok()?;
        let span = open("disambiguate", root);
        let result = xsdf.disambiguate_selected_guarded(&tree, &selected, sim, &guard);
        shut(span);
        result.ok()?;
        let mut rec = cache.rec.borrow_mut();
        rec.counts.nodes += tree.len() as u64;
        rec.counts.targets += selected.iter().filter(|a| a.selected).count() as u64;
        Some(())
    })();
    shut(root);
    let mut rec = cache.rec.borrow_mut();
    let rec = &mut *rec;
    rec.looked_up.sort_unstable();
    rec.looked_up.dedup();
    rec.counts.distinct_pairs += rec.looked_up.len() as u64;
    rec.looked_up.clear();
    rec.counts.sense_pairs += guard.pairs_scored();
    rec.counts.pruned += guard.candidates_pruned();
    if outcome.is_none() {
        rec.counts.failed += 1;
    }
}

/// Replays the missed pairs through each similarity kernel on its own and
/// returns the mean time per pair of Wu–Palmer, Lin and the extended gloss
/// overlap, in microseconds.
pub fn kernel_us_per_pair(sn: &SemanticNetwork, pairs: &[PairKey]) -> [f64; 3] {
    if pairs.is_empty() {
        return [0.0; 3];
    }
    let time = |kernel: fn(&SemanticNetwork, semnet::ConceptId, semnet::ConceptId) -> f64| {
        let t = Instant::now();
        let mut acc = 0.0;
        for &(_, a, b) in pairs {
            acc += kernel(sn, std::hint::black_box(a), std::hint::black_box(b));
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64() * 1e6 / pairs.len() as f64
    };
    [
        time(semsim::wu_palmer),
        time(semsim::lin),
        time(semsim::extended_gloss_overlap),
    ]
}

/// Writes the spans as JSON Lines: one object per span with its name,
/// start and end in nanoseconds, parent index (-1 for a root) and stream
/// position.
pub fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    }
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let parent = if s.parent == ROOT {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"doc\":{}}}",
            s.name, s.start, s.end, parent, s.doc
        )
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    out.flush()
        .map_err(|e| format!("cannot write {path:?}: {e}"))
}

/// What the untraced `BatchEngine::run` calls of a traced run measured.
pub struct Executor {
    pub run_ms_per_chunk: f64,
    /// Summed stage time ÷ (workers × run wall time).
    pub worker_busy_ratio: f64,
    /// Untraced wall time per document, the base of the tracing overhead.
    pub untraced_s_per_doc: f64,
}

/// Server-side numbers of serve-open (zero on the batch workloads, which
/// have no server).
#[derive(Default)]
pub struct Server {
    pub lag_p99_ms: f64,
    pub queue_wait_p99_ms: f64,
    pub service_p50_ms: f64,
    pub sheds: f64,
}

/// Inputs of the per-layer metrics.
pub struct Layers<'a> {
    /// Median network build time of the run's set-ups.
    pub load_s: f64,
    pub replay: &'a Replay,
    /// Counts over the fixed first traced documents.
    pub counted: &'a Counts,
    pub kernel_us: [f64; 3],
    pub executor: Executor,
    pub server: Server,
}

/// Adds every per-layer metric to `out`. Times are per traced document;
/// counts come from the fixed first traced documents so they repeat
/// exactly for a seed.
pub fn emit(out: &mut crate::Outcome, l: &Layers) {
    let r = l.replay;
    let c = l.counted;
    let docs = r.counts.docs.max(1) as f64;
    let us = |name: &str| r.nanos(name) as f64 / 1e3 / docs;
    let per = |n: u64| n as f64 / c.docs.max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.metric("semnet.load_ms", l.load_s * 1e3, "ms");
    out.metric("xmltree.parse_us_per_doc", us("xmltree.parse"), "us/doc");
    out.metric("xmltree.bytes_per_doc", per(c.bytes), "B/doc");
    out.metric("preprocess.us_per_doc", us("preprocess"), "us/doc");
    out.metric("preprocess.nodes_per_doc", per(c.nodes), "count/doc");
    out.metric("select.us_per_doc", us("select"), "us/doc");
    out.metric("select.targets_per_doc", per(c.targets), "count/doc");
    out.metric(
        "disambiguate.self_us_per_doc",
        r.disambiguate_self_nanos() as f64 / 1e3 / docs,
        "us/doc",
    );
    out.metric(
        "disambiguate.sense_pairs_per_doc",
        per(c.sense_pairs),
        "count/doc",
    );
    out.metric("disambiguate.pruned_per_doc", per(c.pruned), "count/doc");
    out.metric("cache.lookups_per_doc", per(c.lookups), "count/doc");
    out.metric(
        "cache.distinct_pairs_per_doc",
        per(c.distinct_pairs),
        "count/doc",
    );
    out.metric("cache.hit_ratio", ratio(c.hits, c.lookups), "ratio");
    out.metric("cache.stores_per_doc", per(c.stores), "count/doc");
    out.metric("cache.store_us_per_doc", us("cache.store"), "us/doc");
    out.metric(
        "cache.vector_lookups_per_doc",
        per(c.vector_lookups),
        "count/doc",
    );
    out.metric(
        "cache.vector_hit_ratio",
        ratio(c.vector_hits, c.vector_lookups),
        "ratio",
    );
    out.metric(
        "semsim.misses_per_doc",
        per(c.lookups - c.hits),
        "count/doc",
    );
    out.metric("semsim.miss_us_per_doc", us("semsim.miss"), "us/doc");
    out.metric("semsim.edge_us_per_pair", l.kernel_us[0], "us/pair");
    out.metric("semsim.node_us_per_pair", l.kernel_us[1], "us/pair");
    out.metric("semsim.gloss_us_per_pair", l.kernel_us[2], "us/pair");
    out.metric(
        "semsim.vector_builds_per_doc",
        per(c.vector_builds),
        "count/doc",
    );
    out.metric(
        "semsim.vector_build_us_per_doc",
        us("semsim.vector_build"),
        "us/doc",
    );
    out.metric(
        "executor.run_ms_per_chunk",
        l.executor.run_ms_per_chunk,
        "ms/chunk",
    );
    out.metric(
        "executor.worker_busy_ratio",
        l.executor.worker_busy_ratio,
        "ratio",
    );
    out.metric("client.lag_p99_ms", l.server.lag_p99_ms, "ms");
    out.metric("server.queue_wait_p99_ms", l.server.queue_wait_p99_ms, "ms");
    out.metric("server.service_p50_ms", l.server.service_p50_ms, "ms");
    out.metric("server.sheds", l.server.sheds, "count");
    let traced_s_per_doc = r.wall.as_secs_f64() / docs;
    out.metric(
        "trace.overhead_pct",
        (traced_s_per_doc / l.executor.untraced_s_per_doc - 1.0) * 100.0,
        "%",
    );
}

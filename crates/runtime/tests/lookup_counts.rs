//! Exact shared-cache traffic on a fixed slice of the seeded document
//! stream (seed 7, positions 0..64, one worker, unbounded cache).
//!
//! The per-document sense-pair memo lets each distinct pair reach the
//! shared cache at most once per document. These counts are exact and
//! machine-independent, so they gate lookup regressions where wall-clock
//! timings cannot. The memo removes only hits: misses and gloss-kernel
//! pairs are the counts the slice had before the memo existed.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::sync::Arc;

use runtime::{BatchEngine, SharedCache};
use semsim::{CombinedSimilarity, PairKey, SimilarityCache, SparseVector, VectorKey};
use xsdf::{Guard, Xsdf, XsdfConfig};

const SEED: u64 = 7;
const DOCS: u64 = 64;

/// Pair lookups that reach the shared cache over the slice: the sum of
/// each document's distinct pairs. Before the memo the slice made
/// 242,696 lookups.
const SHARED_LOOKUPS: u64 = 46_261;
/// Lookups that miss and run the similarity kernels, as before the memo.
const SHARED_MISSES: u64 = 12_001;
/// Pairs scored by the extended-gloss-overlap kernel (one per miss under
/// the default equal weights), as before the memo.
const GLOSS_PAIRS_SCORED: u64 = 12_001;

/// Forwards to a [`SharedCache`] and records every pair key looked up.
struct Counting {
    inner: Arc<SharedCache>,
    looked_up: RefCell<Vec<PairKey>>,
    misses: Cell<u64>,
}

impl SimilarityCache for Counting {
    fn lookup(&self, key: PairKey) -> Option<f64> {
        self.looked_up.borrow_mut().push(key);
        let found = self.inner.lookup(key);
        if found.is_none() {
            self.misses.set(self.misses.get() + 1);
        }
        found
    }

    fn store(&self, key: PairKey, value: f64) {
        self.inner.store(key, value)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn lookup_vector(&self, key: VectorKey) -> Option<Arc<SparseVector>> {
        self.inner.lookup_vector(key)
    }

    fn store_vector(&self, key: VectorKey, value: Arc<SparseVector>) {
        self.inner.store_vector(key, value)
    }

    fn vectors_len(&self) -> usize {
        self.inner.vectors_len()
    }
}

fn slice() -> Vec<String> {
    let sn = semnet::mini_wordnet();
    (0..DOCS)
        .map(|pos| {
            let doc = corpus::stream::document_at(sn, SEED, pos);
            xmltree::serialize::to_string_compact(&doc.doc)
        })
        .collect()
}

#[test]
fn each_pair_reaches_the_shared_cache_once_per_document() {
    let sn = semnet::mini_wordnet();
    let xsdf = Xsdf::new(sn, XsdfConfig::default());
    let sim = CombinedSimilarity::with_cache(
        xsdf.config().similarity,
        Counting {
            inner: Arc::new(SharedCache::new()),
            looked_up: RefCell::default(),
            misses: Cell::new(0),
        },
    );
    let mut lookups = 0;
    for (pos, xml) in slice().iter().enumerate() {
        let doc = xmltree::parse(xml).expect("stream documents parse");
        let tree = xsdf.build_tree(&doc);
        let selected = xsdf.select(&tree);
        xsdf.disambiguate_selected_guarded(&tree, &selected, &sim, &Guard::unlimited())
            .expect("an unlimited guard cannot trip");
        let keys = sim.cache().looked_up.take();
        let distinct: HashSet<PairKey> = keys.iter().copied().collect();
        assert_eq!(
            keys.len(),
            distinct.len(),
            "document {pos}: a pair reached the shared cache twice"
        );
        lookups += keys.len() as u64;
    }
    assert_eq!(
        lookups, SHARED_LOOKUPS,
        "shared-cache lookups over the slice"
    );
    assert_eq!(
        sim.cache().misses.get(),
        SHARED_MISSES,
        "shared-cache misses"
    );
    assert_eq!(sim.gloss_pairs_scored(), GLOSS_PAIRS_SCORED);
}

#[test]
fn batch_engine_reports_the_same_exact_counts() {
    let sn = semnet::mini_wordnet();
    let sources = slice();
    let docs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let report = BatchEngine::new(sn, XsdfConfig::default())
        .threads(1)
        .run(&docs);
    let m = &report.metrics;
    assert_eq!(m.failed_documents, 0);
    assert_eq!(m.cache_hits + m.cache_misses, SHARED_LOOKUPS);
    assert_eq!(m.cache_misses, SHARED_MISSES);
    assert_eq!(m.gloss_pairs_scored, GLOSS_PAIRS_SCORED);
}

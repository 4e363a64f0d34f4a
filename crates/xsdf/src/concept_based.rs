//! Concept-based semantic disambiguation (Section 3.5.1, Definition 8).
//!
//! For a candidate sense `s_p` of target node `x` with sphere context
//! `S_d(x)`:
//!
//! ```text
//!                      Σ_{x_i ∈ S_d(x)}  Max_j ( Sim(s_p, s_j^i) · w_{V_d(x)}(x_i.ℓ) )
//! Concept_Score(s_p) = ─────────────────────────────────────────────────────────────────
//!                                           |S_d(x)|
//! ```
//!
//! where `s_j^i` ranges over the senses of context node `x_i`'s label and
//! `Sim` is the combined measure of Definition 9. Compound target labels use
//! the averaged pair similarity of Equation 10.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use semnet::{ConceptId, SemanticNetwork};
use semsim::{CombinedSimilarity, SimilarityCache, SparseVector};
use xmltree::{NodeId, XmlTree};

use crate::pipeline::SenseChoice;
use crate::senses::{disambiguation_candidates, SenseCandidates};
use crate::sphere::{
    xml_context_vector, xml_context_vector_weighted, xml_sphere, xml_sphere_weighted,
};
use xmltree::distance::DistancePolicy;

/// A per-document memo of sense-pair similarities in front of a
/// [`CombinedSimilarity`].
///
/// Definition 8 maxes every candidate sense over every sense of every
/// context node, so one document asks for the same `(candidate, context
/// sense)` pair many times. The first sight of a pair calls
/// [`CombinedSimilarity::similarity`] — and so its cache, possibly shared
/// across workers — and every later sight reads this memo. A memo value is
/// the `f64` that call returned, so scores are bit-identical to asking the
/// measure every time. The measure's weights are fixed, so the key is the
/// normalized concept pair alone. Create one per document (the pipeline
/// does, per [`Xsdf::disambiguate_selected_guarded`] call) and drop it
/// with the document: it is not bounded and never evicts.
///
/// [`Xsdf::disambiguate_selected_guarded`]: crate::Xsdf::disambiguate_selected_guarded
pub(crate) struct SensePairMemo<'a, C: SimilarityCache> {
    sn: &'a SemanticNetwork,
    sim: &'a CombinedSimilarity<C>,
    pairs: RefCell<HashMap<u64, f64, BuildHasherDefault<PairHasher>>>,
}

impl<'a, C: SimilarityCache> SensePairMemo<'a, C> {
    /// An empty memo over `sim`.
    pub(crate) fn new(sn: &'a SemanticNetwork, sim: &'a CombinedSimilarity<C>) -> Self {
        Self {
            sn,
            sim,
            pairs: RefCell::default(),
        }
    }

    /// The measure behind the memo.
    pub(crate) fn measure(&self) -> &'a CombinedSimilarity<C> {
        self.sim
    }

    /// `Sim(a, b)`, computed through the measure on the pair's first sight
    /// and read from the memo afterwards.
    fn similarity(&self, a: ConceptId, b: ConceptId) -> f64 {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let key = (u64::from(lo.0) << 32) | u64::from(hi.0);
        *self
            .pairs
            .borrow_mut()
            .entry(key)
            .or_insert_with(|| self.sim.similarity(self.sn, a, b))
    }

    /// Similarity of a target choice to context sense `s`: `Sim(s_p, s)`
    /// for a single sense, Equation 10's `(Sim(s_p, s) + Sim(s_q, s)) / 2`
    /// for a compound pair.
    fn choice_similarity(&self, choice: SenseChoice, s: ConceptId) -> f64 {
        match choice {
            SenseChoice::Single(c) => self.similarity(c, s),
            SenseChoice::Pair(a, b) => (self.similarity(a, s) + self.similarity(b, s)) / 2.0,
        }
    }
}

/// Hasher for [`SensePairMemo`]'s packed `u64` pair keys: one
/// multiply-xorshift round (the splitmix64 finalizer's core), so both
/// concept ids reach the low bits the table indexes by.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x ^ (x >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        self.0 = h ^ (h >> 32);
    }
}

/// Pre-resolved context information for one target node, reused across all
/// of its candidate senses.
pub struct ConceptContext {
    /// `(context label, context-vector weight, senses of that label)` per
    /// sphere node, with the compound special case flattened: a compound
    /// context label contributes its two token sense lists separately, each
    /// averaged per Equation 10's note on compound context labels.
    entries: Vec<ContextEntry>,
    /// `|S_d(x)|` of Definition 8: the center (ring `R_0`) plus all
    /// context nodes, so always ≥ 1.
    cardinality: usize,
}

struct ContextEntry {
    weight: f64,
    senses: Vec<ConceptId>,
    /// Second sense list for compound context labels (averaged with the
    /// first when scoring).
    second_senses: Option<Vec<ConceptId>>,
}

impl ConceptContext {
    /// Resolves the sphere context of `target` at the given radius.
    pub fn build(sn: &SemanticNetwork, tree: &XmlTree, target: NodeId, radius: u32) -> Self {
        Self::build_with_policy(sn, tree, target, radius, DistancePolicy::EdgeCount)
    }

    /// [`ConceptContext::build`] under an alternative distance policy
    /// (Section 5's future-work distances).
    pub fn build_with_policy(
        sn: &SemanticNetwork,
        tree: &XmlTree,
        target: NodeId,
        radius: u32,
        policy: DistancePolicy,
    ) -> Self {
        let nodes: Vec<(NodeId, ())> = if policy == DistancePolicy::EdgeCount {
            xml_sphere(tree, target, radius)
                .into_iter()
                .map(|(n, _)| (n, ()))
                .collect()
        } else {
            xml_sphere_weighted(tree, target, radius, policy)
                .into_iter()
                .map(|(n, _)| (n, ()))
                .collect()
        };
        let vector = xml_context_vector_weighted(tree, target, radius, policy);
        // |S_d(x)| of Definition 8 counts the center (Definition 5's ring
        // R_0 = {x}) plus all context nodes — the same convention the
        // context vectors pin with Figure 7's V_1. Counting only the
        // context nodes here (the pre-PR 5 behavior) inflated every score
        // by (n+1)/n relative to the definitions.
        let cardinality = nodes.len() + 1;
        let mut entries = Vec::with_capacity(nodes.len());
        for (node, _) in nodes {
            let label = tree.label(node);
            let weight = vector.get(label);
            match disambiguation_candidates(sn, label, tree.node(node).kind) {
                SenseCandidates::Unknown => {}
                SenseCandidates::Single(senses) => {
                    entries.push(ContextEntry {
                        weight,
                        senses,
                        second_senses: None,
                    });
                }
                SenseCandidates::Compound { first, second } => {
                    entries.push(ContextEntry {
                        weight,
                        senses: first,
                        second_senses: Some(second),
                    });
                }
            }
        }
        Self {
            entries,
            cardinality,
        }
    }

    /// The context vector used for weighting (exposed for diagnostics).
    pub fn vector(tree: &XmlTree, target: NodeId, radius: u32) -> SparseVector {
        xml_context_vector(tree, target, radius)
    }

    /// Number of context nodes that contributed sense entries.
    pub fn informative_nodes(&self) -> usize {
        self.entries.len()
    }

    /// `|S_d(x)|` of Definition 8: context nodes plus the center, always
    /// ≥ 1 (the denominator of every concept score in this context).
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }

    /// Right-to-left running weight sums for bounded scoring: element `i`
    /// is the total context-vector weight of entries `i..`, so
    /// `suffix[i + 1]` bounds what entries after `i` can still contribute
    /// (every per-entry max similarity is ≤ 1). Length
    /// `informative_nodes() + 1`; the last element is 0. Computed once per
    /// target and shared across all its candidates.
    pub fn suffix_weight_sums(&self) -> Vec<f64> {
        let mut suffix = vec![0.0; self.entries.len() + 1];
        for i in (0..self.entries.len()).rev() {
            suffix[i] = suffix[i + 1] + self.entries[i].weight;
        }
        suffix
    }

    /// The largest concept score *any* candidate can reach in this
    /// context: `min(1, Σ_i w_i / |S_d(x)|)`, since each entry's max
    /// similarity is at most 1. Drives the global early exit of
    /// [`crate::prune`] level (a).
    pub fn max_concept_score(&self) -> f64 {
        let total: f64 = self.entries.iter().map(|e| e.weight).sum();
        (total / self.cardinality as f64).min(1.0)
    }

    /// All candidate senses of all context labels (compound sides
    /// included), sorted and deduplicated — the evidence set the density
    /// pre-score of [`crate::prune`] screens candidates against.
    pub fn context_senses(&self) -> Vec<ConceptId> {
        let mut senses: Vec<ConceptId> = self
            .entries
            .iter()
            .flat_map(|e| {
                e.senses
                    .iter()
                    .chain(e.second_senses.iter().flatten())
                    .copied()
            })
            .collect();
        senses.sort_unstable();
        senses.dedup();
        senses
    }

    /// Max over the context node's senses of `score_of(s_j^i)`, with a
    /// compound context label averaging its two tokens' best scores.
    fn max_sim_with(entry: &ContextEntry, score_of: &dyn Fn(ConceptId) -> f64) -> f64 {
        let best_first = entry
            .senses
            .iter()
            .map(|&s| score_of(s))
            .fold(0.0f64, f64::max);
        match &entry.second_senses {
            None => best_first,
            Some(second) => {
                let best_second = second.iter().map(|&s| score_of(s)).fold(0.0f64, f64::max);
                // Compound context label: average the two tokens' best
                // similarities (mirror of Equation 10 applied to context).
                if entry.senses.is_empty() {
                    best_second
                } else if second.is_empty() {
                    best_first
                } else {
                    (best_first + best_second) / 2.0
                }
            }
        }
    }

    /// `Concept_Score(s_p, S_d(x), S̄N)` of Definition 8, scored through a
    /// sense-pair memo of its own (the pipeline shares one memo across a
    /// whole document).
    pub fn score_single<C: SimilarityCache>(
        &self,
        sn: &SemanticNetwork,
        sim: &CombinedSimilarity<C>,
        candidate: ConceptId,
    ) -> f64 {
        self.score_memo(&SensePairMemo::new(sn, sim), SenseChoice::Single(candidate))
    }

    /// `Concept_Score((s_p, s_q), S_d(x), S̄N)` of Equation 10 — the
    /// compound-target special case: each context comparison averages the
    /// similarities of the two target token senses.
    pub fn score_pair<C: SimilarityCache>(
        &self,
        sn: &SemanticNetwork,
        sim: &CombinedSimilarity<C>,
        first: ConceptId,
        second: ConceptId,
    ) -> f64 {
        self.score_memo(
            &SensePairMemo::new(sn, sim),
            SenseChoice::Pair(first, second),
        )
    }

    /// The Definition 8 score of a single sense, or the Equation 10 score
    /// of a compound pair, with every sense-pair similarity read through
    /// `memo`.
    pub(crate) fn score_memo<C: SimilarityCache>(
        &self,
        memo: &SensePairMemo<'_, C>,
        choice: SenseChoice,
    ) -> f64 {
        let score_of = |s| memo.choice_similarity(choice, s);
        let total: f64 = self
            .entries
            .iter()
            .map(|e| Self::max_sim_with(e, &score_of) * e.weight)
            .sum();
        (total / self.cardinality as f64).clamp(0.0, 1.0)
    }

    /// [`ConceptContext::score_memo`] with branch-and-bound abandonment
    /// ([`crate::prune`] level (a)): returns `None` if `abandon` accepted
    /// a running upper bound, the exact score otherwise.
    ///
    /// After each entry the running upper bound
    /// `min(1, (partial + suffix[i + 1]) / |S_d(x)|)` on the final concept
    /// score is offered to `abandon`. The bound is never offered after the
    /// last entry (at that point the score is already fully computed, so
    /// abandoning would save nothing and miscount pruning work).
    ///
    /// Survivors are **bit-identical** to the unbounded scorer: the
    /// running `total += best · w_i` accumulates in the same left-to-right
    /// order as `Iterator::sum`, and the final `clamp(total / |S_d(x)|)` is
    /// the same expression. Only an empty context differs, in the sign of
    /// its zero (`Iterator::sum` starts from -0.0); Equation 13 adds a
    /// +0.0 context term to it, so the combined score is the same.
    pub(crate) fn score_bounded<C: SimilarityCache>(
        &self,
        memo: &SensePairMemo<'_, C>,
        choice: SenseChoice,
        suffix: &[f64],
        abandon: &mut dyn FnMut(f64) -> bool,
    ) -> Option<f64> {
        debug_assert_eq!(suffix.len(), self.entries.len() + 1);
        let score_of = |s| memo.choice_similarity(choice, s);
        let mut total = 0.0f64;
        for (i, e) in self.entries.iter().enumerate() {
            total += Self::max_sim_with(e, &score_of) * e.weight;
            if i + 1 < self.entries.len() {
                let bound = ((total + suffix[i + 1]) / self.cardinality as f64).min(1.0);
                if abandon(bound) {
                    return None;
                }
            }
        }
        Some((total / self.cardinality as f64).clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::senses::LingTokenizer;
    use semnet::mini_wordnet;
    use semsim::SimilarityWeights;
    use xmltree::tree::TreeBuilder;

    fn tree(xml: &str) -> XmlTree {
        let doc = xmltree::parse(xml).unwrap();
        TreeBuilder::with_tokenizer(LingTokenizer::new(mini_wordnet()))
            .build(&doc)
            .unwrap()
            .tree
    }

    fn find(t: &XmlTree, label: &str) -> NodeId {
        t.preorder().find(|&id| t.label(id) == label).unwrap()
    }

    fn id(key: &str) -> ConceptId {
        mini_wordnet().by_key(key).unwrap()
    }

    #[test]
    fn figure1_cast_resolves_to_actors() {
        // "cast" surrounded by picture/star/kelly/stewart must prefer
        // cast-the-actors over cast-the-mold/throw/plaster.
        let t = tree(
            "<films><picture><cast><star>Stewart</star><star>Kelly</star></cast><plot/></picture></films>",
        );
        let sn = mini_wordnet();
        let cast = find(&t, "cast");
        let ctx = ConceptContext::build(sn, &t, cast, 2);
        let sim = CombinedSimilarity::default();
        let actors = ctx.score_single(sn, &sim, id("cast.actors"));
        for other in ["cast.mold", "cast.throw", "cast.plaster", "cast.appearance"] {
            let score = ctx.score_single(sn, &sim, id(other));
            assert!(actors > score, "cast.actors {actors} <= {other} {score}");
        }
    }

    #[test]
    fn figure1_kelly_resolves_to_grace() {
        // Section 1: "looking at its context in the document, a human user
        // can tell that Kelly here refers to Grace Kelly."
        let t = tree(
            "<films><picture title=\"Rear Window\"><director>Hitchcock</director><cast><star>Stewart</star><star>Kelly</star></cast></picture></films>",
        );
        let sn = mini_wordnet();
        let kelly = t
            .preorder()
            .find(|&n| t.label(n) == "kelly")
            .expect("kelly token node");
        let ctx = ConceptContext::build(sn, &t, kelly, 2);
        let sim = CombinedSimilarity::default();
        let grace = ctx.score_single(sn, &sim, id("kelly.grace"));
        let gene = ctx.score_single(sn, &sim, id("kelly.gene"));
        let emmett = ctx.score_single(sn, &sim, id("kelly.emmett"));
        assert!(grace >= gene, "{grace} < {gene}");
        assert!(grace > emmett, "{grace} <= {emmett}");
    }

    #[test]
    fn scores_bounded() {
        let t = tree("<movies><movie><genre>mystery</genre><star>Kelly</star></movie></movies>");
        let sn = mini_wordnet();
        let sim = CombinedSimilarity::default();
        for node in t.preorder() {
            if let SenseCandidates::Single(senses) =
                disambiguation_candidates(sn, t.label(node), t.node(node).kind)
            {
                let ctx = ConceptContext::build(sn, &t, node, 2);
                for s in senses {
                    let score = ctx.score_single(sn, &sim, s);
                    assert!((0.0..=1.0).contains(&score));
                }
            }
        }
    }

    #[test]
    fn empty_context_scores_zero() {
        let t = tree("<star/>");
        let sn = mini_wordnet();
        let ctx = ConceptContext::build(sn, &t, t.root(), 2);
        let sim = CombinedSimilarity::default();
        assert_eq!(ctx.score_single(sn, &sim, id("star.performer")), 0.0);
    }

    #[test]
    fn pair_score_averages_token_evidence() {
        // Compound target "star picture" in a movie context: the pair
        // (performer, movie) should beat (celestial, mental-image).
        let t = tree("<films><star_picture/><cast/><actor/></films>");
        let sn = mini_wordnet();
        let target = find(&t, "star picture");
        let ctx = ConceptContext::build(sn, &t, target, 2);
        let sim = CombinedSimilarity::default();
        let coherent = ctx.score_pair(sn, &sim, id("star.performer"), id("film.movie"));
        let incoherent = ctx.score_pair(sn, &sim, id("star.celestial"), id("picture.mental"));
        assert!(coherent > incoherent, "{coherent} <= {incoherent}");
    }

    #[test]
    fn definition8_denominator_counts_the_center() {
        // Regression for the |S_d(x)| convention fix: Definition 8 divides
        // by the sphere cardinality, and per Definition 5 the sphere
        // includes ring R_0 = {x} — the same center-inclusive convention
        // the context vectors pin with Figure 7's V_1. With a single
        // context node the denominator is therefore 2, not 1.
        let t = tree("<cast><star/></cast>");
        let sn = mini_wordnet();
        let cast = t.root();
        let ctx = ConceptContext::build(sn, &t, cast, 1);
        let sim = CombinedSimilarity::default();
        let candidate = id("cast.actors");
        // Reproduce the numerator by hand: one entry ("star"), whose best
        // sense similarity is maxed over star's senses, weighted by the
        // context vector's "star" coordinate.
        let vector = xml_context_vector(&t, cast, 1);
        let star_weight = vector.get("star");
        assert!(star_weight > 0.0);
        let best: f64 = sn
            .senses("star")
            .iter()
            .map(|&s| sim.similarity(sn, candidate, s))
            .fold(0.0, f64::max);
        let expected = (best * star_weight) / 2.0;
        let got = ctx.score_single(sn, &sim, candidate);
        assert!(
            (got - expected).abs() < 1e-12,
            "Definition 8 denominator must be |S_1(cast)| = 2: got {got}, expected {expected}"
        );
    }

    #[test]
    fn bounded_scoring_matches_unbounded_when_never_abandoning() {
        let t = tree(
            "<films><picture><cast><star>Stewart</star><star>Kelly</star></cast><plot/></picture></films>",
        );
        let sn = mini_wordnet();
        let cast = find(&t, "cast");
        let ctx = ConceptContext::build(sn, &t, cast, 2);
        let sim = CombinedSimilarity::default();
        let suffix = ctx.suffix_weight_sums();
        assert_eq!(suffix.len(), ctx.informative_nodes() + 1);
        assert_eq!(*suffix.last().unwrap(), 0.0);
        for key in ["cast.actors", "cast.mold", "cast.throw"] {
            let plain = ctx.score_single(sn, &sim, id(key));
            let bounded = ctx
                .score_bounded(
                    &SensePairMemo::new(sn, &sim),
                    SenseChoice::Single(id(key)),
                    &suffix,
                    &mut |_| false,
                )
                .unwrap();
            // Bit-identical, not just approximately equal: the pruned
            // path must reuse the exact summation of the unpruned one.
            assert_eq!(plain.to_bits(), bounded.to_bits(), "{key}");
        }
    }

    #[test]
    fn bounded_pair_scoring_matches_unbounded() {
        let t = tree("<films><star_picture/><cast/><actor/></films>");
        let sn = mini_wordnet();
        let target = find(&t, "star picture");
        let ctx = ConceptContext::build(sn, &t, target, 2);
        let sim = CombinedSimilarity::default();
        let suffix = ctx.suffix_weight_sums();
        let plain = ctx.score_pair(sn, &sim, id("star.performer"), id("film.movie"));
        let bounded = ctx
            .score_bounded(
                &SensePairMemo::new(sn, &sim),
                SenseChoice::Pair(id("star.performer"), id("film.movie")),
                &suffix,
                &mut |_| false,
            )
            .unwrap();
        assert_eq!(plain.to_bits(), bounded.to_bits());
    }

    #[test]
    fn bounds_are_sound_and_abandonment_fires() {
        let t = tree(
            "<films><picture><cast><star>Stewart</star><star>Kelly</star></cast><plot/></picture></films>",
        );
        let sn = mini_wordnet();
        let cast = find(&t, "cast");
        let ctx = ConceptContext::build(sn, &t, cast, 2);
        let sim = CombinedSimilarity::default();
        let suffix = ctx.suffix_weight_sums();
        let candidate = id("cast.actors");
        let score = ctx.score_single(sn, &sim, candidate);
        // Every running bound offered to the closure must dominate the
        // final score (soundness of the branch-and-bound invariant).
        let mut bounds = Vec::new();
        let memo = SensePairMemo::new(sn, &sim);
        let choice = SenseChoice::Single(candidate);
        let result = ctx.score_bounded(&memo, choice, &suffix, &mut |b| {
            bounds.push(b);
            false
        });
        assert_eq!(result.unwrap().to_bits(), score.to_bits());
        assert!(!bounds.is_empty());
        for b in &bounds {
            assert!(*b >= score, "bound {b} < final score {score}");
            assert!(*b <= ctx.max_concept_score() + 1e-12);
        }
        // An always-abandon closure stops on the first bound.
        let mut calls = 0;
        let pruned = ctx.score_bounded(&memo, choice, &suffix, &mut |_| {
            calls += 1;
            true
        });
        assert_eq!(pruned, None);
        assert_eq!(calls, 1);
    }

    #[test]
    fn memo_asks_the_measure_once_per_distinct_pair() {
        /// Records the keys of the lookups that reach the measure's cache.
        #[derive(Default)]
        struct Counting {
            inner: semsim::LocalCache,
            looked_up: RefCell<Vec<semsim::PairKey>>,
        }
        impl SimilarityCache for Counting {
            fn lookup(&self, key: semsim::PairKey) -> Option<f64> {
                self.looked_up.borrow_mut().push(key);
                self.inner.lookup(key)
            }
            fn store(&self, key: semsim::PairKey, value: f64) {
                self.inner.store(key, value)
            }
            fn len(&self) -> usize {
                self.inner.len()
            }
        }
        let t = tree(
            "<films><picture><cast><star>Stewart</star><star>Kelly</star></cast><star_picture/></picture></films>",
        );
        let sn = mini_wordnet();
        let cast = find(&t, "cast");
        let ctx = ConceptContext::build(sn, &t, cast, 2);
        let sim = CombinedSimilarity::with_cache(SimilarityWeights::equal(), Counting::default());
        let memo = SensePairMemo::new(sn, &sim);
        let fresh = CombinedSimilarity::default();
        let choices = [
            SenseChoice::Single(id("cast.actors")),
            SenseChoice::Single(id("cast.mold")),
            SenseChoice::Pair(id("star.performer"), id("film.movie")),
            SenseChoice::Single(id("cast.actors")),
        ];
        for choice in choices {
            let plain = match choice {
                SenseChoice::Single(c) => ctx.score_single(sn, &fresh, c),
                SenseChoice::Pair(a, b) => ctx.score_pair(sn, &fresh, a, b),
            };
            assert_eq!(ctx.score_memo(&memo, choice).to_bits(), plain.to_bits());
        }
        let keys = sim.cache().looked_up.take();
        let distinct: std::collections::HashSet<_> = keys.iter().collect();
        assert!(!keys.is_empty());
        assert_eq!(keys.len(), distinct.len(), "a pair reached the cache twice");
    }

    #[test]
    fn context_senses_cover_both_compound_sides() {
        let t = tree("<films><star_picture/><cast/></films>");
        let sn = mini_wordnet();
        let target = find(&t, "cast");
        let ctx = ConceptContext::build(sn, &t, target, 2);
        let senses = ctx.context_senses();
        // Sorted, deduplicated, and containing senses of both "star" and
        // "picture" (the compound sides) plus "films".
        assert!(senses.windows(2).all(|w| w[0] < w[1]));
        assert!(senses.contains(&id("star.performer")));
        assert!(senses.contains(&id("picture.image")));
    }

    #[test]
    fn richer_context_produces_nonzero_scores() {
        let t = tree("<cast><star>Kelly</star></cast>");
        let sn = mini_wordnet();
        let ctx = ConceptContext::build(sn, &t, t.root(), 2);
        assert!(ctx.informative_nodes() >= 2);
        let sim = CombinedSimilarity::default();
        assert!(ctx.score_single(sn, &sim, id("cast.actors")) > 0.0);
    }
}

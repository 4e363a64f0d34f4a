//! Output checks: every sampled document is re-run through the serial
//! `Xsdf` path with a private `LocalCache`, and the chosen senses, scores
//! and ambiguity degrees must match bit for bit. The same sample is scored
//! against the corpus gold senses for `sense_f1`.

use corpus::AnnotatedDocument;
use eval::experiments::choice_key;
use eval::metrics::PrfScores;
use semnet::SemanticNetwork;
use semsim::{CombinedSimilarity, LocalCache};
use xsdf::{DisambiguationResult, Xsdf, XsdfConfig};

/// The serial reference pipeline.
pub struct Reference<'sn> {
    xsdf: Xsdf<'sn>,
    sim: CombinedSimilarity<LocalCache>,
}

impl<'sn> Reference<'sn> {
    pub fn new(sn: &'sn SemanticNetwork, config: XsdfConfig) -> Self {
        Self {
            sim: CombinedSimilarity::new(config.similarity),
            xsdf: Xsdf::new(sn, config),
        }
    }

    /// The reference result for one document.
    pub fn result(&self, xml: &str) -> Result<DisambiguationResult, String> {
        let doc = xmltree::parse(xml).map_err(|e| format!("reference parse failed: {e}"))?;
        let tree = self.xsdf.build_tree(&doc);
        Ok(self.xsdf.disambiguate_tree_with(&tree, &self.sim))
    }
}

/// Whether two results agree on every node: label, selection, candidate
/// count, chosen sense, and the bits of the score and ambiguity degree.
fn same_result(a: &DisambiguationResult, b: &DisambiguationResult) -> bool {
    a.reports.len() == b.reports.len()
        && a.reports.iter().zip(&b.reports).all(|(x, y)| {
            x.node == y.node
                && x.label == y.label
                && x.selected == y.selected
                && x.candidates == y.candidates
                && x.ambiguity.to_bits() == y.ambiguity.to_bits()
                && match (x.chosen, y.chosen) {
                    (None, None) => true,
                    (Some((cx, sx)), Some((cy, sy))) => cx == cy && sx.to_bits() == sy.to_bits(),
                    _ => false,
                }
        })
}

/// Scores one result against the document's gold senses. Returns `false`
/// when the result's node ids do not line up with the gold tree's.
pub fn score_gold(
    sn: &SemanticNetwork,
    doc: &AnnotatedDocument,
    result: &DisambiguationResult,
    prf: &mut PrfScores,
) -> bool {
    prf.targets += doc.gold.len();
    for report in &result.reports {
        if report.node.index() >= doc.tree.len() || doc.tree.label(report.node) != report.label {
            return false;
        }
        let (Some(gold), Some((choice, _))) = (doc.gold.get(&report.node), report.chosen) else {
            continue;
        };
        prf.assigned += 1;
        if choice_key(sn, choice) == gold.key() {
            prf.correct += 1;
        }
    }
    true
}

/// The tally of one workload's output check.
#[derive(Default)]
pub struct Tally {
    pub checked: u64,
    pub mismatched: u64,
    /// Results whose node ids did not line up with the gold tree.
    pub misaligned: u64,
    pub prf: PrfScores,
}

impl Tally {
    /// Checks one sampled document whose result came from the system
    /// under test.
    pub fn check(
        &mut self,
        reference: &Reference,
        doc: &AnnotatedDocument,
        xml: &str,
        got: &DisambiguationResult,
    ) -> Result<(), String> {
        let want = reference.result(xml)?;
        self.checked += 1;
        if !same_result(got, &want) {
            self.mismatched += 1;
        }
        if !score_gold(reference.xsdf.network(), doc, &want, &mut self.prf) {
            self.misaligned += 1;
        }
        Ok(())
    }

    /// Whether the sample was checked in full and nothing differed.
    pub fn passed(&self, wanted: usize) -> bool {
        self.checked >= wanted as u64 && self.mismatched == 0 && self.misaligned == 0
    }

    pub fn report(&self) {
        println!(
            "output check: {} document(s), {} mismatch(es), {} misaligned; \
             gold: {} target(s), {} assigned, {} correct, F {:.4}",
            self.checked,
            self.mismatched,
            self.misaligned,
            self.prf.targets,
            self.prf.assigned,
            self.prf.correct,
            self.prf.f_value()
        );
    }
}

//! Tier-1 guard: the labeled corpus must score perfectly.
//!
//! Every `corpus/positive/<rule>_<n>.rs` case must trigger its labeled
//! rule (a miss is a false negative) and every `corpus/negative/*.rs`
//! case must produce zero findings of any rule (each finding is a false
//! positive). Any FN or FP fails this test, so rule regressions surface
//! in `cargo test` before they surface as noise in the workspace lint.

use std::path::Path;

#[test]
fn corpus_scores_perfectly() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let score = sgx_lint::corpus::score(&dir).unwrap_or_else(|e| panic!("corpus unreadable: {e}"));
    // Every rule keeps at least two cases that must fire and two that
    // must stay silent, so one case cannot stand for a whole rule.
    for rule in sgx_lint::RULES {
        let s = score.per_rule.get(rule).copied().unwrap_or_default();
        assert!(
            s.tp + s.fn_ >= 2 && s.negatives >= 2,
            "rule `{rule}` needs at least 2 positive and 2 negative corpus cases \
             ({} positive, {} negative):\n{}",
            s.tp + s.fn_,
            s.negatives,
            score.table()
        );
    }
    assert!(score.perfect(), "corpus regression:\n{}", score.table());
}

//! Measurement driver: runs a query centralized and distributed,
//! validates that the answers agree, and records timings.
//!
//! Following the paper's protocol, each query is executed `reps + 1`
//! times; the first (warm-up) execution is discarded and the remaining
//! runs averaged.

use crate::oracle::{canonical, centralized_text};
use partix_engine::{PartiX, QueryReport};

/// One measured comparison.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub query: String,
    /// Centralized execution time (node 0, unfragmented collection).
    pub centralized_s: f64,
    /// Distributed response time (parallel + network + composition).
    pub distributed_s: f64,
    /// `centralized / distributed` — the paper's scale-up factor.
    pub speedup: f64,
    /// Sites consulted / fragments pruned by localization.
    pub sites: usize,
    pub pruned: usize,
    /// Whether the reconstruct-then-evaluate fallback fired.
    pub reconstructed: bool,
    /// Bytes shipped from sites to the coordinator.
    pub result_bytes: usize,
}

/// Run `query_id`/`query` (written against the [`crate::setup::DIST`]
/// collection) both ways on `px` and compare. Panics if the distributed
/// answer diverges from the centralized one — a correctness failure, not a
/// data point.
pub fn compare(px: &PartiX, query_id: &str, query: &str, reps: usize) -> Measurement {
    let central_query = centralized_text(query);
    // warm-up + equivalence check
    let dist0 = px.execute(query).unwrap_or_else(|e| panic!("{query_id} distributed: {e}"));
    let cent0 = px
        .execute_centralized(0, &central_query)
        .unwrap_or_else(|e| panic!("{query_id} centralized: {e}"));
    assert_eq!(canonical(&cent0.items), canonical(&dist0.items), "{query_id}: answers differ");

    let mut cent_total = 0.0;
    let mut dist_total = 0.0;
    let mut last_report: QueryReport = dist0.report;
    for _ in 0..reps.max(1) {
        let c = px
            .execute_centralized(0, &central_query)
            .expect("centralized rerun");
        cent_total += c.stats.elapsed;
        let d = px.execute(query).expect("distributed rerun");
        dist_total += d.report.total();
        last_report = d.report;
    }
    if std::env::var_os("PARTIX_DEBUG").is_some() {
        eprintln!("[{query_id}] {last_report}");
    }
    let reps = reps.max(1) as f64;
    let centralized_s = cent_total / reps;
    let distributed_s = dist_total / reps;
    Measurement {
        query: query_id.to_owned(),
        centralized_s,
        distributed_s,
        speedup: if distributed_s > 0.0 { centralized_s / distributed_s } else { f64::INFINITY },
        sites: last_report.sites.len(),
        pruned: last_report.fragments_pruned,
        reconstructed: last_report.reconstructed,
        result_bytes: last_report.total_result_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries;
    use crate::setup;
    use partix_gen::ItemProfile;

    #[test]
    fn horizontal_all_queries_agree() {
        let px = setup::horizontal_sized(120_000, ItemProfile::Small, 4);
        for (id, q) in queries::horizontal(setup::DIST) {
            let m = compare(&px, id, &q, 1);
            assert!(m.distributed_s >= 0.0);
            assert!(m.sites >= 1, "{id} consulted no site");
        }
    }

    #[test]
    fn vertical_all_queries_agree() {
        let docs = partix_gen::gen_articles(12, partix_gen::ArticleProfile::SMALL, 17);
        let px = setup::vertical(&docs);
        for (id, q) in queries::vertical(setup::DIST) {
            let m = compare(&px, id, &q, 1);
            // single-fragment queries must not reconstruct
            if matches!(m.query.as_str(), "QV1" | "QV2" | "QV3" | "QV5" | "QV6" | "QV9") {
                assert!(!m.reconstructed, "{id} unexpectedly reconstructed");
                assert_eq!(m.sites, 1, "{id} should hit one site");
            }
        }
    }

    #[test]
    fn hybrid_all_queries_agree_both_modes() {
        use partix_frag::FragMode;
        let store = partix_gen::gen_store(48, ItemProfile::Small, 23);
        for mode in [FragMode::SingleDoc, FragMode::ManySmallDocs] {
            let px = setup::hybrid(&store, mode);
            for (id, q) in queries::hybrid(setup::DIST) {
                let m = compare(&px, id, &q, 1);
                assert!(m.sites >= 1 || m.result_bytes == 0, "{id} {mode:?}");
            }
        }
    }

    #[test]
    fn localization_prunes_single_section_queries() {
        let px = setup::horizontal_sized(80_000, ItemProfile::Small, 8);
        let m = compare(
            &px,
            "QH1",
            &queries::horizontal(setup::DIST)[0].1,
            1,
        );
        assert_eq!(m.sites, 1);
        assert_eq!(m.pruned, 7);
    }
}

//! The fragmentation/placement advisor: search candidate designs and
//! placements for the cheapest way to serve an observed workload.
//!
//! Candidates come from two sources:
//!
//! 1. **the current design**, re-placed — always considered, so advice
//!    can never be worse than a re-placement of what's already running;
//! 2. **horizontal re-splits** via
//!    [`partix_frag::horizontal_by_values`] over a user-supplied value
//!    path, at each fragment count in
//!    [`AdvisorConfig::candidate_counts`] (re-splits that fail —
//!    multi-valued path, too few distinct values — are skipped, not
//!    errors).
//!
//! For each candidate design the placement search runs a greedy LPT
//! seed (hottest fragment to least-loaded node) followed by seeded
//! local search: random single-fragment moves, pairwise swaps and
//! replica add/drop steps, accepting strict cost decreases under
//! [`crate::cost::score`]. The search is fully deterministic for a
//! given `(profile, design, seed)` — it uses a private xorshift64 PRNG
//! and ordered maps throughout, so `partix advise` gives reproducible
//! recommendations.

use crate::cost::{self, CostReport, FragmentLoad};
use crate::profile::WorkloadProfile;
use partix_engine::{Distribution, PartiX, Placement};
use partix_frag::{horizontal_by_values, Fragmenter, FragmentationSchema};
use partix_path::PathExpr;
use partix_xml::Document;
use std::collections::BTreeMap;
use std::fmt;

/// Tunables for the advisor search.
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    /// Cluster size to place onto.
    pub nodes: usize,
    /// PRNG seed — same seed, same advice.
    pub seed: u64,
    /// Fragment counts to try for horizontal re-splits (ignored without
    /// [`AdvisorConfig::split_path`]).
    pub candidate_counts: Vec<usize>,
    /// Value path to re-split on, e.g. `/Item/Section`.
    pub split_path: Option<PathExpr>,
    /// Raw query texts the service answered; the frequency miner
    /// ([`crate::mining`]) derives additional split-path candidates
    /// from the equality predicates this log filters on.
    pub query_log: Vec<String>,
    /// How many mined paths (hottest first) become candidates.
    pub mined_paths: usize,
}

impl AdvisorConfig {
    pub fn new(nodes: usize) -> Self {
        AdvisorConfig {
            nodes,
            seed: 42,
            candidate_counts: vec![],
            split_path: None,
            query_log: vec![],
            mined_paths: 2,
        }
    }
}

/// The advisor's recommendation.
#[derive(Debug, Clone)]
pub struct Advice {
    /// Recommended design (may be the current one).
    pub design: FragmentationSchema,
    /// Recommended placements, sorted by `(fragment, node)`.
    pub placements: Vec<Placement>,
    /// Predicted cost of the recommendation.
    pub predicted: CostReport,
    /// Predicted cost of the *current* `(design, placement)` — the
    /// baseline the recommendation improves on.
    pub current: CostReport,
    /// True when the recommended design differs from the current one
    /// (not just the placement).
    pub design_changed: bool,
    pub candidates_considered: usize,
}

impl Advice {
    /// Ready-to-register distribution for the recommendation.
    pub fn distribution(&self) -> Distribution {
        Distribution { design: self.design.clone(), placements: self.placements.clone() }
    }

    /// Predicted cost reduction, `0..=1`.
    pub fn predicted_gain(&self) -> f64 {
        if self.current.total_cost <= 0.0 {
            return 0.0;
        }
        (1.0 - self.predicted.total_cost / self.current.total_cost).max(0.0)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdviseError {
    /// `nodes` was 0.
    NoNodes,
    /// The design under advice has no fragments.
    EmptyDesign,
}

impl fmt::Display for AdviseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdviseError::NoNodes => write!(f, "cannot place fragments on a 0-node cluster"),
            AdviseError::EmptyDesign => write!(f, "design has no fragments"),
        }
    }
}

impl std::error::Error for AdviseError {}

/// Local-search iterations per candidate design.
const SWAP_ITERS: usize = 200;

/// xorshift64 — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next() % n as u64) as usize
    }
}

/// Advise against the current distribution, using `sample` documents
/// (a representative subset of the collection) to size candidate
/// fragments consistently across designs.
pub fn advise(
    current: &Distribution,
    sample: &[Document],
    profile: &WorkloadProfile,
    config: &AdvisorConfig,
) -> Result<Advice, AdviseError> {
    if config.nodes == 0 {
        return Err(AdviseError::NoNodes);
    }
    if current.design.fragments.is_empty() {
        return Err(AdviseError::EmptyDesign);
    }

    // workload aggregates shared by all candidates
    let profile_loads = cost::fragment_loads(profile);
    let total_accesses: f64 = profile.fragments.iter().map(|f| f.accesses as f64).sum::<f64>().max(1.0);
    let avg_selectivity = average_selectivity(profile);

    // the current placement, scored as-is, is the baseline
    let current_loads = design_loads(&current.design, sample, &profile_loads, total_accesses, avg_selectivity);
    let current_placed = placement_map(&current.placements);
    let current_cost = cost::score(&current_loads, &current_placed, config.nodes);

    // candidate designs: current + horizontal re-splits. Split paths
    // come from the operator (`split_path`) and from frequency mining
    // over the query log; all candidates compete under the same cost
    // model.
    let mut candidates: Vec<FragmentationSchema> = vec![current.design.clone()];
    let counts: &[usize] =
        if config.candidate_counts.is_empty() { &[2, 4] } else { &config.candidate_counts };
    let mut split_paths: Vec<PathExpr> = config.split_path.iter().cloned().collect();
    if !config.query_log.is_empty() {
        let mined = crate::mining::mine_predicates(&config.query_log);
        for path in crate::mining::mined_split_paths(
            &mined,
            &current.design.collection.name,
            config.mined_paths,
        ) {
            if !split_paths.contains(&path) {
                split_paths.push(path);
            }
        }
    }
    for path in &split_paths {
        for &count in counts {
            if let Ok(design) =
                horizontal_by_values(current.design.collection.clone(), path, sample, count)
            {
                candidates.push(design);
            }
        }
    }

    let mut best: Option<(FragmentationSchema, BTreeMap<String, Vec<usize>>, CostReport)> = None;
    let candidates_considered = candidates.len();
    for (i, design) in candidates.into_iter().enumerate() {
        let loads = design_loads(&design, sample, &profile_loads, total_accesses, avg_selectivity);
        // decorrelate per-candidate search streams deterministically
        let mut rng = Rng::new(config.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let placed = search_placement(&loads, config, &mut rng);
        let report = cost::score(&loads, &placed, config.nodes);
        let better = match &best {
            None => true,
            Some((_, _, best_report)) => report.total_cost < best_report.total_cost,
        };
        if better {
            best = Some((design, placed, report));
        }
    }
    let (design, placed, predicted) = best.expect("at least the current design");

    let design_changed = design.fragments.len() != current.design.fragments.len()
        || design
            .fragments
            .iter()
            .zip(&current.design.fragments)
            .any(|(a, b)| a.name != b.name);
    let mut placements: Vec<Placement> = placed
        .into_iter()
        .flat_map(|(fragment, nodes)| {
            nodes.into_iter().map(move |node| Placement { fragment: fragment.clone(), node })
        })
        .collect();
    placements.sort_by(|a, b| a.fragment.cmp(&b.fragment).then(a.node.cmp(&b.node)));

    Ok(Advice {
        design,
        placements,
        predicted,
        current: current_cost,
        design_changed,
        candidates_considered,
    })
}

/// Advise against a live service: pulls the current distribution and a
/// sample (the union of all fragment contents) from `px`.
pub fn advise_live(
    px: &PartiX,
    collection: &str,
    profile: &WorkloadProfile,
    config: &AdvisorConfig,
) -> Result<Option<Advice>, AdviseError> {
    let current = match px.catalog().distribution(collection).cloned() {
        Some(dist) => dist,
        None => return Ok(None),
    };
    let sample = collection_sample(px, &current);
    advise(&current, &sample, profile, config).map(Some)
}

/// Union of all fragment contents, one replica each — the live sample
/// for re-split candidates.
pub fn collection_sample(px: &PartiX, dist: &Distribution) -> Vec<Document> {
    let mut sample = Vec::new();
    for frag in &dist.design.fragments {
        if let Some(&node) = dist.nodes_of(&frag.name).first() {
            if let Some(node) = px.cluster().node(node) {
                sample.extend(node.fetch_docs(&frag.name).iter().map(|d| (**d).clone()));
            }
        }
    }
    sample
}

fn average_selectivity(profile: &WorkloadProfile) -> f64 {
    let mut shipped = 0.0;
    let mut scanned = 0.0;
    for f in &profile.fragments {
        shipped += f.shipped_bytes as f64;
        scanned += f.accesses as f64 * f.size_bytes as f64;
    }
    if scanned > 0.0 {
        (shipped / scanned).clamp(0.0, 1.0)
    } else {
        1.0
    }
}

/// Per-fragment loads for a candidate design. Fragment sizes come from
/// fragmenting `sample` (same basis for every candidate). Accesses come
/// from the profile when the fragment exists there (the current
/// design); for re-split fragments the total observed access volume is
/// distributed proportionally to fragment size — the
/// uniform-access-over-data assumption.
fn design_loads(
    design: &FragmentationSchema,
    sample: &[Document],
    profile_loads: &BTreeMap<String, FragmentLoad>,
    total_accesses: f64,
    avg_selectivity: f64,
) -> BTreeMap<String, FragmentLoad> {
    let fragmenter = Fragmenter::new(design.clone());
    let mut sizes: BTreeMap<String, f64> = design
        .fragments
        .iter()
        .map(|f| (f.name.clone(), 0.0))
        .collect();
    for (name, docs) in fragmenter.fragment_all(sample) {
        let bytes: usize = docs.iter().map(Document::approx_size).sum();
        *sizes.entry(name).or_insert(0.0) += bytes as f64;
    }
    let total_size: f64 = sizes.values().sum::<f64>().max(1.0);
    sizes
        .into_iter()
        .map(|(name, size_bytes)| {
            let load = match profile_loads.get(&name) {
                Some(known) => FragmentLoad { size_bytes, ..known.clone() },
                None => FragmentLoad {
                    accesses: (total_accesses * size_bytes / total_size).max(1.0),
                    size_bytes,
                    selectivity: avg_selectivity,
                },
            };
            (name, load)
        })
        .collect()
}

fn placement_map(placements: &[Placement]) -> BTreeMap<String, Vec<usize>> {
    let mut map: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for p in placements {
        let nodes = map.entry(p.fragment.clone()).or_default();
        if !nodes.contains(&p.node) {
            nodes.push(p.node);
        }
    }
    map
}

/// Greedy LPT seed + seeded local search over moves / swaps / replica
/// add-drops, accepting strict cost decreases.
fn search_placement(
    loads: &BTreeMap<String, FragmentLoad>,
    config: &AdvisorConfig,
    rng: &mut Rng,
) -> BTreeMap<String, Vec<usize>> {
    let nodes = config.nodes;
    // ---- greedy seed: hottest-first onto least-loaded node ----
    let mut by_heat: Vec<(&String, f64)> = loads
        .iter()
        .map(|(name, l)| (name, l.accesses * l.size_bytes))
        .collect();
    by_heat.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(b.0)));
    let mut node_load = vec![0.0; nodes];
    let mut placed: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (name, heat) in by_heat {
        let target = (0..nodes)
            .min_by(|&a, &b| {
                node_load[a].partial_cmp(&node_load[b]).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("nodes > 0");
        node_load[target] += heat;
        placed.insert(name.clone(), vec![target]);
    }

    // ---- local search ----
    let names: Vec<String> = placed.keys().cloned().collect();
    if names.is_empty() || nodes < 2 {
        return placed;
    }
    let mut best_cost = cost::score(loads, &placed, nodes).total_cost;
    for _ in 0..SWAP_ITERS {
        let mut trial = placed.clone();
        match rng.below(4) {
            // move one fragment's first replica to another node
            0 => {
                let name = &names[rng.below(names.len())];
                let replicas = trial.get_mut(name).expect("placed");
                let to = rng.below(nodes);
                if !replicas.contains(&to) {
                    replicas[0] = to;
                } else {
                    continue;
                }
            }
            // swap the primary nodes of two fragments (skipped when a
            // secondary replica already sits on the incoming node — the
            // swap would duplicate it)
            1 => {
                let a = &names[rng.below(names.len())];
                let b = &names[rng.below(names.len())];
                if a == b {
                    continue;
                }
                let na = trial[a][0];
                let nb = trial[b][0];
                if trial[a][1..].contains(&nb) || trial[b][1..].contains(&na) {
                    continue;
                }
                trial.get_mut(a).expect("placed")[0] = nb;
                trial.get_mut(b).expect("placed")[0] = na;
            }
            // add a replica on a node not yet holding the fragment
            2 => {
                let name = &names[rng.below(names.len())];
                let replicas = trial.get_mut(name).expect("placed");
                let to = rng.below(nodes);
                if replicas.contains(&to) {
                    continue;
                }
                replicas.push(to);
            }
            // drop a replica (never the last one)
            _ => {
                let name = &names[rng.below(names.len())];
                let replicas = trial.get_mut(name).expect("placed");
                if replicas.len() < 2 {
                    continue;
                }
                let victim = rng.below(replicas.len());
                replicas.remove(victim);
            }
        }
        let trial_cost = cost::score(loads, &trial, nodes).total_cost;
        if trial_cost < best_cost {
            best_cost = trial_cost;
            placed = trial;
        }
    }
    for replicas in placed.values_mut() {
        replicas.sort_unstable();
    }
    placed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{FragmentStats, WorkloadProfile};
    use partix_frag::FragmentDef;
    use partix_path::Predicate;
    use partix_schema::builtin::virtual_store;
    use partix_schema::{CollectionDef, RepoKind};
    use partix_xml::parse;
    use std::sync::Arc;

    fn items(n: usize) -> Vec<Document> {
        (0..n)
            .map(|i| {
                let section = ["CD", "DVD", "BOOK"][i % 3];
                let mut d = parse(&format!(
                    "<Item><Code>{i}</Code><Section>{section}</Section><Price>{}</Price></Item>",
                    5 + i
                ))
                .unwrap();
                d.name = Some(format!("i{i:04}"));
                d
            })
            .collect()
    }

    fn citems() -> CollectionDef {
        CollectionDef::new(
            "items",
            Arc::new(virtual_store()),
            PathExpr::parse("/Store/Items/Item").unwrap(),
            RepoKind::MultipleDocuments,
        )
    }

    fn skewed_current() -> Distribution {
        // three horizontal fragments all packed onto node 0
        let design = FragmentationSchema::new(
            citems(),
            vec![
                FragmentDef::horizontal(
                    "f_cd",
                    Predicate::parse(r#"/Item/Section = "CD""#).unwrap(),
                ),
                FragmentDef::horizontal(
                    "f_dvd",
                    Predicate::parse(r#"/Item/Section = "DVD""#).unwrap(),
                ),
                FragmentDef::horizontal(
                    "f_book",
                    Predicate::parse(r#"/Item/Section = "BOOK""#).unwrap(),
                ),
            ],
        )
        .unwrap();
        Distribution {
            design,
            placements: vec![
                Placement { fragment: "f_cd".into(), node: 0 },
                Placement { fragment: "f_dvd".into(), node: 0 },
                Placement { fragment: "f_book".into(), node: 0 },
            ],
        }
    }

    fn hot_profile() -> WorkloadProfile {
        WorkloadProfile {
            queries: 300,
            fragments: vec![
                FragmentStats {
                    fragment: "f_cd".into(),
                    accesses: 100,
                    shipped_bytes: 40_000,
                    size_bytes: 4_000,
                    ..Default::default()
                },
                FragmentStats {
                    fragment: "f_dvd".into(),
                    accesses: 100,
                    shipped_bytes: 40_000,
                    size_bytes: 4_000,
                    ..Default::default()
                },
                FragmentStats {
                    fragment: "f_book".into(),
                    accesses: 100,
                    shipped_bytes: 40_000,
                    size_bytes: 4_000,
                    ..Default::default()
                },
            ],
            ..Default::default()
        }
    }

    #[test]
    fn spreads_a_skewed_placement_across_nodes() {
        let advice = advise(
            &skewed_current(),
            &items(60),
            &hot_profile(),
            &AdvisorConfig::new(3),
        )
        .unwrap();
        let used: std::collections::BTreeSet<usize> =
            advice.placements.iter().map(|p| p.node).collect();
        assert!(used.len() >= 2, "advice still skewed: {:?}", advice.placements);
        assert!(
            advice.predicted.total_cost < advice.current.total_cost,
            "predicted {:?} !< current {:?}",
            advice.predicted.total_cost,
            advice.current.total_cost
        );
        assert!(advice.predicted_gain() > 0.0);
        // every fragment still placed somewhere
        for f in &advice.design.fragments {
            assert!(advice.placements.iter().any(|p| p.fragment == f.name), "{} unplaced", f.name);
        }
    }

    #[test]
    fn advice_is_deterministic_under_a_seed() {
        let current = skewed_current();
        let sample = items(60);
        let profile = hot_profile();
        let mut config = AdvisorConfig::new(3);
        config.split_path = Some(PathExpr::parse("/Item/Section").unwrap());
        config.candidate_counts = vec![2, 3];
        let a = advise(&current, &sample, &profile, &config).unwrap();
        let b = advise(&current, &sample, &profile, &config).unwrap();
        assert_eq!(a.placements, b.placements);
        assert_eq!(a.predicted.total_cost, b.predicted.total_cost);
        assert_eq!(a.candidates_considered, b.candidates_considered);
        assert!(a.candidates_considered >= 2, "re-split candidates missing");
    }

    #[test]
    fn resplit_candidates_are_considered_and_failures_skipped() {
        let current = skewed_current();
        let sample = items(60);
        let profile = hot_profile();
        let mut config = AdvisorConfig::new(3);
        config.split_path = Some(PathExpr::parse("/Item/Section").unwrap());
        // 2 viable + one absurd count that cannot be built from 3 values
        config.candidate_counts = vec![2, 50];
        let advice = advise(&current, &sample, &profile, &config).unwrap();
        assert!(advice.candidates_considered >= 2);
        // recommendation is registerable
        let dist = advice.distribution();
        assert!(dist.validate_against(3).is_ok(), "{:?}", dist.validate_against(3));
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let current = skewed_current();
        let err = advise(&current, &[], &WorkloadProfile::default(), &AdvisorConfig::new(0))
            .unwrap_err();
        assert_eq!(err, AdviseError::NoNodes);
        let empty = Distribution {
            design: FragmentationSchema { collection: citems(), fragments: vec![] },
            placements: vec![],
        };
        let err = advise(&empty, &[], &WorkloadProfile::default(), &AdvisorConfig::new(2))
            .unwrap_err();
        assert_eq!(err, AdviseError::EmptyDesign);
    }
}

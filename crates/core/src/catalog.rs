//! The distribution catalog: each collection's design and placements.

use partix_frag::FragmentationSchema;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Where one fragment lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Fragment name (as in the [`FragmentationSchema`]).
    pub fragment: String,
    /// Cluster node index.
    pub node: usize,
}

/// Why a [`Distribution`] was rejected at registration. Typed (rather
/// than a bare string) so callers — the CLI, the rebalancer, tests — can
/// react to the specific defect instead of pattern-matching messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistributionError {
    /// The fragmentation design itself failed its rules.
    Design(String),
    /// A fragment of the design has no placement at all.
    Unplaced { fragment: String },
    /// The same fragment is placed twice on the same node.
    DuplicateReplica { fragment: String, node: usize },
    /// A placement names a fragment that is not in the design — queries
    /// would silently never reach the data stored under it.
    UnknownFragment { fragment: String },
    /// A placement targets a node index outside the cluster — dispatch
    /// would silently skip the fragment (`Cluster::node` returns `None`).
    NodeOutOfRange { fragment: String, node: usize, nodes: usize },
}

impl fmt::Display for DistributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistributionError::Design(msg) => write!(f, "invalid design: {msg}"),
            DistributionError::Unplaced { fragment } => {
                write!(f, "fragment {fragment} has no placement, expected at least 1")
            }
            DistributionError::DuplicateReplica { fragment, node } => {
                write!(f, "fragment {fragment} is placed twice on node {node}")
            }
            DistributionError::UnknownFragment { fragment } => {
                write!(f, "placement names unknown fragment {fragment}")
            }
            DistributionError::NodeOutOfRange { fragment, node, nodes } => write!(
                f,
                "fragment {fragment} is placed on node {node}, but the cluster has only {nodes} node(s)"
            ),
        }
    }
}

impl std::error::Error for DistributionError {}

/// A registered distribution: the fragmentation design of one collection
/// plus the allocation of its fragments to nodes.
#[derive(Debug, Clone)]
pub struct Distribution {
    pub design: FragmentationSchema,
    pub placements: Vec<Placement>,
}

impl Distribution {
    /// Every node hosting a replica of `fragment`, in placement order.
    /// Duplicate placements of the same fragment on the same node are
    /// collapsed to one entry (first occurrence wins), so replica rings
    /// never visit a node twice even if a caller slipped a duplicate
    /// past validation.
    pub fn nodes_of(&self, fragment: &str) -> Vec<usize> {
        let mut nodes = Vec::new();
        for p in &self.placements {
            if p.fragment == fragment && !nodes.contains(&p.node) {
                nodes.push(p.node);
            }
        }
        nodes
    }

    /// Validate the placement list against the design: every fragment
    /// must be placed on at least one node; replicas (the same fragment
    /// on several nodes) are allowed but must not repeat a node; every
    /// placement must name a fragment the design actually defines.
    pub fn validate(&self) -> Result<(), DistributionError> {
        for frag in &self.design.fragments {
            let mut seen: Vec<usize> = Vec::new();
            for p in self.placements.iter().filter(|p| p.fragment == frag.name) {
                if seen.contains(&p.node) {
                    return Err(DistributionError::DuplicateReplica {
                        fragment: frag.name.clone(),
                        node: p.node,
                    });
                }
                seen.push(p.node);
            }
            if seen.is_empty() {
                return Err(DistributionError::Unplaced { fragment: frag.name.clone() });
            }
        }
        for p in &self.placements {
            if !self.design.fragments.iter().any(|f| f.name == p.fragment) {
                return Err(DistributionError::UnknownFragment {
                    fragment: p.fragment.clone(),
                });
            }
        }
        Ok(())
    }

    /// [`Distribution::validate`] plus a node-range check against a
    /// cluster of `nodes` nodes — the full registration-time gate.
    pub fn validate_against(&self, nodes: usize) -> Result<(), DistributionError> {
        self.validate()?;
        for p in &self.placements {
            if p.node >= nodes {
                return Err(DistributionError::NodeOutOfRange {
                    fragment: p.fragment.clone(),
                    node: p.node,
                    nodes,
                });
            }
        }
        Ok(())
    }
}

/// The XML Distribution Catalog Service (paper Sec. 4). A design's
/// data-type schema travels with it, in its [`partix_schema::CollectionDef`].
#[derive(Debug, Default)]
pub struct Catalog {
    // Arc'd so per-query lookups can take a reference-count bump instead
    // of deep-cloning the whole design + placement list.
    distributions: HashMap<String, Arc<Distribution>>,
    epoch: u64,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a collection's fragmentation design + allocation. The
    /// design is validated (fragment rules, placement completeness, and
    /// node indices against a cluster of `nodes` nodes). Replaces any
    /// previous distribution of the collection atomically: queries
    /// holding the old `Arc` finish against the old placements.
    pub fn register_distribution(
        &mut self,
        distribution: Distribution,
        nodes: usize,
    ) -> Result<(), DistributionError> {
        distribution.validate_against(nodes)?;
        distribution
            .design
            .validate()
            .map_err(|e| DistributionError::Design(e.to_string()))?;
        let name = distribution.design.collection.name.clone();
        self.distributions.insert(name, Arc::new(distribution));
        self.epoch += 1;
        Ok(())
    }

    /// How many registrations this catalog has taken: every coordinator
    /// sharing it reads the same number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Distribution of a collection, if fragmented.
    pub fn distribution(&self, collection: &str) -> Option<&Arc<Distribution>> {
        self.distributions.get(collection)
    }

    /// Names of all distributed collections.
    pub fn distributed_collections(&self) -> Vec<String> {
        let mut names: Vec<String> = self.distributions.keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_frag::FragmentDef;
    use partix_path::{PathExpr, Predicate};
    use partix_schema::builtin::virtual_store;
    use partix_schema::{CollectionDef, RepoKind};

    fn design() -> FragmentationSchema {
        let citems = CollectionDef::new(
            "items",
            Arc::new(virtual_store()),
            PathExpr::parse("/Store/Items/Item").unwrap(),
            RepoKind::MultipleDocuments,
        );
        FragmentationSchema::new(
            citems,
            vec![
                FragmentDef::horizontal(
                    "f_cd",
                    Predicate::parse(r#"/Item/Section = "CD""#).unwrap(),
                ),
                FragmentDef::horizontal(
                    "f_rest",
                    Predicate::parse(r#"not(/Item/Section = "CD")"#).unwrap(),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut cat = Catalog::new();
        assert_eq!(cat.epoch(), 0);
        cat.register_distribution(
            Distribution {
                design: design(),
                placements: vec![
                    Placement { fragment: "f_cd".into(), node: 0 },
                    Placement { fragment: "f_rest".into(), node: 1 },
                ],
            },
            2,
        )
        .unwrap();
        let dist = cat.distribution("items").unwrap();
        assert_eq!(dist.nodes_of("f_cd"), [0]);
        assert_eq!(dist.nodes_of("f_rest"), [1]);
        assert!(dist.nodes_of("zzz").is_empty());
        assert_eq!(cat.distributed_collections(), ["items"]);
        assert_eq!(cat.epoch(), 1);
    }

    #[test]
    fn missing_placement_rejected() {
        let mut cat = Catalog::new();
        let err = cat
            .register_distribution(
                Distribution {
                    design: design(),
                    placements: vec![Placement { fragment: "f_cd".into(), node: 0 }],
                },
                2,
            )
            .unwrap_err();
        assert_eq!(err, DistributionError::Unplaced { fragment: "f_rest".into() });
        assert!(err.to_string().contains("f_rest"));
    }

    #[test]
    fn empty_distribution_rejected() {
        let mut cat = Catalog::new();
        let err = cat
            .register_distribution(Distribution { design: design(), placements: vec![] }, 2)
            .unwrap_err();
        // the first fragment of the design is reported unplaced
        assert_eq!(err, DistributionError::Unplaced { fragment: "f_cd".into() });
        assert!(cat.distribution("items").is_none());
    }

    #[test]
    fn unknown_fragment_placement_rejected() {
        let mut cat = Catalog::new();
        let err = cat
            .register_distribution(
                Distribution {
                    design: design(),
                    placements: vec![
                        Placement { fragment: "f_cd".into(), node: 0 },
                        Placement { fragment: "f_rest".into(), node: 1 },
                        Placement { fragment: "f_typo".into(), node: 0 },
                    ],
                },
                2,
            )
            .unwrap_err();
        assert_eq!(err, DistributionError::UnknownFragment { fragment: "f_typo".into() });
    }

    #[test]
    fn out_of_range_node_rejected_with_cluster_size() {
        let mut cat = Catalog::new();
        let dist = Distribution {
            design: design(),
            placements: vec![
                Placement { fragment: "f_cd".into(), node: 0 },
                Placement { fragment: "f_rest".into(), node: 7 },
            ],
        };
        // without a cluster size the placement passes structural checks…
        assert!(dist.validate().is_ok());
        // …but the node-range gate rejects it
        let err = cat.register_distribution(dist, 2).unwrap_err();
        assert_eq!(
            err,
            DistributionError::NodeOutOfRange { fragment: "f_rest".into(), node: 7, nodes: 2 }
        );
        assert!(cat.distribution("items").is_none());
        // a refused registration leaves the epoch where it was
        assert_eq!(cat.epoch(), 0);
    }

    #[test]
    fn replicas_allowed_on_distinct_nodes() {
        let mut cat = Catalog::new();
        cat.register_distribution(
            Distribution {
                design: design(),
                placements: vec![
                    Placement { fragment: "f_cd".into(), node: 0 },
                    Placement { fragment: "f_cd".into(), node: 1 },
                    Placement { fragment: "f_rest".into(), node: 1 },
                ],
            },
            2,
        )
        .unwrap();
        let dist = cat.distribution("items").unwrap();
        assert_eq!(dist.nodes_of("f_cd"), [0, 1]);
    }

    #[test]
    fn duplicate_replica_on_same_node_rejected() {
        let mut cat = Catalog::new();
        let err = cat
            .register_distribution(
                Distribution {
                    design: design(),
                    placements: vec![
                        Placement { fragment: "f_cd".into(), node: 0 },
                        Placement { fragment: "f_cd".into(), node: 0 },
                        Placement { fragment: "f_rest".into(), node: 1 },
                    ],
                },
                2,
            )
            .unwrap_err();
        assert_eq!(err, DistributionError::DuplicateReplica { fragment: "f_cd".into(), node: 0 });
    }

    #[test]
    fn nodes_of_dedups_but_preserves_replica_order() {
        // construct the duplicate directly (bypassing validation) to pin
        // the dedup behaviour: first occurrence wins, order is stable
        let dist = Distribution {
            design: design(),
            placements: vec![
                Placement { fragment: "f_cd".into(), node: 2 },
                Placement { fragment: "f_cd".into(), node: 0 },
                Placement { fragment: "f_cd".into(), node: 2 },
                Placement { fragment: "f_cd".into(), node: 1 },
                Placement { fragment: "f_rest".into(), node: 1 },
            ],
        };
        assert_eq!(dist.nodes_of("f_cd"), [2, 0, 1]);
        // repeated calls are stable (ordering stability for replica rings)
        assert_eq!(dist.nodes_of("f_cd"), dist.nodes_of("f_cd"));
    }
}

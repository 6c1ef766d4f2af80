//! Fragment definitions and design-time validation.

use partix_algebra::Projection;
use partix_path::{PathExpr, Predicate};
use partix_schema::{CollectionDef, RepoKind};
use std::fmt;

/// Storage layout of a hybrid fragment (paper Sec. 5, hybrid experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FragMode {
    /// FragMode1: each selected unit subtree becomes an independent
    /// document. Precise provenance, but the query processor pays a
    /// per-document cost — the paper found this "very inefficient".
    ManySmallDocs,
    /// FragMode2: one document per source document, shaped like the
    /// original but containing only the selected units under the unit
    /// path's parent spine; its origin lists where each unit sat.
    #[default]
    SingleDoc,
}

/// The operator `γ` of a fragment `F := ⟨C, γ⟩`.
#[derive(Debug, Clone)]
pub enum FragOp {
    /// `σ_µ` — horizontal.
    Horizontal { predicate: Predicate },
    /// `π_{P,Γ}` — vertical.
    Vertical { projection: Projection },
    /// `π_{P,Γ} • σ_µ` — hybrid. `unit_path` selects the unit subtrees
    /// (e.g. `/Store/Items/Item`); `predicate` filters units (its paths
    /// are written against the unit root, e.g. `/Item/Section`);
    /// `prune` removes subtrees inside kept units.
    Hybrid {
        unit_path: PathExpr,
        prune: Vec<PathExpr>,
        predicate: Predicate,
        mode: FragMode,
    },
}

impl FragOp {
    /// Short operator description, e.g. `σ(/Item/Section = "CD")`.
    pub fn describe(&self) -> String {
        match self {
            FragOp::Horizontal { predicate } => format!("σ({predicate})"),
            FragOp::Vertical { projection } => {
                let prune: Vec<String> =
                    projection.prune.iter().map(|p| p.to_string()).collect();
                format!("π({}, {{{}}})", projection.path, prune.join(", "))
            }
            FragOp::Hybrid { unit_path, predicate, mode, .. } => {
                format!(
                    "π({unit_path}) • σ({predicate}) [{}]",
                    match mode {
                        FragMode::ManySmallDocs => "FragMode1",
                        FragMode::SingleDoc => "FragMode2",
                    }
                )
            }
        }
    }
}

/// A named fragment definition.
#[derive(Debug, Clone)]
pub struct FragmentDef {
    /// Fragment name — also the storage collection name on its node.
    pub name: String,
    pub op: FragOp,
}

impl FragmentDef {
    pub fn horizontal(name: &str, predicate: Predicate) -> FragmentDef {
        FragmentDef { name: name.to_owned(), op: FragOp::Horizontal { predicate } }
    }

    pub fn vertical(name: &str, path: PathExpr, prune: Vec<PathExpr>) -> FragmentDef {
        FragmentDef {
            name: name.to_owned(),
            op: FragOp::Vertical { projection: Projection::new(path, prune) },
        }
    }

    pub fn hybrid(
        name: &str,
        unit_path: PathExpr,
        predicate: Predicate,
        mode: FragMode,
    ) -> FragmentDef {
        FragmentDef {
            name: name.to_owned(),
            op: FragOp::Hybrid { unit_path, prune: Vec::new(), predicate, mode },
        }
    }
}

impl fmt::Display for FragmentDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} := ⟨C, {}⟩", self.name, self.op.describe())
    }
}

/// A fragmentation design error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignError {
    /// Horizontal fragmentation of an SD repository (paper: *"SD
    /// repositories may not be horizontally fragmented"*).
    HorizontalOnSingleDocument { fragment: String },
    /// A vertical path may select multiple sibling nodes without a
    /// positional pin (paper Def. 3's well-formedness restriction).
    MultiValuedProjection { fragment: String, path: String },
    /// A prune expression does not extend the projection path.
    PruneOutsideProjection { fragment: String, prune: String },
    /// A fragment path does not resolve against the collection schema.
    UnresolvablePath { fragment: String, path: String },
    /// Duplicate fragment names.
    DuplicateName { name: String },
    /// Horizontal fragments mixed with node-level (vertical/hybrid)
    /// fragments in one schema. Vertical and hybrid may mix — the paper's
    /// StoreHyb design combines a vertical prune fragment (`F4items`)
    /// with hybrid item fragments — but document-level and node-level
    /// fragmentation of the same collection cannot.
    MixedTypes,
    /// No fragments given.
    Empty,
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::HorizontalOnSingleDocument { fragment } => write!(
                f,
                "fragment {fragment}: SD repositories cannot be horizontally fragmented"
            ),
            DesignError::MultiValuedProjection { fragment, path } => write!(
                f,
                "fragment {fragment}: projection path {path} may select multiple nodes; \
                 pin an occurrence with [i] or choose a 0..1/1..1 path"
            ),
            DesignError::PruneOutsideProjection { fragment, prune } => write!(
                f,
                "fragment {fragment}: prune expression {prune} is not contained in the projection path"
            ),
            DesignError::UnresolvablePath { fragment, path } => {
                write!(f, "fragment {fragment}: path {path} does not resolve against the schema")
            }
            DesignError::DuplicateName { name } => {
                write!(f, "two fragments are both named {name}")
            }
            DesignError::MixedTypes => {
                write!(f, "a fragmentation schema must use a single fragment type")
            }
            DesignError::Empty => write!(f, "a fragmentation schema needs at least one fragment"),
        }
    }
}

impl std::error::Error for DesignError {}

/// A complete fragmentation design for one collection.
#[derive(Debug, Clone)]
pub struct FragmentationSchema {
    pub collection: CollectionDef,
    pub fragments: Vec<FragmentDef>,
}

impl FragmentationSchema {
    /// Build and validate a design.
    pub fn new(
        collection: CollectionDef,
        fragments: Vec<FragmentDef>,
    ) -> Result<FragmentationSchema, DesignError> {
        let schema = FragmentationSchema { collection, fragments };
        schema.validate()?;
        Ok(schema)
    }

    /// Check every design rule.
    pub fn validate(&self) -> Result<(), DesignError> {
        if self.fragments.is_empty() {
            return Err(DesignError::Empty);
        }
        let mut names = std::collections::HashSet::new();
        for frag in &self.fragments {
            if !names.insert(frag.name.as_str()) {
                return Err(DesignError::DuplicateName { name: frag.name.clone() });
            }
        }
        let has_horizontal = self
            .fragments
            .iter()
            .any(|f| matches!(f.op, FragOp::Horizontal { .. }));
        let has_node_level = self
            .fragments
            .iter()
            .any(|f| !matches!(f.op, FragOp::Horizontal { .. }));
        if has_horizontal && has_node_level {
            return Err(DesignError::MixedTypes);
        }
        // the schema the documents of this collection satisfy
        let doc_schema = self.collection.document_schema();
        for frag in &self.fragments {
            match &frag.op {
                FragOp::Horizontal { .. } => {
                    if self.collection.kind == RepoKind::SingleDocument {
                        return Err(DesignError::HorizontalOnSingleDocument {
                            fragment: frag.name.clone(),
                        });
                    }
                }
                FragOp::Vertical { projection } => {
                    if projection.check().is_err() {
                        return Err(DesignError::PruneOutsideProjection {
                            fragment: frag.name.clone(),
                            prune: projection
                                .prune
                                .iter()
                                .find(|g| g.strip_prefix(&projection.path).is_none())
                                .map(|g| g.to_string())
                                .unwrap_or_default(),
                        });
                    }
                    if let Some(ds) = &doc_schema {
                        if ds.resolve(&projection.path).is_none() {
                            return Err(DesignError::UnresolvablePath {
                                fragment: frag.name.clone(),
                                path: projection.path.to_string(),
                            });
                        }
                        if !ds.is_single_valued(&projection.path) {
                            return Err(DesignError::MultiValuedProjection {
                                fragment: frag.name.clone(),
                                path: projection.path.to_string(),
                            });
                        }
                    }
                }
                FragOp::Hybrid { unit_path, prune, .. } => {
                    for g in prune {
                        if g.strip_prefix(unit_path).is_none() {
                            return Err(DesignError::PruneOutsideProjection {
                                fragment: frag.name.clone(),
                                prune: g.to_string(),
                            });
                        }
                    }
                    if let Some(ds) = &doc_schema {
                        if ds.resolve(unit_path).is_none() {
                            return Err(DesignError::UnresolvablePath {
                                fragment: frag.name.clone(),
                                path: unit_path.to_string(),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Fragment family of this design: horizontal, vertical, or hybrid
    /// (a design with any hybrid fragment counts as hybrid — the paper's
    /// StoreHyb combines hybrid item fragments with a vertical prune
    /// fragment).
    pub fn frag_type(&self) -> FragType {
        if self.fragments.iter().any(|f| matches!(f.op, FragOp::Hybrid { .. })) {
            FragType::Hybrid
        } else if self.fragments.iter().any(|f| matches!(f.op, FragOp::Vertical { .. })) {
            FragType::Vertical
        } else {
            FragType::Horizontal
        }
    }
}

/// The three fragmentation families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragType {
    Horizontal,
    Vertical,
    Hybrid,
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_schema::builtin::virtual_store;
    use std::sync::Arc;

    fn p(s: &str) -> PathExpr {
        PathExpr::parse(s).unwrap()
    }

    fn pr(s: &str) -> Predicate {
        Predicate::parse(s).unwrap()
    }

    fn citems() -> CollectionDef {
        CollectionDef::new(
            "Citems",
            Arc::new(virtual_store()),
            p("/Store/Items/Item"),
            RepoKind::MultipleDocuments,
        )
    }

    fn cstore() -> CollectionDef {
        CollectionDef::new(
            "Cstore",
            Arc::new(virtual_store()),
            p("/Store"),
            RepoKind::SingleDocument,
        )
    }

    #[test]
    fn paper_figure_2_horizontal_design() {
        // F1CD / F2CD of Figure 2(a)
        let design = FragmentationSchema::new(
            citems(),
            vec![
                FragmentDef::horizontal("F1CD", pr(r#"/Item/Section = "CD""#)),
                FragmentDef::horizontal("F2CD", pr(r#"not(/Item/Section = "CD")"#)),
            ],
        )
        .unwrap();
        assert_eq!(design.frag_type(), FragType::Horizontal);
        assert!(design.fragments[0].to_string().contains("σ"));
    }

    #[test]
    fn horizontal_on_sd_rejected() {
        let err = FragmentationSchema::new(
            cstore(),
            vec![FragmentDef::horizontal("F1", pr(r#"/Store/Sections/Section/Name = "CD""#))],
        )
        .unwrap_err();
        assert!(matches!(err, DesignError::HorizontalOnSingleDocument { .. }));
    }

    #[test]
    fn paper_figure_3_vertical_design() {
        // F1items / F2items of Figure 3(a)
        let design = FragmentationSchema::new(
            citems(),
            vec![
                FragmentDef::vertical("F1items", p("/Item"), vec![p("/Item/PictureList")]),
                FragmentDef::vertical("F2items", p("/Item/PictureList"), vec![]),
            ],
        )
        .unwrap();
        assert_eq!(design.frag_type(), FragType::Vertical);
    }

    #[test]
    fn multivalued_projection_rejected() {
        // Picture is 1..n → not single-valued without a position
        let err = FragmentationSchema::new(
            citems(),
            vec![FragmentDef::vertical(
                "bad",
                p("/Item/PictureList/Picture"),
                vec![],
            )],
        )
        .unwrap_err();
        assert!(matches!(err, DesignError::MultiValuedProjection { .. }));
        // pinned position is fine
        FragmentationSchema::new(
            citems(),
            vec![FragmentDef::vertical(
                "ok",
                p("/Item/PictureList/Picture[1]"),
                vec![],
            )],
        )
        .unwrap();
    }

    #[test]
    fn prune_outside_projection_rejected() {
        let err = FragmentationSchema::new(
            citems(),
            vec![FragmentDef::vertical(
                "bad",
                p("/Item/PictureList"),
                vec![p("/Item/Code")],
            )],
        )
        .unwrap_err();
        assert!(matches!(err, DesignError::PruneOutsideProjection { .. }));
    }

    #[test]
    fn unresolvable_path_rejected() {
        let err = FragmentationSchema::new(
            citems(),
            vec![FragmentDef::vertical("bad", p("/Item/Nonexistent"), vec![])],
        )
        .unwrap_err();
        assert!(matches!(err, DesignError::UnresolvablePath { .. }));
    }

    #[test]
    fn mixed_types_rejected() {
        let err = FragmentationSchema::new(
            citems(),
            vec![
                FragmentDef::horizontal("F1", pr(r#"/Item/Section = "CD""#)),
                FragmentDef::vertical("F2", p("/Item/PictureList"), vec![]),
            ],
        )
        .unwrap_err();
        assert_eq!(err, DesignError::MixedTypes);
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = FragmentationSchema::new(
            citems(),
            vec![
                FragmentDef::horizontal("F1", pr(r#"/Item/Section = "CD""#)),
                FragmentDef::horizontal("F1", pr(r#"/Item/Section = "DVD""#)),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, DesignError::DuplicateName { .. }));
    }

    #[test]
    fn empty_design_rejected() {
        assert_eq!(
            FragmentationSchema::new(citems(), vec![]).unwrap_err(),
            DesignError::Empty
        );
    }

    #[test]
    fn paper_figure_4_hybrid_design() {
        let design = FragmentationSchema::new(
            cstore(),
            vec![
                FragmentDef::hybrid(
                    "F1items",
                    p("/Store/Items/Item"),
                    pr(r#"/Item/Section = "CD""#),
                    FragMode::SingleDoc,
                ),
                FragmentDef::hybrid(
                    "F2items",
                    p("/Store/Items/Item"),
                    pr(r#"/Item/Section = "DVD""#),
                    FragMode::SingleDoc,
                ),
                FragmentDef::hybrid(
                    "F3items",
                    p("/Store/Items/Item"),
                    pr(r#"/Item/Section != "CD" and /Item/Section != "DVD""#),
                    FragMode::SingleDoc,
                ),
                // F4items := π /Store, {/Store/Items} — the vertical prune
                // fragment holding everything outside Items
                FragmentDef::vertical("F4items", p("/Store"), vec![p("/Store/Items")]),
            ],
        )
        .unwrap();
        assert_eq!(design.frag_type(), FragType::Hybrid);
        assert!(design.fragments[0].to_string().contains("FragMode2"));
    }
}

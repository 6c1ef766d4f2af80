//! Typed collections: `C := ⟨S, τ_root⟩`, SD and MD repositories.

use crate::decl::{ElementDecl, Schema};
use partix_path::PathExpr;
use std::fmt;
use std::sync::Arc;

/// Repository kind (paper Sec. 3.1, after \[17]): a repository is either a
/// single large document (**SD**) or a set of many documents (**MD**).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepoKind {
    /// Single Document — e.g. `C_store := ⟨S_virtual_store, /Store⟩`.
    SingleDocument,
    /// Multiple Documents — e.g. `C_items := ⟨S_virtual_store,
    /// /Store/Items/Item⟩`.
    MultipleDocuments,
}

impl fmt::Display for RepoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RepoKind::SingleDocument => "SD",
            RepoKind::MultipleDocuments => "MD",
        })
    }
}

/// Definition of a homogeneous collection.
#[derive(Debug, Clone)]
pub struct CollectionDef {
    /// Collection name, e.g. `"Citems"`.
    pub name: String,
    /// The global schema `S`.
    pub schema: Arc<Schema>,
    /// The root type `τ_root`, given as a path into `S`
    /// (e.g. `/Store/Items/Item`).
    pub root_path: PathExpr,
    pub kind: RepoKind,
}

impl CollectionDef {
    pub fn new(
        name: &str,
        schema: Arc<Schema>,
        root_path: PathExpr,
        kind: RepoKind,
    ) -> CollectionDef {
        CollectionDef { name: name.to_owned(), schema, root_path, kind }
    }

    /// The schema each *document* of this collection satisfies: `S`
    /// re-rooted at `τ_root`. `None` if `root_path` does not resolve.
    pub fn document_schema(&self) -> Option<Schema> {
        self.schema.subschema(&self.root_path)
    }

    /// The declaration each document of this collection is rooted at,
    /// read in place: what [`CollectionDef::document_schema`] copies.
    pub fn document_root(&self) -> Option<&ElementDecl> {
        let decl = self.schema.resolve(&self.root_path)?;
        (!self.root_path.targets_attribute()).then_some(decl)
    }

    /// Label every document root must carry.
    pub fn root_label(&self) -> Option<String> {
        self.schema.resolve(&self.root_path).map(|d| d.name.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::virtual_store;

    #[test]
    fn paper_figure_1b_collections() {
        let schema = Arc::new(virtual_store());
        let citems = CollectionDef::new(
            "Citems",
            Arc::clone(&schema),
            PathExpr::parse("/Store/Items/Item").unwrap(),
            RepoKind::MultipleDocuments,
        );
        let cstore = CollectionDef::new(
            "Cstore",
            schema,
            PathExpr::parse("/Store").unwrap(),
            RepoKind::SingleDocument,
        );
        assert_eq!(citems.root_label().as_deref(), Some("Item"));
        assert_eq!(cstore.root_label().as_deref(), Some("Store"));
        assert_eq!(citems.document_schema().unwrap().root.name, "Item");
        assert_eq!(cstore.kind.to_string(), "SD");
        assert_eq!(citems.kind.to_string(), "MD");
    }

    #[test]
    fn unresolvable_root_path() {
        let schema = Arc::new(virtual_store());
        let bad = CollectionDef::new(
            "bad",
            schema,
            PathExpr::parse("/Nope").unwrap(),
            RepoKind::MultipleDocuments,
        );
        assert!(bad.document_schema().is_none());
        assert!(bad.root_label().is_none());
    }
}

//! The paper's running example end-to-end: the `virtual_store` schema
//! (Figure 1), the horizontal fragment definitions of Figure 2, the
//! correctness rules of Section 3.3, and distributed query processing
//! over the fragmented `C_items` collection.
//!
//! ```sh
//! cargo run --release --example virtual_store
//! ```

use partix::engine::{Distribution, NetworkModel, PartiX, Placement};
use partix::frag::{check_correctness, FragmentDef, Fragmenter, FragmentationSchema};
use partix::gen::{gen_items, ItemProfile};
use partix::path::{PathExpr, Predicate};
use partix::schema::{builtin, CollectionDef, RepoKind};
use std::sync::Arc;

fn main() {
    // C_items := ⟨S_virtual_store, /Store/Items/Item⟩, an MD repository
    // (paper Figure 1(b)).
    let schema = Arc::new(builtin::virtual_store());
    let citems = CollectionDef::new(
        "Citems",
        Arc::clone(&schema),
        PathExpr::parse("/Store/Items/Item").expect("valid path"),
        RepoKind::MultipleDocuments,
    );
    println!(
        "collection {} := ⟨{}, {}⟩ ({})",
        citems.name, schema.name, citems.root_path, citems.kind
    );

    // Figure 2(a): F1CD selects CD items, F2CD the complement.
    let f1 = FragmentDef::horizontal(
        "F1CD",
        Predicate::parse(r#"/Item/Section = "CD""#).expect("valid"),
    );
    let f2 = FragmentDef::horizontal(
        "F2CD",
        Predicate::parse(r#"not(/Item/Section = "CD")"#).expect("valid"),
    );
    println!("{f1}");
    println!("{f2}");
    let design = FragmentationSchema::new(citems, vec![f1, f2]).expect("valid design");

    // Generate ToXgene-style items and fragment them.
    let docs = gen_items(500, ItemProfile::Small, 42);
    let fragmenter = Fragmenter::new(design.clone());
    let fragments = fragmenter.fragment_all(&docs);
    for (name, frag_docs) in &fragments {
        println!("fragment {name}: {} documents", frag_docs.len());
    }

    // Section 3.3: completeness, disjointness, reconstruction.
    let report = check_correctness(&design, &docs, &fragments);
    println!(
        "correctness check: {}",
        if report.is_correct() { "complete, disjoint, reconstructible ✓" } else { "VIOLATED" }
    );
    for violation in &report.violations {
        println!("  {violation}");
    }
    assert!(report.is_correct());

    // A deliberately broken design is caught: CD and ¬DVD overlap.
    let broken = FragmentationSchema::new(
        design.collection.clone(),
        vec![
            FragmentDef::horizontal(
                "F1",
                Predicate::parse(r#"/Item/Section = "CD""#).expect("valid"),
            ),
            FragmentDef::horizontal(
                "F2",
                Predicate::parse(r#"not(/Item/Section = "DVD")"#).expect("valid"),
            ),
        ],
    )
    .expect("passes design rules — data-level check catches it");
    let broken_frags = Fragmenter::new(broken.clone()).fragment_all(&docs);
    let broken_report = check_correctness(&broken, &docs, &broken_frags);
    println!(
        "broken design violations detected: {}",
        broken_report.violations.len()
    );
    assert!(!broken_report.is_correct());

    // Distribute across two nodes and query.
    let px = PartiX::new(2, NetworkModel::default());
    px.register_distribution(Distribution {
        design,
        placements: vec![
            Placement { fragment: "F1CD".into(), node: 0 },
            Placement { fragment: "F2CD".into(), node: 1 },
        ],
    })
    .expect("valid placement");
    px.publish("Citems", &docs).expect("publish");

    for (label, query) in [
        (
            "localized to F1CD",
            r#"for $i in collection("Citems")/Item
               where $i/Section = "CD" and contains($i//Description, "good")
               return $i/Name"#,
        ),
        (
            "distributive aggregate over both fragments",
            r#"count(for $i in collection("Citems")/Item
                     where contains($i//Description, "good") return $i)"#,
        ),
    ] {
        let result = px.execute(query).expect("query runs");
        println!(
            "\n[{label}] {} item(s), {} site(s), {} pruned\n{}",
            result.items.len(),
            result.report.sites.len(),
            result.report.fragments_pruned,
            result.report,
        );
    }
}

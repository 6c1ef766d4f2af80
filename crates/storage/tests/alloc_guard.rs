//! Allocation guard: a candidate document the `where` clause rejects
//! costs the evaluator no heap allocation.
//!
//! For the QH3 / QH7 / QH8 shapes, executing over `N` documents and over
//! `2 N` documents — the added `N` all candidates the `where` rejects —
//! may differ by at most `N / 16` allocations (the snapshot vectors grow
//! by a reallocation or two; the interpreter this replaced spent 15–25
//! allocations on *each* rejected document). Indexes are off, so the
//! prefilter cannot remove the added documents before the evaluator sees
//! them; hot (arena-backed) and cold (page-backed) collections, morsels
//! on and off.
//!
//! A test binary of its own, with one test: the counting allocator is
//! process-wide.

use partix_storage::{Database, MorselConfig, StorageMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above; `ptr` came from `System.alloc` via `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const N: usize = 512;

/// Document `i`; `accepted` decides whether the three `where` clauses
/// below keep it.
fn item(i: usize, accepted: bool) -> partix_xml::Document {
    let (code, section, word) =
        if accepted { (i, "CD", "vintage") } else { (1_000_000 + i, "DVD", "modern") };
    let mut xml = format!(
        "<Item><Code>{code}</Code><Name>item {i}</Name>\
         <Description>a {word} thing</Description><Section>{section}</Section>"
    );
    for c in 0..4 {
        xml.push_str(&format!(
            "<Characteristics><Description>plain characteristic {c}</Description>\
             </Characteristics>"
        ));
    }
    xml.push_str("</Item>");
    let mut doc = partix_xml::parse(&xml).expect("fixture parses");
    doc.name = Some(format!("item{i}"));
    doc
}

fn database(docs: usize, mode: StorageMode, morsels: MorselConfig) -> Database {
    let db = Database::new();
    db.create_collection("items", mode).unwrap();
    // the first N: every other one accepted; beyond N: all rejected
    db.store_all("items", (0..docs).map(|i| item(i, i < N && i % 2 == 0)));
    db.set_index_enabled(false);
    db.set_morsel_config(morsels);
    db
}

fn allocations_of(db: &Database, query: &str, expect_items: usize) -> u64 {
    // first run: lazy one-time set-up (the morsel pool) is not the query's
    let warm = db.execute(query).unwrap();
    assert_eq!(warm.items.len(), expect_items, "{query}");
    assert!(!warm.stats.index_used, "the prefilter must stay out of this");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = db.execute(query).unwrap();
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(out.stats.docs_scanned, db.collection_len("items").unwrap());
    drop(out);
    spent
}

#[test]
fn rejected_documents_cost_no_allocation() {
    let queries = [
        // QH3: range over a number
        (
            r#"for $i in collection("items")/Item where number($i/Code) < 1000 return $i/Name"#,
            N / 2,
        ),
        // QH7: counted equality selection
        (r#"count(for $i in collection("items")/Item where $i/Section = "CD" return $i)"#, 1),
        // QH8: counted text search over a descendant step
        (
            r#"count(for $i in collection("items")/Item
                     where contains($i//Description, "vintage") return $i)"#,
            1,
        ),
    ];
    let off = MorselConfig { max_workers: 1, min_docs: 32 };
    let on = MorselConfig { max_workers: 4, min_docs: 32 };
    for mode in [StorageMode::Hot, StorageMode::Cold] {
        for morsels in [off, on] {
            let (small, large) = (database(N, mode, morsels), database(2 * N, mode, morsels));
            for (query, items) in queries {
                let base = allocations_of(&small, query, items);
                let doubled = allocations_of(&large, query, items);
                let extra = doubled.saturating_sub(base);
                assert!(
                    extra <= (N / 16) as u64,
                    "{N} more rejected documents cost {extra} allocations \
                     ({base} → {doubled}), {mode:?}, {morsels:?}: {query}"
                );
            }
        }
    }
}

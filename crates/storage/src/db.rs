//! The database: named collections of documents plus their indexes.

use crate::index::{PathIndex, TextIndex, ValueIndex};
use parking_lot::RwLock;
use partix_query::{CollectionProvider, EvalError};
use partix_xml::{binary, Document};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// How a collection keeps its documents. The mode only picks the
/// representation a document is given when it is inserted; every read
/// afterwards hands out the stored `Arc<Document>` as it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageMode {
    /// Owned arenas (eXist's paged DOM in memory): the fastest to read
    /// and the form updates build on. A page arriving from disk or over
    /// the wire is converted once, at insert.
    #[default]
    Hot,
    /// Compact binary pages, validated at insert and **read in place** —
    /// no per-access decode, and the first write to a fetched document
    /// copies it. What is left of the per-document cost the paper
    /// observed for fragments stored as many small documents (FragMode1)
    /// is the index probe and the evaluator's own per-document overhead.
    Cold,
}

/// Storage-level failures.
#[derive(Debug)]
pub enum StorageError {
    UnknownCollection(String),
    DuplicateCollection(String),
    Io(std::io::Error),
    Corrupt(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownCollection(n) => write!(f, "unknown collection {n:?}"),
            StorageError::DuplicateCollection(n) => {
                write!(f, "collection {n:?} already exists")
            }
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt storage: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> StorageError {
        StorageError::Io(e)
    }
}

/// Tombstone count at which a collection considers compacting; actual
/// compaction additionally requires the dead slots to outnumber the live
/// ones, so the O(collection) rebuild amortizes over at least as many
/// deletions as there are surviving documents.
const COMPACT_MIN_DEAD: usize = 64;

/// One stored collection.
///
/// Slots are **stable**: deleting a document tombstones its slot (the
/// per-slot entry goes to `None`) instead of shifting every later slot
/// down. Index entries for dead slots go stale harmlessly — every probe
/// filters through the liveness check — and the vector is compacted
/// (with an index rebuild) only once tombstones dominate.
pub struct Collection {
    pub name: String,
    pub mode: StorageMode,
    /// The documents, in the representation `mode` picked at insert and
    /// shared with query results; `None` = tombstone. A document's name
    /// is read off the document itself (no page is decoded for it).
    docs: Vec<Option<Arc<Document>>>,
    /// name → live slots carrying it, ascending. Documents stored through
    /// the raw `store` path may duplicate names; lookups resolve to the
    /// lowest slot, matching the old first-match scan.
    name_map: HashMap<String, Vec<u32>>,
    /// Live (non-tombstoned) slot count.
    live: usize,
    value_index: ValueIndex,
    text_index: TextIndex,
    path_index: PathIndex,
}

impl Collection {
    fn new(name: &str, mode: StorageMode) -> Collection {
        Collection {
            name: name.to_owned(),
            mode,
            docs: Vec::new(),
            name_map: HashMap::new(),
            live: 0,
            value_index: ValueIndex::default(),
            text_index: TextIndex::default(),
            path_index: PathIndex::default(),
        }
    }

    /// Number of stored (live) documents.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn is_live(&self, slot: u32) -> bool {
        matches!(self.docs.get(slot as usize), Some(Some(_)))
    }

    /// All live slots, ascending — the full-scan candidate list. Slot
    /// numbers run over the physical vector, tombstones included.
    pub(crate) fn live_slots(&self) -> Vec<u32> {
        (0..self.docs.len() as u32).filter(|&s| self.is_live(s)).collect()
    }

    /// Total size of the stored documents in bytes: page lengths for
    /// page-backed documents, approximate for arenas.
    pub fn byte_size(&self) -> usize {
        self.docs.iter().flatten().map(|d| d.stored_bytes()).sum()
    }

    fn insert(&mut self, doc: Document) {
        self.insert_shared(Arc::new(doc));
    }

    /// Insert an already-shared document. A document already in the
    /// representation this collection keeps is adopted as it is (one
    /// refcount bump); otherwise it is converted once, here.
    fn insert_shared(&mut self, doc: Arc<Document>) {
        let doc = match self.mode {
            StorageMode::Hot => Document::arena_backed(doc),
            StorageMode::Cold => Document::page_backed(doc),
        };
        let slot = self.docs.len() as u32;
        self.value_index.insert(slot, &doc);
        self.text_index.insert(slot, &doc);
        self.path_index.insert(slot, &doc);
        if let Some(name) = &doc.name {
            // appends keep each slot list ascending
            self.name_map.entry(name.clone()).or_default().push(slot);
        }
        self.live += 1;
        self.docs.push(Some(doc));
    }

    /// Ingest an already-encoded binary page: validated once, here, and
    /// kept verbatim by a cold collection.
    fn insert_page(&mut self, page: bytes::Bytes) -> Result<(), StorageError> {
        let doc = Document::from_page(page)
            .map_err(|e| StorageError::Corrupt(format!("bad page: {e}")))?;
        self.insert(doc);
        Ok(())
    }

    /// Slot of the document named `name`, if any — one hash probe.
    fn slot_by_name(&self, name: &str) -> Option<u32> {
        self.name_map.get(name).and_then(|slots| slots.first().copied())
    }

    /// One stored document (a refcount bump). `slot` must be live.
    fn fetch(&self, slot: u32) -> Arc<Document> {
        Arc::clone(self.docs[slot as usize].as_ref().expect("live slot"))
    }

    fn all(&self) -> Vec<Arc<Document>> {
        self.docs.iter().flatten().cloned().collect()
    }

    /// Drop dead index entries and sort: probe results are ascending
    /// live slots.
    fn live_sorted(&self, set: impl IntoIterator<Item = u32>) -> Vec<u32> {
        let mut v: Vec<u32> = set.into_iter().filter(|&s| self.is_live(s)).collect();
        v.sort_unstable();
        v
    }

    /// Candidate slots for an equality probe keyed by final label.
    /// Authoritative superset: empty means no document qualifies.
    pub(crate) fn probe_value_label(&self, label: &str, value: &str) -> Vec<u32> {
        self.live_sorted(self.value_index.candidates_by_label(label, value))
    }

    /// Candidate slots for an equality probe keyed by the full label path
    /// (e.g. `Item/Section`, `Item/@id`).
    pub(crate) fn probe_value_path(&self, path: &str, value: &str) -> Vec<u32> {
        self.live_sorted(self.value_index.candidates_by_path(path, value))
    }

    /// Candidate slots for an existential probe on a label; an unseen
    /// label yields the empty set.
    pub(crate) fn probe_label(&self, label: &str) -> Vec<u32> {
        match self.path_index.lookup(label) {
            Some(set) => self.live_sorted(set.iter().copied()),
            None => Vec::new(),
        }
    }

    /// Candidate slots for an existential probe on a full label path.
    pub(crate) fn probe_path(&self, path: &str) -> Vec<u32> {
        match self.path_index.lookup_path(path) {
            Some(set) => self.live_sorted(set.iter().copied()),
            None => Vec::new(),
        }
    }

    /// Candidate slots for a `contains` probe; `None` = full scan needed.
    pub(crate) fn probe_contains(&self, needle: &str) -> Option<Vec<u32>> {
        self.text_index.lookup_contains(needle).map(|set| self.live_sorted(set))
    }

    /// The documents in `slots` (all live). Readers keep them after
    /// releasing the collection lock: a slot number means nothing once a
    /// concurrent delete tombstoned it or a compaction renumbered it, the
    /// `Arc` still holds the document.
    pub(crate) fn fetch_slots(&self, slots: &[u32]) -> Vec<Arc<Document>> {
        slots.iter().map(|&s| self.fetch(s)).collect()
    }

    /// Raw binary pages of the live documents (for persistence and for
    /// shipping to other nodes).
    pub fn pages(&self) -> Vec<bytes::Bytes> {
        self.docs.iter().flatten().map(|d| binary::encode(d)).collect()
    }

    /// Remove the document named `name`, if present. O(1): the slot is
    /// tombstoned in place, stale index entries are filtered at probe
    /// time, and compaction is deferred until tombstones dominate.
    fn remove_by_name(&mut self, name: &str) -> bool {
        let Some(slots) = self.name_map.get_mut(name) else { return false };
        // lowest slot first, matching the old first-match scan semantics
        let slot = slots.remove(0);
        if slots.is_empty() {
            self.name_map.remove(name);
        }
        self.docs[slot as usize] = None;
        self.live -= 1;
        self.maybe_compact();
        true
    }

    fn maybe_compact(&mut self) {
        let dead = self.docs.len() - self.live;
        if dead >= COMPACT_MIN_DEAD && dead > self.live {
            self.compact();
        }
    }

    /// Drop tombstones, renumber slots, and rebuild the name map and all
    /// indexes.
    fn compact(&mut self) {
        let survivors = std::mem::take(&mut self.docs);
        *self = Collection::new(&self.name, self.mode);
        for doc in survivors.into_iter().flatten() {
            self.insert_shared(doc);
        }
    }
}

/// A sequential XML database instance: what each PartiX node runs.
///
/// Thread-safe: the PartiX middleware queries many databases in parallel.
pub struct Database {
    collections: RwLock<HashMap<String, Arc<RwLock<Collection>>>>,
    use_indexes: std::sync::atomic::AtomicBool,
    use_value_index: std::sync::atomic::AtomicBool,
    /// Intra-query parallelism knobs (see [`crate::parallel`]).
    morsels: RwLock<crate::parallel::MorselConfig>,
}

impl Default for Database {
    fn default() -> Database {
        Database::new()
    }
}

impl Database {
    pub fn new() -> Database {
        Database {
            collections: RwLock::new(HashMap::new()),
            use_indexes: std::sync::atomic::AtomicBool::new(true),
            use_value_index: std::sync::atomic::AtomicBool::new(false),
            morsels: RwLock::new(crate::parallel::MorselConfig::default()),
        }
    }

    /// Set the morsel-parallelism knobs for this database instance.
    pub fn set_morsel_config(&self, config: crate::parallel::MorselConfig) {
        *self.morsels.write() = config;
    }

    /// Current morsel-parallelism knobs.
    pub fn morsel_config(&self) -> crate::parallel::MorselConfig {
        *self.morsels.read()
    }

    /// Enable/disable index-assisted scans (ablation studies; indexes are
    /// still maintained, just not consulted).
    pub fn set_index_enabled(&self, enabled: bool) {
        self.use_indexes.store(enabled, std::sync::atomic::Ordering::Release);
    }

    /// Whether index-assisted scans are enabled.
    pub fn index_enabled(&self) -> bool {
        self.use_indexes.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Enable equality probes against the value index. Off by default,
    /// mirroring the paper's eXist configuration: the automatically
    /// created indexes cover text search and path navigation, while
    /// value/range indexes needed manual setup (*"No other indexes were
    /// created"*).
    pub fn set_value_index_enabled(&self, enabled: bool) {
        self.use_value_index
            .store(enabled, std::sync::atomic::Ordering::Release);
    }

    /// Whether equality probes may use the value index.
    pub fn value_index_enabled(&self) -> bool {
        self.use_value_index.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Create a collection. Errors if the name is taken.
    pub fn create_collection(
        &self,
        name: &str,
        mode: StorageMode,
    ) -> Result<(), StorageError> {
        let mut map = self.collections.write();
        if map.contains_key(name) {
            return Err(StorageError::DuplicateCollection(name.to_owned()));
        }
        map.insert(name.to_owned(), Arc::new(RwLock::new(Collection::new(name, mode))));
        Ok(())
    }

    /// Store a document into a collection (created on demand, hot mode).
    pub fn store(&self, collection: &str, doc: Document) {
        let coll = self.get_or_create(collection);
        coll.write().insert(doc);
    }

    /// Store many documents at once.
    pub fn store_all(&self, collection: &str, docs: impl IntoIterator<Item = Document>) {
        let coll = self.get_or_create(collection);
        let mut guard = coll.write();
        for doc in docs {
            guard.insert(doc);
        }
    }

    /// Store shared documents without deep-copying them (hot collections
    /// adopt arena `Arc`s directly, cold ones page-backed `Arc`s) — the
    /// path used when the coordinator stores rebuilt fragments.
    pub fn store_all_shared(
        &self,
        collection: &str,
        docs: impl IntoIterator<Item = Arc<Document>>,
    ) {
        let coll = self.get_or_create(collection);
        let mut guard = coll.write();
        for doc in docs {
            guard.insert_shared(doc);
        }
    }

    /// Ingest already-encoded binary pages into a collection (which must
    /// exist — create it first to pick the storage mode). Every page is
    /// validated; cold collections then keep it verbatim and read it in
    /// place, so a load never decodes a document.
    pub fn store_pages(
        &self,
        collection: &str,
        pages: impl IntoIterator<Item = bytes::Bytes>,
    ) -> Result<usize, StorageError> {
        let coll = self
            .get(collection)
            .ok_or_else(|| StorageError::UnknownCollection(collection.to_owned()))?;
        let mut guard = coll.write();
        let mut stored = 0;
        for page in pages {
            guard.insert_page(page)?;
            stored += 1;
        }
        Ok(stored)
    }

    fn get_or_create(&self, name: &str) -> Arc<RwLock<Collection>> {
        if let Some(c) = self.collections.read().get(name) {
            return Arc::clone(c);
        }
        let mut map = self.collections.write();
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(RwLock::new(Collection::new(name, StorageMode::Hot)))),
        )
    }

    pub(crate) fn get(&self, name: &str) -> Option<Arc<RwLock<Collection>>> {
        self.collections.read().get(name).cloned()
    }

    /// Names of all collections, sorted.
    pub fn collection_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.collections.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Documents in a collection.
    pub fn collection_len(&self, name: &str) -> Result<usize, StorageError> {
        self.get(name)
            .map(|c| c.read().len())
            .ok_or_else(|| StorageError::UnknownCollection(name.to_owned()))
    }

    /// Total bytes stored in a collection.
    pub fn collection_bytes(&self, name: &str) -> Result<usize, StorageError> {
        self.get(name)
            .map(|c| c.read().byte_size())
            .ok_or_else(|| StorageError::UnknownCollection(name.to_owned()))
    }

    /// Drop a collection; succeeds silently if absent.
    pub fn drop_collection(&self, name: &str) {
        self.collections.write().remove(name);
    }

    /// Upsert a document keyed by its name: any existing document with
    /// the same name in `collection` is replaced first (so storing the
    /// same document twice converges instead of duplicating). Returns
    /// whether a previous version was replaced. Unnamed documents are
    /// plain inserts — they can never be replaced or deleted later.
    pub fn put_doc(&self, collection: &str, doc: Document) -> bool {
        let coll = self.get_or_create(collection);
        let mut guard = coll.write();
        let replaced = match doc.name.as_deref() {
            Some(name) => guard.remove_by_name(name),
            None => false,
        };
        guard.insert(doc);
        replaced
    }

    /// Delete the document named `name` from `collection`. Returns
    /// whether anything was removed (an absent collection or name is a
    /// no-op, keeping deletes idempotent).
    pub fn delete_doc(&self, collection: &str, name: &str) -> bool {
        let Some(coll) = self.get(collection) else { return false };
        let removed = coll.write().remove_by_name(name);
        removed
    }

    /// Apply one logged/replicated [`crate::wal::WriteOp`]. Idempotent:
    /// applying the same op twice converges to the same state. Returns
    /// the number of documents affected (0 or 1; for a `Put`, 1 when a
    /// previous version was replaced, 0 for a fresh insert).
    pub fn apply_write(&self, op: &crate::wal::WriteOp) -> u32 {
        match op {
            crate::wal::WriteOp::Put { collection, doc } => {
                u32::from(self.put_doc(collection, doc.clone()))
            }
            crate::wal::WriteOp::Delete { collection, name } => {
                u32::from(self.delete_doc(collection, name))
            }
        }
    }
}

impl CollectionProvider for Database {
    fn collection(&self, name: &str) -> Result<Vec<Arc<Document>>, EvalError> {
        self.get(name)
            .map(|c| c.read().all())
            .ok_or_else(|| EvalError::UnknownCollection(name.to_owned()))
    }

    fn document(&self, name: &str) -> Result<Arc<Document>, EvalError> {
        for coll in self.collections.read().values() {
            let guard = coll.read();
            if let Some(slot) = guard.slot_by_name(name) {
                return Ok(guard.fetch(slot));
            }
        }
        Err(EvalError::UnknownDocument(name.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_path::Predicate;
    use partix_xml::parse;

    fn make_db(mode: StorageMode) -> Database {
        let db = Database::new();
        db.create_collection("items", mode).unwrap();
        for (name, xml) in [
            ("i1", "<Item><Section>CD</Section><D>good one</D></Item>"),
            ("i2", "<Item><Section>DVD</Section><D>fine</D></Item>"),
            ("i3", "<Item><Section>CD</Section><D>goodness</D></Item>"),
        ] {
            let mut d = parse(xml).unwrap();
            d.name = Some(name.to_owned());
            db.store("items", d);
        }
        db
    }

    #[test]
    fn store_and_fetch_hot() {
        let db = make_db(StorageMode::Hot);
        assert_eq!(db.collection_len("items").unwrap(), 3);
        let docs = db.collection("items").unwrap();
        assert_eq!(docs.len(), 3);
        assert_eq!(docs[0].name.as_deref(), Some("i1"));
    }

    #[test]
    fn store_and_fetch_cold_roundtrips() {
        let db = make_db(StorageMode::Cold);
        let docs = db.collection("items").unwrap();
        assert_eq!(docs.len(), 3);
        assert_eq!(docs[2].root().child_element("D").unwrap().text(), "goodness");
    }

    #[test]
    fn document_lookup_by_name() {
        let db = make_db(StorageMode::Hot);
        let d = db.document("i2").unwrap();
        assert_eq!(d.root().child_element("Section").unwrap().text(), "DVD");
        assert!(db.document("zzz").is_err());
    }

    #[test]
    fn document_lookup_works_cold_without_full_decode() {
        let db = make_db(StorageMode::Cold);
        // the name map answers the lookup; no other page is touched
        let d = db.document("i3").unwrap();
        assert_eq!(d.root().child_element("D").unwrap().text(), "goodness");
        assert!(db.document("zzz").is_err());
        // unnamed documents are skippable, not matchable
        db.store("items", parse("<Item><Section>LP</Section></Item>").unwrap());
        assert!(db.document("").is_err());
    }

    #[test]
    fn filtered_uses_value_index() {
        let db = make_db(StorageMode::Hot);
        db.set_value_index_enabled(true);
        let pred = Predicate::parse(r#"/Item/Section = "CD""#).unwrap();
        let docs = db.index_candidates("items", &pred).unwrap();
        assert_eq!(docs.len(), 2);
    }

    #[test]
    fn filtered_contains_is_sound_superset() {
        let db = make_db(StorageMode::Hot);
        let pred = Predicate::parse(r#"contains(/Item/D, "good")"#).unwrap();
        let docs = db.index_candidates("items", &pred).unwrap();
        // must include i1 (good) and i3 (goodness)
        let names: Vec<_> = docs.iter().map(|d| d.name.clone().unwrap()).collect();
        assert!(names.contains(&"i1".to_owned()));
        assert!(names.contains(&"i3".to_owned()));
    }

    #[test]
    fn duplicate_collection_rejected() {
        let db = Database::new();
        db.create_collection("c", StorageMode::Hot).unwrap();
        assert!(matches!(
            db.create_collection("c", StorageMode::Hot),
            Err(StorageError::DuplicateCollection(_))
        ));
    }

    #[test]
    fn unknown_collection_errors() {
        let db = Database::new();
        assert!(db.collection("nope").is_err());
        assert!(db.collection_len("nope").is_err());
    }

    #[test]
    fn drop_collection_removes() {
        let db = make_db(StorageMode::Hot);
        db.drop_collection("items");
        assert!(db.collection("items").is_err());
    }

    #[test]
    fn byte_size_positive() {
        let db = make_db(StorageMode::Hot);
        assert!(db.collection_bytes("items").unwrap() > 0);
    }

    #[test]
    fn store_all_shared_adopts_arcs() {
        let db = Database::new();
        let doc = Arc::new(parse("<Item><Section>CD</Section></Item>").unwrap());
        db.store_all_shared("c", vec![Arc::clone(&doc)]);
        let fetched = db.collection("c").unwrap();
        assert_eq!(fetched.len(), 1);
        // hot storage shares the exact allocation, no deep copy
        assert!(Arc::ptr_eq(&fetched[0], &doc));
        // shared inserts are indexed like owned ones
        let pred = Predicate::parse(r#"/Item/Section = "CD""#).unwrap();
        db.set_value_index_enabled(true);
        assert_eq!(db.index_candidates("c", &pred).unwrap().len(), 1);
    }

    #[test]
    fn delete_doc_removes_and_keeps_indexes_consistent() {
        for mode in [StorageMode::Hot, StorageMode::Cold] {
            let db = make_db(mode);
            assert!(db.delete_doc("items", "i1"));
            assert!(!db.delete_doc("items", "i1"), "second delete is a no-op");
            assert!(!db.delete_doc("items", "zzz"));
            assert!(!db.delete_doc("absent", "i1"));
            assert_eq!(db.collection_len("items").unwrap(), 2);
            // slots shifted: index probes must still answer correctly
            db.set_value_index_enabled(true);
            let pred = Predicate::parse(r#"/Item/Section = "CD""#).unwrap();
            let docs = db.index_candidates("items", &pred).unwrap();
            let names: Vec<_> = docs.iter().map(|d| d.name.clone().unwrap()).collect();
            assert_eq!(names, vec!["i3".to_owned()], "{mode:?}");
            let pred = Predicate::parse(r#"contains(/Item/D, "good")"#).unwrap();
            let names: Vec<_> = db
                .index_candidates("items", &pred)
                .unwrap()
                .iter()
                .map(|d| d.name.clone().unwrap())
                .collect();
            assert!(names.contains(&"i3".to_owned()), "{mode:?}");
            assert!(!names.contains(&"i1".to_owned()), "{mode:?}: stale index slot");
            assert!(db.document("i1").is_err());
        }
    }

    #[test]
    fn put_doc_replaces_by_name() {
        let db = make_db(StorageMode::Hot);
        let mut d = parse("<Item><Section>LP</Section><D>new</D></Item>").unwrap();
        d.name = Some("i2".to_owned());
        assert!(db.put_doc("items", d), "same-named doc must report replacement");
        assert_eq!(db.collection_len("items").unwrap(), 3, "replace, not append");
        let fetched = db.document("i2").unwrap();
        assert_eq!(fetched.root().child_element("Section").unwrap().text(), "LP");
        // fresh name is an insert
        let mut d = parse("<Item><Section>LP</Section></Item>").unwrap();
        d.name = Some("i9".to_owned());
        assert!(!db.put_doc("items", d));
        assert_eq!(db.collection_len("items").unwrap(), 4);
        // unnamed docs insert without replacing anything
        assert!(!db.put_doc("items", parse("<Item/>").unwrap()));
        assert_eq!(db.collection_len("items").unwrap(), 5);
    }

    #[test]
    fn write_ops_apply_idempotently() {
        let db = make_db(StorageMode::Hot);
        let mut d = parse("<Item><Section>CD</Section></Item>").unwrap();
        d.name = Some("w1".to_owned());
        let put = crate::wal::WriteOp::Put { collection: "items".into(), doc: d };
        assert_eq!(db.apply_write(&put), 0, "fresh insert affects no prior doc");
        assert_eq!(db.apply_write(&put), 1, "re-apply replaces, state converges");
        assert_eq!(db.collection_len("items").unwrap(), 4);
        let del = crate::wal::WriteOp::Delete { collection: "items".into(), name: "w1".into() };
        assert_eq!(db.apply_write(&del), 1);
        assert_eq!(db.apply_write(&del), 0);
        assert_eq!(db.collection_len("items").unwrap(), 3);
    }
}

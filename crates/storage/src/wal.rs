//! Per-node write-ahead log and crash recovery.
//!
//! Every online write (a [`WriteOp`]) goes through three stages:
//!
//! ```text
//! append (record → wal.log) → fsync (durability point) → apply (in-memory)
//! ```
//!
//! and is acknowledged only after all three. A node killed anywhere in
//! that pipeline restarts consistent: [`DurableDb::open`] loads the last
//! checkpoint ([`Database::save_to`] snapshot) and replays the log.
//! Replay is torn-tolerant — a record cut short by the crash (length
//! header incomplete, payload truncated, or checksum mismatch) ends the
//! replay at the last fully durable record — and idempotent, so replaying
//! the same log twice (or replaying records that also made it into the
//! snapshot) converges to the same state. [`DurableDb::checkpoint`]
//! persists the snapshot and truncates the log.
//!
//! For the crash/interleaving differential tests, a [`DurableDb`] carries
//! a one-shot kill point ([`DurableDb::set_kill`]): the next write aborts
//! at the chosen [`WalStage`] exactly as a `kill -9` there would —
//! `Append` leaves a torn half-record (lost on replay, and the caller was
//! never acknowledged), `Fsync`/`Apply` leave a fully durable record that
//! replay re-applies. After a kill the instance is dead (every call fails
//! with [`WalError::Dead`]) until it is "restarted" by reopening the
//! directory with [`DurableDb::open`].
//!
//! Record layout (all little-endian): `[len: u32][crc32: u32][payload]`,
//! one record per write, `crc32` covering the payload. The checksum is
//! [`crate::crc32`], the same kernel that seals wire frames; a record is
//! verified before its payload is decoded.

use crate::crc32;
use crate::db::{Database, StorageError};
use parking_lot::Mutex;
use partix_xml::{binary, Document};
use std::fmt;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// File name of the log inside a database directory.
pub const WAL_FILE: &str = "wal.log";

/// One online write, as routed by the coordinator and logged by the WAL.
///
/// `Put` is an upsert keyed by document *name*: any existing document
/// with the same name in the collection is replaced, so inserts and
/// updates share one primitive and replaying a log twice is a no-op.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Insert-or-replace `doc` (keyed by `doc.name`) in `collection`.
    Put { collection: String, doc: Document },
    /// Remove the document named `name` from `collection` (no-op when
    /// absent — deletes are idempotent).
    Delete { collection: String, name: String },
}

impl WriteOp {
    /// The collection this write touches.
    pub fn collection(&self) -> &str {
        match self {
            WriteOp::Put { collection, .. } | WriteOp::Delete { collection, .. } => collection,
        }
    }

    /// The document name this write is keyed by (`None` for an unnamed
    /// `Put`, which can never be replaced or deleted later).
    pub fn doc_name(&self) -> Option<&str> {
        match self {
            WriteOp::Put { doc, .. } => doc.name.as_deref(),
            WriteOp::Delete { name, .. } => Some(name),
        }
    }
}

impl fmt::Display for WriteOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteOp::Put { collection, doc } => {
                write!(f, "put {:?} into {collection:?}", doc.name.as_deref().unwrap_or("<unnamed>"))
            }
            WriteOp::Delete { collection, name } => {
                write!(f, "delete {name:?} from {collection:?}")
            }
        }
    }
}

/// The three stages of the write pipeline — also the kill points the
/// crash tests inject between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalStage {
    /// Crash mid-append: a torn half-record reaches the disk. The write
    /// was never acknowledged and is lost on replay.
    Append,
    /// Crash after the record is written but before the fsync returns.
    /// The record is on disk, so replay re-applies it.
    Fsync,
    /// Crash after the durability point but before the in-memory apply.
    /// Replay re-applies it.
    Apply,
}

impl WalStage {
    /// All stages, in pipeline order.
    pub const ALL: [WalStage; 3] = [WalStage::Append, WalStage::Fsync, WalStage::Apply];

    /// Whether a write killed at this stage survives recovery (its
    /// record reached the durability path in full).
    pub fn survives_recovery(self) -> bool {
        !matches!(self, WalStage::Append)
    }
}

impl fmt::Display for WalStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalStage::Append => f.write_str("append"),
            WalStage::Fsync => f.write_str("fsync"),
            WalStage::Apply => f.write_str("apply"),
        }
    }
}

/// WAL-level failures.
#[derive(Debug)]
pub enum WalError {
    /// The node was killed at the given stage (simulated crash).
    Killed(WalStage),
    /// The node already crashed; reopen the directory to restart it.
    Dead,
    Io(std::io::Error),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Killed(stage) => write!(f, "node killed at WAL stage {stage}"),
            WalError::Dead => f.write_str("node is down (killed mid-write; reopen to restart)"),
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> WalError {
        WalError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_u32(buf: &[u8], at: &mut usize) -> Option<u32> {
    let bytes = buf.get(*at..*at + 4)?;
    *at += 4;
    Some(u32::from_le_bytes(bytes.try_into().unwrap()))
}

fn get_str(buf: &[u8], at: &mut usize) -> Option<String> {
    let len = get_u32(buf, at)? as usize;
    let bytes = buf.get(*at..*at + len)?;
    *at += len;
    String::from_utf8(bytes.to_vec()).ok()
}

/// Serialize an op to a record payload (without the record header).
pub fn encode_op(op: &WriteOp) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match op {
        WriteOp::Put { collection, doc } => {
            out.push(0);
            put_str(&mut out, collection);
            let page = binary::encode(doc);
            out.extend_from_slice(&(page.len() as u32).to_le_bytes());
            out.extend_from_slice(&page);
        }
        WriteOp::Delete { collection, name } => {
            out.push(1);
            put_str(&mut out, collection);
            put_str(&mut out, name);
        }
    }
    out
}

/// Decode a record payload back into an op. `None` = corrupt payload.
pub fn decode_op(payload: &[u8]) -> Option<WriteOp> {
    let kind = *payload.first()?;
    let mut at = 1usize;
    match kind {
        0 => {
            let collection = get_str(payload, &mut at)?;
            let len = get_u32(payload, &mut at)? as usize;
            let page = payload.get(at..at + len)?;
            at += len;
            if at != payload.len() {
                return None;
            }
            let doc = binary::decode(page).ok()?;
            Some(WriteOp::Put { collection, doc })
        }
        1 => {
            let collection = get_str(payload, &mut at)?;
            let name = get_str(payload, &mut at)?;
            if at != payload.len() {
                return None;
            }
            Some(WriteOp::Delete { collection, name })
        }
        _ => None,
    }
}

/// Frame an op as a full on-disk record: `[len][crc32][payload]`.
pub fn encode_record(op: &WriteOp) -> Vec<u8> {
    let payload = encode_op(op);
    let mut record = Vec::with_capacity(8 + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

/// What a replay found in a log file.
#[derive(Debug, Default)]
pub struct ReplayReport {
    /// Fully durable records decoded.
    pub records: usize,
    /// Bytes covered by those records — everything past this offset is a
    /// torn tail (safe to truncate away).
    pub valid_bytes: u64,
    /// Whether a torn/corrupt tail was found (and ignored).
    pub torn: bool,
}

/// Read every durable record from a log buffer, stopping (not failing)
/// at the first torn or corrupt record — a crash can only tear the
/// *tail*, so everything before it is trustworthy.
pub fn replay_bytes(buf: &[u8]) -> (Vec<WriteOp>, ReplayReport) {
    let mut ops = Vec::new();
    let mut report = ReplayReport::default();
    let mut at = 0usize;
    while at < buf.len() {
        let mut cursor = at;
        let Some(len) = get_u32(buf, &mut cursor) else { break };
        let Some(crc) = get_u32(buf, &mut cursor) else { break };
        let Some(payload) = buf.get(cursor..cursor + len as usize) else { break };
        if crc32(payload) != crc {
            break;
        }
        let Some(op) = decode_op(payload) else { break };
        ops.push(op);
        at = cursor + len as usize;
        report.records += 1;
        report.valid_bytes = at as u64;
    }
    report.torn = (report.valid_bytes as usize) < buf.len();
    (ops, report)
}

/// Replay a log file (absent file = empty log).
pub fn replay_file(path: &Path) -> Result<(Vec<WriteOp>, ReplayReport), WalError> {
    match fs::read(path) {
        Ok(bytes) => Ok(replay_bytes(&bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Ok((Vec::new(), ReplayReport::default()))
        }
        Err(e) => Err(WalError::Io(e)),
    }
}

// ---------------------------------------------------------------------
// The log file
// ---------------------------------------------------------------------

/// An open write-ahead log: appends records, fsyncs, truncates at
/// checkpoints, and counts both for the benchmarks.
pub struct Wal {
    file: Mutex<fs::File>,
    path: PathBuf,
    appends: AtomicU64,
    fsyncs: AtomicU64,
}

impl Wal {
    /// Open (or create) the log at `path`, positioned for appends.
    pub fn open(path: &Path) -> Result<Wal, WalError> {
        let mut file =
            fs::OpenOptions::new().create(true).truncate(false).read(true).write(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            file: Mutex::new(file),
            path: path.to_owned(),
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
        })
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append raw bytes (a full record — or, for crash simulation, a
    /// deliberate prefix of one).
    pub fn append(&self, bytes: &[u8]) -> Result<(), WalError> {
        let mut file = self.file.lock();
        file.write_all(bytes)?;
        self.appends.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// The durability point: flush the log to stable storage.
    pub fn sync(&self) -> Result<(), WalError> {
        self.file.lock().sync_data()?;
        self.fsyncs.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Checkpoint: drop every logged record (the snapshot now covers
    /// them) and make the truncation itself durable.
    pub fn truncate(&self) -> Result<(), WalError> {
        let mut file = self.file.lock();
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        file.sync_data()?;
        self.fsyncs.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Current log size in bytes.
    pub fn len(&self) -> Result<u64, WalError> {
        Ok(self.file.lock().metadata()?.len())
    }

    /// Whether the log holds no bytes.
    pub fn is_empty(&self) -> Result<bool, WalError> {
        Ok(self.len()? == 0)
    }

    /// Records appended since this handle opened.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Acquire)
    }

    /// Fsyncs issued since this handle opened (including truncations).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Acquire)
    }

    /// Re-read and replay the log from disk (used by tests to prove
    /// idempotence without reopening the database).
    pub fn replay(&self) -> Result<(Vec<WriteOp>, ReplayReport), WalError> {
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        file.seek(SeekFrom::End(0))?;
        Ok(replay_bytes(&buf))
    }
}

// ---------------------------------------------------------------------
// DurableDb: Database + WAL + crash recovery
// ---------------------------------------------------------------------

/// A [`Database`] whose writes are write-ahead logged to a directory, so
/// a node killed mid-write reopens to a consistent state: last snapshot
/// plus every durable log record, in order.
pub struct DurableDb {
    db: Arc<Database>,
    wal: Wal,
    dir: PathBuf,
    /// One-shot kill point for crash tests (see [`DurableDb::set_kill`]).
    kill: Mutex<Option<WalStage>>,
    /// Set once a kill fires: the "process" is gone until reopen.
    dead: AtomicBool,
    /// Serializes the append→fsync→apply pipeline so the log order *is*
    /// the apply order.
    write_lock: Mutex<()>,
}

impl DurableDb {
    /// Open a database directory: load the snapshot (if any), replay the
    /// log's durable records on top, and position the log for appends.
    /// Creates the directory when missing.
    pub fn open(dir: &Path) -> Result<DurableDb, StorageError> {
        fs::create_dir_all(dir)?;
        let db = if dir.join("MANIFEST").exists() {
            Database::load_from(dir)?
        } else {
            Database::new()
        };
        let wal_path = dir.join(WAL_FILE);
        let (ops, report) = replay_file(&wal_path).map_err(wal_to_storage)?;
        for op in &ops {
            db.apply_write(op);
        }
        if report.torn {
            // Cut the torn tail off *now*: records appended after this
            // reopen must not land behind unreadable bytes, or the next
            // replay would stop at the old tear and lose them.
            let file = fs::OpenOptions::new().write(true).open(&wal_path)?;
            file.set_len(report.valid_bytes)?;
            file.sync_data()?;
        }
        let wal = Wal::open(&wal_path).map_err(wal_to_storage)?;
        Ok(DurableDb {
            db: Arc::new(db),
            wal,
            dir: dir.to_owned(),
            kill: Mutex::new(None),
            dead: AtomicBool::new(false),
            write_lock: Mutex::new(()),
        })
    }

    /// The in-memory database serving reads.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The directory this database persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The underlying log (counters, size).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Arm a one-shot kill point: the next write dies at `stage`.
    pub fn set_kill(&self, stage: Option<WalStage>) {
        *self.kill.lock() = stage;
    }

    /// Whether a kill has fired (the instance must be reopened).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    fn take_kill(&self, stage: WalStage) -> bool {
        let mut kill = self.kill.lock();
        if *kill == Some(stage) {
            *kill = None;
            self.dead.store(true, Ordering::Release);
            return true;
        }
        false
    }

    /// Run one write through the full pipeline. Returns the number of
    /// documents the op affected (0 or 1); an `Err` means the write was
    /// NOT acknowledged — for [`WalError::Killed`] the recovery outcome
    /// is deterministic per [`WalStage::survives_recovery`].
    pub fn apply(&self, op: &WriteOp) -> Result<u32, WalError> {
        let _guard = self.write_lock.lock();
        if self.is_dead() {
            return Err(WalError::Dead);
        }
        let record = encode_record(op);
        if self.take_kill(WalStage::Append) {
            // a torn half-record reaches the disk, exactly as a crash
            // mid-write leaves it; replay must shrug it off
            self.wal.append(&record[..record.len() / 2])?;
            return Err(WalError::Killed(WalStage::Append));
        }
        self.wal.append(&record)?;
        if self.take_kill(WalStage::Fsync) {
            return Err(WalError::Killed(WalStage::Fsync));
        }
        self.wal.sync()?;
        if self.take_kill(WalStage::Apply) {
            return Err(WalError::Killed(WalStage::Apply));
        }
        Ok(self.db.apply_write(op))
    }

    /// Persist the snapshot and truncate the log. After a checkpoint a
    /// reopen replays nothing — the snapshot alone reproduces the state.
    pub fn checkpoint(&self) -> Result<(), StorageError> {
        let _guard = self.write_lock.lock();
        if self.is_dead() {
            return Err(StorageError::Io(std::io::Error::other("node is down")));
        }
        self.db.save_to(&self.dir)?;
        self.wal.truncate().map_err(wal_to_storage)?;
        Ok(())
    }

    /// Fsyncs issued by this instance (durability points + checkpoints).
    pub fn fsyncs(&self) -> u64 {
        self.wal.fsyncs()
    }
}

fn wal_to_storage(e: WalError) -> StorageError {
    match e {
        WalError::Io(io) => StorageError::Io(io),
        other => StorageError::Corrupt(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_xml::parse;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("partix-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn named(name: &str, xml: &str) -> Document {
        let mut d = parse(xml).unwrap();
        d.name = Some(name.to_owned());
        d
    }

    fn put(name: &str, section: &str) -> WriteOp {
        WriteOp::Put {
            collection: "items".into(),
            doc: named(name, &format!("<Item><Section>{section}</Section></Item>")),
        }
    }

    /// A `Put` whose page is over 4 KiB for `words` ≥ 1 000, so its record
    /// checksum runs the kernel's lanes (about 5.5 B of page per word).
    fn big_put(name: &str, words: usize) -> WriteOp {
        let text: String = (0..words).map(|i| format!("w{i} ")).collect();
        WriteOp::Put {
            collection: "items".into(),
            doc: named(
                name,
                &format!("<Item><Section>BIG</Section><Description>{text}</Description></Item>"),
            ),
        }
    }

    /// The checksum WAL records were sealed with through PR 20, bit at a
    /// time: the reference the shared kernel must agree with on disk.
    fn retired_crc32(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (0u32.wrapping_sub(crc & 1)));
            }
        }
        !crc
    }

    /// Seeded splitmix64: the sweeps need repeatable, not good, numbers.
    fn splitmix(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn proptest_cases() -> u64 {
        std::env::var("PARTIX_PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(32)
    }

    fn state(db: &Database) -> Vec<(String, Vec<String>)> {
        db.collection_names()
            .into_iter()
            .map(|c| {
                let mut docs: Vec<String> = partix_query::CollectionProvider::collection(db, &c)
                    .unwrap_or_default()
                    .iter()
                    .map(|d| format!("{:?}:{}", d.name, partix_xml::serializer::to_string(d)))
                    .collect();
                docs.sort();
                (c, docs)
            })
            .collect()
    }

    #[test]
    fn op_codec_roundtrips() {
        for op in [
            put("i1", "CD"),
            WriteOp::Delete { collection: "items".into(), name: "i1".into() },
            WriteOp::Put { collection: "c".into(), doc: parse("<a><b>t</b></a>").unwrap() },
        ] {
            let payload = encode_op(&op);
            assert_eq!(decode_op(&payload), Some(op.clone()), "{op}");
        }
        // corrupt payloads decode to None, never panic
        assert_eq!(decode_op(&[]), None);
        assert_eq!(decode_op(&[9, 0, 0]), None);
        let mut good = encode_op(&put("i1", "CD"));
        good.push(0); // trailing garbage
        assert_eq!(decode_op(&good), None);
    }

    #[test]
    fn replay_reads_back_records_in_order() {
        let ops = [put("i1", "CD"), put("i2", "DVD"), WriteOp::Delete {
            collection: "items".into(),
            name: "i1".into(),
        }];
        let mut log = Vec::new();
        for op in &ops {
            log.extend_from_slice(&encode_record(op));
        }
        let (replayed, report) = replay_bytes(&log);
        assert_eq!(replayed, ops.to_vec());
        assert_eq!(report.records, 3);
        assert!(!report.torn);
        assert_eq!(report.valid_bytes as usize, log.len());
    }

    #[test]
    fn torn_final_record_truncated_at_every_byte_offset() {
        // the satellite's exhaustive version of the torn-tail guarantee:
        // cutting the log at ANY byte offset replays exactly the records
        // that fit wholly before the cut — never garbage, never a panic
        let ops =
            [put("i1", "CD"), put("i2", "DVD"), put("i3", "BOOK"), WriteOp::Delete {
                collection: "items".into(),
                name: "i2".into(),
            }];
        let mut log = Vec::new();
        let mut boundaries = vec![0usize];
        for op in &ops {
            log.extend_from_slice(&encode_record(op));
            boundaries.push(log.len());
        }
        for cut in 0..=log.len() {
            let (replayed, report) = replay_bytes(&log[..cut]);
            let expect = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(replayed.len(), expect, "cut at {cut}");
            assert_eq!(&replayed[..], &ops[..expect], "cut at {cut}");
            assert_eq!(report.torn, cut != boundaries[expect], "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_middle_record_stops_replay_before_it() {
        let ops = [put("i1", "CD"), put("i2", "DVD"), put("i3", "BOOK")];
        let mut log = Vec::new();
        for op in &ops {
            log.extend_from_slice(&encode_record(op));
        }
        // flip one payload byte of the second record
        let second_start = encode_record(&ops[0]).len();
        log[second_start + 9] ^= 0xFF;
        let (replayed, report) = replay_bytes(&log);
        assert_eq!(replayed, vec![ops[0].clone()]);
        assert!(report.torn);
    }

    #[test]
    fn double_replay_is_idempotent() {
        let dir = tmp_dir("idem");
        let durable = DurableDb::open(&dir).unwrap();
        for op in [put("i1", "CD"), put("i2", "DVD"), put("i1", "BOOK"), WriteOp::Delete {
            collection: "items".into(),
            name: "i2".into(),
        }] {
            durable.apply(&op).unwrap();
        }
        let once = state(durable.db());
        // replay the same log on top of the already-recovered state
        let (ops, _) = durable.wal.replay().unwrap();
        for op in &ops {
            durable.db().apply_write(op);
        }
        assert_eq!(state(durable.db()), once, "replaying twice must be a no-op");
        // and a fresh open (snapshot-less: pure replay) agrees too
        let reopened = DurableDb::open(&dir).unwrap();
        assert_eq!(state(reopened.db()), once);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_then_replay_equals_pure_replay() {
        let dir_a = tmp_dir("ckpt-a");
        let dir_b = tmp_dir("ckpt-b");
        let ops = [put("i1", "CD"), put("i2", "DVD"), put("i1", "LP"), WriteOp::Delete {
            collection: "items".into(),
            name: "i2".into(),
        }, put("i3", "BOOK")];
        // A: checkpoint mid-stream; B: never checkpoints
        let a = DurableDb::open(&dir_a).unwrap();
        let b = DurableDb::open(&dir_b).unwrap();
        for (i, op) in ops.iter().enumerate() {
            a.apply(op).unwrap();
            b.apply(op).unwrap();
            if i == 2 {
                a.checkpoint().unwrap();
            }
        }
        assert!(a.wal.len().unwrap() < b.wal.len().unwrap(), "checkpoint truncated the log");
        let ra = DurableDb::open(&dir_a).unwrap();
        let rb = DurableDb::open(&dir_b).unwrap();
        assert_eq!(state(ra.db()), state(rb.db()), "checkpoint+replay ≠ pure replay");
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn kill_points_recover_deterministically() {
        for stage in WalStage::ALL {
            let dir = tmp_dir(&format!("kill-{stage}"));
            let durable = DurableDb::open(&dir).unwrap();
            durable.apply(&put("base", "CD")).unwrap();
            durable.set_kill(Some(stage));
            let err = durable.apply(&put("victim", "DVD")).unwrap_err();
            assert!(matches!(err, WalError::Killed(s) if s == stage), "{stage}");
            // dead until reopened: further writes refuse
            assert!(matches!(durable.apply(&put("after", "LP")), Err(WalError::Dead)));
            assert!(durable.is_dead());
            let reopened = DurableDb::open(&dir).unwrap();
            let names: Vec<Option<String>> =
                partix_query::CollectionProvider::collection(&**reopened.db(), "items")
                    .unwrap()
                    .iter()
                    .map(|d| d.name.clone())
                    .collect();
            assert!(names.contains(&Some("base".into())), "{stage}: acknowledged write lost");
            assert_eq!(
                names.contains(&Some("victim".into())),
                stage.survives_recovery(),
                "{stage}: unexpected recovery outcome"
            );
            assert!(!names.contains(&Some("after".into())), "{stage}: dead node accepted a write");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn fsync_and_append_counters_track_pipeline() {
        let dir = tmp_dir("counters");
        let durable = DurableDb::open(&dir).unwrap();
        assert_eq!(durable.fsyncs(), 0);
        durable.apply(&put("i1", "CD")).unwrap();
        durable.apply(&put("i2", "DVD")).unwrap();
        assert_eq!(durable.wal().appends(), 2);
        assert_eq!(durable.fsyncs(), 2);
        durable.checkpoint().unwrap();
        assert_eq!(durable.fsyncs(), 3); // truncation is durable too
        assert!(durable.wal().is_empty().unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_truncates_torn_tail_so_later_appends_survive_next_replay() {
        // crash at Append leaves a torn half-record; if the reopen kept
        // it, every record appended afterwards would sit behind the tear
        // and silently vanish on the NEXT recovery
        let dir = tmp_dir("torn-reopen");
        let durable = DurableDb::open(&dir).unwrap();
        durable.apply(&put("base", "CD")).unwrap();
        durable.set_kill(Some(WalStage::Append));
        assert!(matches!(
            durable.apply(&put("victim", "DVD")),
            Err(WalError::Killed(WalStage::Append))
        ));
        let reopened = DurableDb::open(&dir).unwrap();
        reopened.apply(&put("after", "BOOK")).unwrap(); // acknowledged
        let twice = DurableDb::open(&dir).unwrap();
        let names: Vec<Option<String>> =
            partix_query::CollectionProvider::collection(&**twice.db(), "items")
                .unwrap()
                .iter()
                .map(|d| d.name.clone())
                .collect();
        assert!(names.contains(&Some("base".into())));
        assert!(!names.contains(&Some("victim".into())), "torn record must not replay");
        assert!(
            names.contains(&Some("after".into())),
            "write acknowledged after recovery was lost by the second recovery"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_offsets_fuzzed_against_real_files() {
        // proptest-style seeded sweep over (op count, cut offset) pairs
        // against a real on-disk file, sized by PARTIX_PROPTEST_CASES
        let dir = tmp_dir("fuzz");
        let mut next = splitmix(0x07E5_70FF_5E75);
        for case in 0..proptest_cases() {
            let n_ops = 1 + (next() % 5) as usize;
            let ops: Vec<WriteOp> = (0..n_ops)
                .map(|i| {
                    if next() % 4 == 0 && i > 0 {
                        WriteOp::Delete { collection: "items".into(), name: format!("d{}", i - 1) }
                    } else {
                        put(&format!("d{i}"), ["CD", "DVD", "BOOK"][(next() % 3) as usize])
                    }
                })
                .collect();
            let mut log = Vec::new();
            let mut boundaries = vec![0usize];
            for op in &ops {
                log.extend_from_slice(&encode_record(op));
                boundaries.push(log.len());
            }
            let cut = (next() % (log.len() as u64 + 1)) as usize;
            let path = dir.join(format!("wal-{case}.log"));
            fs::write(&path, &log[..cut]).unwrap();
            let (replayed, _) = replay_file(&path).unwrap();
            let expect = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(
                &replayed[..],
                &ops[..expect],
                "case {case}: {n_ops} ops cut at {cut} (replayable: seed case index {case})"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_log_sealed_by_the_retired_bit_loop_replays_record_for_record() {
        // written at the parent commit by its `encode_record`, whose CRC was
        // `retired_crc32`: small records and Puts over one and two 4 KiB
        // blocks, so both the lanes and the tail of the kernel check it
        let parent = include_bytes!("../tests/fixtures/wal_sealed_by_bit_loop.log");
        let ops = [
            put("i1", "CD"),
            big_put("b1", 1_000),
            WriteOp::Delete { collection: "items".into(), name: "i1".into() },
            big_put("b2", 1_600),
            put("i2", "DVD"),
        ];
        let (replayed, report) = replay_bytes(parent);
        assert_eq!(replayed, ops);
        assert_eq!((report.valid_bytes as usize, report.torn), (parent.len(), false));
        // the disk format is byte-identical: the records are rewritten bit
        // for bit, and each one's checksum is the retired loop's
        let mut at = 0;
        for op in &ops {
            let record = encode_record(op);
            assert_eq!(record[..], parent[at..at + record.len()], "{op}");
            assert_eq!(record[4..8], retired_crc32(&record[8..]).to_le_bytes(), "{op}");
            at += record.len();
        }
        assert!(encode_op(&ops[1]).len() > 4096 && encode_op(&ops[3]).len() > 2 * 4096);
    }

    #[test]
    fn hostile_bytes_replay_a_prefix_and_never_panic() {
        // seeded sweep, sized by PARTIX_PROPTEST_CASES: logs mixing small
        // records with Puts of 1–3 lane blocks, then noise, a bit flip, a
        // truncation or a spliced record. Replay stops at the first record
        // the damage reaches and returns exactly the records before it.
        let mut next = splitmix(0xC0FF_EE21);
        for case in 0..proptest_cases() {
            let n_ops = 2 + (next() % 5) as usize;
            let ops: Vec<WriteOp> = (0..n_ops)
                .map(|i| match next() % 3 {
                    0 => big_put(&format!("b{i}"), 1_000 + (next() % 1_600) as usize),
                    1 => put(&format!("d{i}"), ["CD", "DVD", "BOOK"][(next() % 3) as usize]),
                    _ => {
                        WriteOp::Delete { collection: "items".into(), name: format!("d{}", i / 2) }
                    }
                })
                .collect();
            let mut log = Vec::new();
            let mut boundaries = vec![0usize];
            for op in &ops {
                log.extend_from_slice(&encode_record(op));
                boundaries.push(log.len());
            }
            let at = (next() % log.len() as u64) as usize;
            let mut bent = log.clone();
            let what = match next() % 5 {
                0 => {
                    let end = (at + 1 + (next() % 64) as usize).min(log.len());
                    bent[at..end].iter_mut().for_each(|b| *b = next() as u8);
                    "noise"
                }
                1 => {
                    bent.extend((0..1 + next() % 64).map(|_| next() as u8));
                    "trailing noise"
                }
                2 => {
                    bent[at] ^= 1 << (next() % 8);
                    "bit flip"
                }
                3 => {
                    bent.truncate(at);
                    "truncation"
                }
                _ => {
                    // a record cut mid-way, a whole record after it
                    let cut = if boundaries.contains(&at) { at + 1 } else { at };
                    let j = (next() % n_ops as u64) as usize;
                    bent.truncate(cut);
                    bent.extend_from_slice(&log[boundaries[j]..boundaries[j + 1]]);
                    "splice"
                }
            };
            let common = bent.len().min(log.len());
            let first_change = (0..common).find(|&i| bent[i] != log[i]).unwrap_or(common);
            let expect = boundaries.iter().filter(|&&b| b <= first_change).count() - 1;
            let (replayed, report) = replay_bytes(&bent);
            assert_eq!(replayed[..], ops[..expect], "case {case}: {what} at {at}");
            assert_eq!(report.valid_bytes as usize, boundaries[expect], "case {case}: {what}");
        }
    }

    #[test]
    fn a_resealed_hostile_payload_is_a_value_or_the_end_never_a_panic() {
        // the checksum guards the decoder from damage; this hands the
        // decoder damage that passed it (noise under a recomputed CRC):
        // replay keeps every record before, and the one hit either decodes
        // to some op or ends the replay there
        let mut next = splitmix(0x005E_A1ED);
        for case in 0..proptest_cases() {
            let words = 1_000 + (next() % 800) as usize;
            let ops = [put("i1", "CD"), big_put("b1", words), put("i2", "LP")];
            let hit = (next() % 3) as usize;
            let mut log = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                let mut payload = encode_op(op);
                if i == hit {
                    for _ in 0..1 + next() % 4 {
                        let at = (next() % payload.len() as u64) as usize;
                        payload[at] = next() as u8;
                    }
                }
                log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                log.extend_from_slice(&crc32(&payload).to_le_bytes());
                log.extend_from_slice(&payload);
            }
            let (replayed, _) = replay_bytes(&log);
            assert_eq!(replayed[..hit], ops[..hit], "case {case}");
            if replayed.len() > hit {
                assert_eq!(replayed[hit + 1..], ops[hit + 1..], "case {case}");
            }
        }
    }
}

//! The chunked-streaming payloads.
//!
//! A client opens a *stream* by sending [`StreamQuery`] with a
//! client-chosen 64-bit stream id. The coordinator answers with zero or
//! more [`ItemChunk`] frames carrying consecutive sequence numbers
//! starting at 0, then exactly one [`StreamEnd`] (success — with the
//! total chunk/item counts so a truncated stream is detectable) or
//! [`StreamError`] (typed failure). A connection carries one stream at a
//! time: a second opening on a busy connection is served after the first.
//!
//! [`StreamAssembler`] is the client-side state machine that re-checks
//! all of that: wrong stream id, duplicated / reordered / missing
//! chunks, chunks after end-of-stream, oversized chunks, and
//! end-of-stream totals that do not match what actually arrived all
//! surface as [`ProtocolError::Stream`] — never a panic, and never a
//! silently wrong or truncated reassembly.

use crate::codec::{get_sequence, payload_of, put_sequence, Reader, Writer};
use crate::frame::ProtocolError;
use crate::message::WireError;
use partix_query::{Item, Sequence};

/// Default number of items per [`ItemChunk`] when the client does not
/// ask for a specific granularity.
pub const DEFAULT_CHUNK_ITEMS: usize = 64;

/// Hard cap on items in one chunk. The frame layer already caps payload
/// *bytes*; this bounds the per-chunk allocation count independently so
/// a hostile peer cannot claim millions of tiny items in one frame.
pub const MAX_CHUNK_ITEMS: usize = 65_536;

fn stream_err(msg: String) -> ProtocolError {
    ProtocolError::Stream(msg)
}

/// Client → coordinator: open a result stream for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamQuery {
    /// Client-chosen stream id; every frame of the answer carries it.
    pub stream: u64,
    /// The query text (parsed and planned by the coordinator).
    pub text: String,
    /// Forwarded to `ExecOptions::allow_partial`.
    pub allow_partial: bool,
    /// When true the coordinator materializes the full answer before
    /// sending (the pre-streaming behaviour, kept as the benchmark
    /// baseline). Chunk framing on the wire is identical either way.
    pub buffered: bool,
    /// Requested items per chunk; 0 means [`DEFAULT_CHUNK_ITEMS`].
    pub chunk_items: u32,
    /// Tenant header: empty = anonymous (the pre-tenancy behaviour),
    /// otherwise a registered tenant name whose admission quotas the
    /// coordinator applies before running. Hostile header bytes are
    /// rejected at decode time with a typed [`ProtocolError::Malformed`].
    pub tenant: String,
}

impl StreamQuery {
    pub fn encode(&self) -> Vec<u8> {
        payload_of(|w| self.put(w))
    }

    /// Write the payload [`StreamQuery::encode`] returns into `w`.
    pub(crate) fn put(&self, w: &mut Writer) {
        w.put_u64(self.stream);
        w.put_str(&self.text);
        w.put_bool(self.allow_partial);
        w.put_bool(self.buffered);
        w.put_u32(self.chunk_items);
        w.put_str(&self.tenant);
    }

    pub fn decode(payload: &[u8]) -> Result<StreamQuery, ProtocolError> {
        let mut r = Reader::new(payload);
        let q = StreamQuery {
            stream: r.u64("stream id")?,
            text: r.str("query text")?,
            allow_partial: r.bool("allow_partial")?,
            buffered: r.bool("buffered")?,
            chunk_items: r.u32("chunk_items")?,
            tenant: {
                let tenant = r.str("tenant header")?;
                if tenant.is_empty() {
                    tenant
                } else {
                    crate::message::decode_tenant_header(tenant)?
                }
            },
        };
        r.finish()?;
        Ok(q)
    }

    /// Effective chunk granularity, clamped to the protocol cap.
    pub fn chunk_size(&self) -> usize {
        let n = if self.chunk_items == 0 {
            DEFAULT_CHUNK_ITEMS
        } else {
            self.chunk_items as usize
        };
        n.min(MAX_CHUNK_ITEMS)
    }
}

/// Coordinator → client: one slice of the answer, in final composition
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemChunk {
    pub stream: u64,
    /// 0-based consecutive chunk sequence number within the stream.
    pub seq: u32,
    pub items: Sequence,
}

impl ItemChunk {
    pub fn encode(&self) -> Vec<u8> {
        payload_of(|w| self.put(w))
    }

    /// Write the payload [`ItemChunk::encode`] returns into `w`.
    pub(crate) fn put(&self, w: &mut Writer) {
        put_chunk(w, self.stream, self.seq, &self.items);
    }

    pub fn decode(payload: &[u8]) -> Result<ItemChunk, ProtocolError> {
        let mut r = Reader::new(payload);
        let stream = r.u64("stream id")?;
        let seq = r.u32("chunk seq")?;
        let items = get_sequence(&mut r)?;
        r.finish()?;
        if items.len() > MAX_CHUNK_ITEMS {
            return Err(stream_err(format!(
                "chunk of {} items exceeds the {MAX_CHUNK_ITEMS}-item cap",
                items.len()
            )));
        }
        Ok(ItemChunk { stream, seq, items })
    }
}

/// The payload of an [`ItemChunk`] over borrowed items: what a sink ships
/// without first owning a copy of the slice.
pub(crate) fn put_chunk(w: &mut Writer, stream: u64, seq: u32, items: &[Item]) {
    w.put_u64(stream);
    w.put_u32(seq);
    put_sequence(w, items);
}

/// Deterministic per-query statistics shipped with [`StreamEnd`].
/// Everything here must be reproducible across streamed and buffered
/// executions of the same query over the same data — the streaming
/// differential suite asserts equality.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamStats {
    /// Sub-query sites that contributed (after localization pruning).
    pub sites: u32,
    /// Fragments the localization step pruned away.
    pub fragments_pruned: u32,
    /// Σ over sites of documents fed to node evaluators.
    pub docs_scanned: u64,
    /// True when the answer is missing fragments (`allow_partial`).
    pub partial: bool,
    /// The coordinator's catalog epoch at answer time (0 = standalone
    /// coordinator with no meta service attached).
    pub catalog_epoch: u64,
    /// Coordinator wall time in seconds (informational; not compared).
    pub elapsed: f64,
}

/// Coordinator → client: successful end of one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEnd {
    pub stream: u64,
    /// Total [`ItemChunk`] frames the coordinator sent for this stream.
    pub chunks: u32,
    /// Total items across those chunks.
    pub items: u64,
    pub stats: StreamStats,
}

impl StreamEnd {
    pub fn encode(&self) -> Vec<u8> {
        payload_of(|w| self.put(w))
    }

    /// Write the payload [`StreamEnd::encode`] returns into `w`.
    pub(crate) fn put(&self, w: &mut Writer) {
        w.put_u64(self.stream);
        w.put_u32(self.chunks);
        w.put_u64(self.items);
        w.put_u32(self.stats.sites);
        w.put_u32(self.stats.fragments_pruned);
        w.put_u64(self.stats.docs_scanned);
        w.put_bool(self.stats.partial);
        w.put_u64(self.stats.catalog_epoch);
        w.put_f64(self.stats.elapsed);
    }

    pub fn decode(payload: &[u8]) -> Result<StreamEnd, ProtocolError> {
        let mut r = Reader::new(payload);
        let end = StreamEnd {
            stream: r.u64("stream id")?,
            chunks: r.u32("chunk count")?,
            items: r.u64("item count")?,
            stats: StreamStats {
                sites: r.u32("sites")?,
                fragments_pruned: r.u32("fragments_pruned")?,
                docs_scanned: r.u64("docs_scanned")?,
                partial: r.bool("partial")?,
                catalog_epoch: r.u64("catalog_epoch")?,
                elapsed: r.f64("elapsed")?,
            },
        };
        r.finish()?;
        Ok(end)
    }
}

/// Server → client: typed failure of one stream or call — its stream id,
/// then the [`WireError`]. Stream id 0 marks a connection-level fault (a
/// protocol violation: no individual stream is at fault, and the server
/// drops the connection after sending it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError {
    pub stream: u64,
    pub error: WireError,
}

impl StreamError {
    /// A failure with no tenancy classification.
    pub fn failure(stream: u64, retryable: bool, message: impl Into<String>) -> StreamError {
        StreamError { stream, error: WireError::failure(retryable, message) }
    }

    pub fn encode(&self) -> Vec<u8> {
        payload_of(|w| self.put(w))
    }

    /// Write the payload [`StreamError::encode`] returns into `w`.
    pub(crate) fn put(&self, w: &mut Writer) {
        w.put_u64(self.stream);
        self.error.put(w);
    }

    pub fn decode(payload: &[u8]) -> Result<StreamError, ProtocolError> {
        let mut r = Reader::new(payload);
        let e = StreamError { stream: r.u64("stream id")?, error: WireError::get(&mut r)? };
        r.finish()?;
        Ok(e)
    }
}

/// How one stream concluded, as validated by [`StreamAssembler`].
#[derive(Debug, Clone, PartialEq)]
pub enum StreamOutcome {
    /// All chunks arrived in order and the totals checked out.
    Complete(StreamEnd),
    /// The coordinator reported a typed failure.
    Failed(StreamError),
}

/// Client-side reassembly state machine for one stream.
#[derive(Debug)]
pub struct StreamAssembler {
    stream: u64,
    next_seq: u32,
    items: Sequence,
    outcome: Option<StreamOutcome>,
}

impl StreamAssembler {
    pub fn new(stream: u64) -> StreamAssembler {
        StreamAssembler { stream, next_seq: 0, items: Vec::new(), outcome: None }
    }

    pub fn stream(&self) -> u64 {
        self.stream
    }

    /// Items reassembled so far (final order).
    pub fn items(&self) -> &Sequence {
        &self.items
    }

    /// `Some` once [`StreamEnd`] or [`StreamError`] was accepted.
    pub fn outcome(&self) -> Option<&StreamOutcome> {
        self.outcome.as_ref()
    }

    pub fn is_done(&self) -> bool {
        self.outcome.is_some()
    }

    fn check_open(&self, what: &str, stream: u64) -> Result<(), ProtocolError> {
        if stream != self.stream {
            return Err(stream_err(format!(
                "{what} for stream {stream} routed to assembler of stream {}",
                self.stream
            )));
        }
        if self.outcome.is_some() {
            return Err(stream_err(format!(
                "{what} for stream {stream} after its end-of-stream"
            )));
        }
        Ok(())
    }

    /// Accept the next chunk. Returns the number of items it added.
    pub fn accept_chunk(&mut self, chunk: ItemChunk) -> Result<usize, ProtocolError> {
        self.check_open("chunk", chunk.stream)?;
        if chunk.items.len() > MAX_CHUNK_ITEMS {
            return Err(stream_err(format!(
                "chunk {} of stream {} carries {} items (cap {MAX_CHUNK_ITEMS})",
                chunk.seq,
                chunk.stream,
                chunk.items.len()
            )));
        }
        if chunk.seq != self.next_seq {
            let verb = if chunk.seq < self.next_seq { "duplicated or replayed" } else { "skipped ahead" };
            return Err(stream_err(format!(
                "stream {}: chunk seq {} {verb} (expected {})",
                chunk.stream, chunk.seq, self.next_seq
            )));
        }
        self.next_seq = self.next_seq.checked_add(1).ok_or_else(|| {
            stream_err(format!("stream {}: chunk seq overflow", chunk.stream))
        })?;
        let added = chunk.items.len();
        self.items.extend(chunk.items);
        Ok(added)
    }

    /// Accept end-of-stream and validate the totals against what
    /// actually arrived — the defense against silent truncation.
    pub fn finish(&mut self, end: StreamEnd) -> Result<(), ProtocolError> {
        self.check_open("end-of-stream", end.stream)?;
        if end.chunks != self.next_seq {
            return Err(stream_err(format!(
                "stream {}: end-of-stream declares {} chunks but {} arrived",
                end.stream, end.chunks, self.next_seq
            )));
        }
        if end.items != self.items.len() as u64 {
            return Err(stream_err(format!(
                "stream {}: end-of-stream declares {} items but {} arrived",
                end.stream,
                end.items,
                self.items.len()
            )));
        }
        self.outcome = Some(StreamOutcome::Complete(end));
        Ok(())
    }

    /// Accept a typed stream failure.
    pub fn fail(&mut self, err: StreamError) -> Result<(), ProtocolError> {
        self.check_open("stream error", err.stream)?;
        self.outcome = Some(StreamOutcome::Failed(err));
        Ok(())
    }

    /// Consume the assembler, returning the reassembled items and the
    /// outcome. Errors if the stream never concluded (truncation).
    pub fn into_result(self) -> Result<(Sequence, StreamOutcome), ProtocolError> {
        match self.outcome {
            Some(outcome) => Ok((self.items, outcome)),
            None => Err(ProtocolError::Truncated { context: "stream (no end-of-stream)" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_query::Item;

    fn chunk(stream: u64, seq: u32, n: usize) -> ItemChunk {
        ItemChunk {
            stream,
            seq,
            items: (0..n).map(|i| Item::Num(i as f64)).collect(),
        }
    }

    fn end(stream: u64, chunks: u32, items: u64) -> StreamEnd {
        StreamEnd { stream, chunks, items, stats: StreamStats::default() }
    }

    #[test]
    fn message_roundtrips() {
        let q = StreamQuery {
            stream: 7,
            text: "collection(\"x\")/a".into(),
            allow_partial: true,
            buffered: false,
            chunk_items: 32,
            tenant: "team-a".into(),
        };
        assert_eq!(StreamQuery::decode(&q.encode()).unwrap(), q);
        let anon = StreamQuery { tenant: String::new(), ..q };
        assert_eq!(StreamQuery::decode(&anon.encode()).unwrap(), anon);

        let c = chunk(9, 3, 5);
        assert_eq!(ItemChunk::decode(&c.encode()).unwrap(), c);

        let e = StreamEnd {
            stream: 9,
            chunks: 4,
            items: 20,
            stats: StreamStats {
                sites: 4,
                fragments_pruned: 2,
                docs_scanned: 123,
                partial: false,
                catalog_epoch: 11,
                elapsed: 0.25,
            },
        };
        assert_eq!(StreamEnd::decode(&e.encode()).unwrap(), e);

        let err = StreamError::failure(1, true, "boom");
        assert_eq!(StreamError::decode(&err.encode()).unwrap(), err);
        let rejected = StreamError {
            stream: 2,
            error: WireError {
                retryable: false,
                code: crate::message::ErrorCode::AdmissionRejected,
                retry_after_ms: 100,
                message: "quota".into(),
            },
        };
        assert_eq!(StreamError::decode(&rejected.encode()).unwrap(), rejected);
        // the body after the stream id is the one typed failure, as it is
        assert_eq!(rejected.encode()[8..], rejected.error.encode());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = end(3, 0, 0).encode();
        bytes.push(0xFF);
        assert!(StreamEnd::decode(&bytes).is_err());
        let mut bytes = chunk(1, 0, 2).encode();
        bytes.push(0x00);
        assert!(ItemChunk::decode(&bytes).is_err());
    }

    #[test]
    fn hostile_stream_tenant_headers_are_typed_errors() {
        let base = StreamQuery {
            stream: 1,
            text: "q".into(),
            allow_partial: false,
            buffered: false,
            chunk_items: 0,
            tenant: String::new(),
        };
        for bad in [
            "has space".to_string(),
            "x".repeat(partix_tenant::MAX_TENANT_NAME + 1),
            "tab\tname".to_string(),
        ] {
            let q = StreamQuery { tenant: bad, ..base.clone() };
            assert!(
                matches!(StreamQuery::decode(&q.encode()), Err(ProtocolError::Malformed(_))),
                "hostile stream tenant header must decode to a typed error"
            );
        }
        // unknown stream-error code byte is typed too
        let mut bytes = StreamError::failure(1, false, "x").encode();
        bytes[9] = 99; // u64 stream id (8) + bool retryable (1), then the code byte
        assert!(matches!(StreamError::decode(&bytes), Err(ProtocolError::Malformed(_))));
    }

    #[test]
    fn assembler_happy_path() {
        let mut a = StreamAssembler::new(5);
        assert_eq!(a.accept_chunk(chunk(5, 0, 3)).unwrap(), 3);
        assert_eq!(a.accept_chunk(chunk(5, 1, 2)).unwrap(), 2);
        a.finish(end(5, 2, 5)).unwrap();
        let (items, outcome) = a.into_result().unwrap();
        assert_eq!(items.len(), 5);
        assert!(matches!(outcome, StreamOutcome::Complete(_)));
    }

    #[test]
    fn assembler_rejects_disorder_duplication_and_truncation() {
        // duplicate
        let mut a = StreamAssembler::new(1);
        a.accept_chunk(chunk(1, 0, 1)).unwrap();
        assert!(matches!(
            a.accept_chunk(chunk(1, 0, 1)).unwrap_err(),
            ProtocolError::Stream(_)
        ));
        // gap
        let mut a = StreamAssembler::new(1);
        assert!(matches!(
            a.accept_chunk(chunk(1, 2, 1)).unwrap_err(),
            ProtocolError::Stream(_)
        ));
        // wrong stream id
        let mut a = StreamAssembler::new(1);
        assert!(matches!(
            a.accept_chunk(chunk(2, 0, 1)).unwrap_err(),
            ProtocolError::Stream(_)
        ));
        // totals lie about chunk count
        let mut a = StreamAssembler::new(1);
        a.accept_chunk(chunk(1, 0, 4)).unwrap();
        assert!(matches!(a.finish(end(1, 2, 4)).unwrap_err(), ProtocolError::Stream(_)));
        // totals lie about item count
        let mut a = StreamAssembler::new(1);
        a.accept_chunk(chunk(1, 0, 4)).unwrap();
        assert!(matches!(a.finish(end(1, 1, 5)).unwrap_err(), ProtocolError::Stream(_)));
        // chunk after end
        let mut a = StreamAssembler::new(1);
        a.finish(end(1, 0, 0)).unwrap();
        assert!(matches!(
            a.accept_chunk(chunk(1, 1, 1)).unwrap_err(),
            ProtocolError::Stream(_)
        ));
        // no end at all
        let mut a = StreamAssembler::new(1);
        a.accept_chunk(chunk(1, 0, 1)).unwrap();
        assert!(matches!(
            a.into_result().unwrap_err(),
            ProtocolError::Truncated { .. }
        ));
    }
}

//! The node vocabulary — the driver trait, spelled out on the wire — and
//! the one typed failure every endpoint answers with. A [`Request`]
//! travels in a [`Call`] frame and is answered by exactly one [`Reply`]
//! frame carrying a [`Response`], or by a
//! [`StreamError`](crate::stream::StreamError) carrying a [`WireError`].
//! Everything decodes defensively via the [`crate::codec`] cursor; a
//! query travels as its XQuery text and is parsed where it lands.

use crate::codec::{
    get_documents, get_output, get_query, payload_of, put_documents, put_output, put_query,
    Reader, Writer,
};
use crate::frame::ProtocolError;
use partix_query::Query;
use partix_storage::{QueryOutput, WriteOp};
use partix_xml::Document;
use std::borrow::Cow;
use std::sync::Arc;

/// Machine-readable classification carried by [`WireError`], so clients
/// can distinguish tenancy rejections from ordinary execution failures
/// without parsing the message text. Unknown code bytes decode to a typed
/// [`ProtocolError::Malformed`] — never a panic, never a silent
/// default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorCode {
    /// Any failure predating (or unrelated to) tenancy.
    #[default]
    Generic,
    /// The tenant's admission quota rejected the query; honor the
    /// `retry_after_ms` hint before retrying.
    AdmissionRejected,
    /// The stream's tenant header named a tenant this coordinator does
    /// not know (or the coordinator has no tenancy attached).
    UnknownTenant,
}

impl ErrorCode {
    pub fn as_u8(self) -> u8 {
        match self {
            ErrorCode::Generic => 0,
            ErrorCode::AdmissionRejected => 1,
            ErrorCode::UnknownTenant => 2,
        }
    }

    pub fn from_u8(byte: u8) -> Result<ErrorCode, ProtocolError> {
        match byte {
            0 => Ok(ErrorCode::Generic),
            1 => Ok(ErrorCode::AdmissionRejected),
            2 => Ok(ErrorCode::UnknownTenant),
            other => Err(ProtocolError::Malformed(format!("bad error code {other}"))),
        }
    }
}

/// Coordinator → node, inside a [`Call`]. (`Document` has no equality,
/// so neither does `Request` — tests compare re-encoded bytes.) A request
/// to send borrows the query or write op it carries; a decoded one owns
/// them. Tag 6, a tenant-headed execute, is retired and never reused:
/// tenancy is enforced where a query enters, at the coordinator.
#[derive(Debug, Clone)]
pub enum Request<'a> {
    /// Run a (localized) sub-query against the node's fragments.
    Execute { query: Cow<'a, Query> },
    /// Publish documents into a collection (fragment placement).
    Store { collection: String, docs: Vec<Document> },
    /// Fetch the documents of a collection (reconstruction reads): all of
    /// them, or — with `filter`, a query over that collection returning
    /// document roots — those the node finds it to select. The filter
    /// travels as XQuery text like any query, and the node parses it under
    /// the parser's depth bound. It has a request tag of its own: an
    /// unfiltered fetch is the bytes it always was, and a peer that
    /// predates the filter rejects a filtered one by its tag.
    Fetch { collection: String, filter: Option<Cow<'a, Query>> },
    /// List hosted collection names.
    Collections,
    /// Drop a collection.
    Drop { collection: String },
    /// Apply one online write (put/delete) through the node's WAL
    /// pipeline. Carried in the WAL's own op encoding
    /// ([`partix_storage::wal::encode_op`]) so disk and wire share one
    /// canonical byte form.
    Write { op: Cow<'a, WriteOp> },
    /// Liveness probe, answered with [`Response::Pong`].
    Ping,
}

impl Request<'_> {
    /// The payload, or [`ProtocolError::Unprintable`] for a query that has
    /// no XQuery text: such a request is never sent.
    pub fn encode(&self) -> Result<Vec<u8>, ProtocolError> {
        let mut w = Writer::new();
        self.put(&mut w)?;
        Ok(w.into_bytes())
    }

    /// Write the payload [`Request::encode`] returns into `w`.
    pub(crate) fn put(&self, w: &mut Writer) -> Result<(), ProtocolError> {
        match self {
            Request::Execute { query } => {
                w.put_u8(0);
                put_query(w, query)?;
            }
            Request::Store { collection, docs } => {
                w.put_u8(1);
                w.put_str(collection);
                put_documents(w, docs);
            }
            Request::Fetch { collection, filter: None } => {
                w.put_u8(2);
                w.put_str(collection);
            }
            Request::Fetch { collection, filter: Some(filter) } => {
                w.put_u8(7);
                w.put_str(collection);
                put_query(w, filter)?;
            }
            Request::Collections => w.put_u8(3),
            Request::Drop { collection } => {
                w.put_u8(4);
                w.put_str(collection);
            }
            Request::Write { op } => {
                w.put_u8(5);
                w.put_bytes(&partix_storage::wal::encode_op(op));
            }
            Request::Ping => w.put_u8(8),
        }
        Ok(())
    }

    pub fn decode(payload: &[u8]) -> Result<Request<'static>, ProtocolError> {
        let mut r = Reader::new(payload);
        let req = Request::get(&mut r)?;
        r.finish()?;
        Ok(req)
    }

    fn get(r: &mut Reader<'_>) -> Result<Request<'static>, ProtocolError> {
        Ok(match r.u8("request tag")? {
            0 => Request::Execute { query: Cow::Owned(get_query(r, "query text")?) },
            1 => {
                let collection = r.str("store collection")?;
                let docs = get_documents(r)?;
                Request::Store { collection, docs }
            }
            2 => Request::Fetch { collection: r.str("fetch collection")?, filter: None },
            3 => Request::Collections,
            4 => Request::Drop { collection: r.str("drop collection")? },
            5 => {
                let raw = r.bytes("write op payload")?;
                let op = partix_storage::wal::decode_op(raw).ok_or_else(|| {
                    ProtocolError::Malformed("undecodable write op".into())
                })?;
                Request::Write { op: Cow::Owned(op) }
            }
            7 => {
                let collection = r.str("fetch collection")?;
                let filter = get_query(r, "fetch filter")?;
                Request::Fetch { collection, filter: Some(Cow::Owned(filter)) }
            }
            8 => Request::Ping,
            other => {
                return Err(ProtocolError::Malformed(format!("bad request tag {other}")))
            }
        })
    }

    /// Whether retrying this request on a fresh connection is safe after
    /// an ambiguous transport failure. Reads are; `Store` and `Write`
    /// are not (the node may have applied them before the connection
    /// died — for `Write` the coordinator surfaces a typed
    /// `Unavailable` instead, and recovery/retry converges because the
    /// ops themselves are idempotent upserts/deletes).
    pub fn idempotent(&self) -> bool {
        !matches!(self, Request::Store { .. } | Request::Write { .. })
    }
}

/// Node → coordinator success answer inside a [`Reply`], mirroring
/// [`Request`] one-to-one.
#[derive(Debug, Clone)]
pub enum Response {
    /// `Execute` answer. `None` preserves the driver contract for an
    /// absent collection (an empty fragment, not an error).
    Output(Option<QueryOutput>),
    /// `Store` acknowledged.
    Stored,
    /// `Fetch` answer: shared, so a node encodes the documents its storage
    /// handed out without copying them first.
    Docs(Vec<Arc<Document>>),
    /// `Collections` answer.
    Names(Vec<String>),
    /// `Drop` acknowledged.
    Dropped,
    /// `Write` acknowledged: how many existing documents it affected.
    Written(u32),
    /// `Ping` answer.
    Pong,
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        payload_of(|w| self.put(w))
    }

    /// Write the payload [`Response::encode`] returns into `w`.
    pub(crate) fn put(&self, w: &mut Writer) {
        match self {
            Response::Output(None) => w.put_u8(0),
            Response::Output(Some(out)) => {
                w.put_u8(1);
                put_output(w, out);
            }
            Response::Stored => w.put_u8(2),
            Response::Docs(docs) => {
                w.put_u8(3);
                put_documents(w, docs);
            }
            Response::Names(names) => {
                w.put_u8(4);
                w.put_u32(names.len() as u32);
                for name in names {
                    w.put_str(name);
                }
            }
            Response::Dropped => w.put_u8(5),
            Response::Written(affected) => {
                w.put_u8(6);
                w.put_u32(*affected);
            }
            Response::Pong => w.put_u8(7),
        }
    }

    pub fn decode(payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut r = Reader::new(payload);
        let resp = Response::get(&mut r)?;
        r.finish()?;
        Ok(resp)
    }

    fn get(r: &mut Reader<'_>) -> Result<Response, ProtocolError> {
        Ok(match r.u8("response tag")? {
            0 => Response::Output(None),
            1 => Response::Output(Some(get_output(r)?)),
            2 => Response::Stored,
            3 => Response::Docs(get_documents(r)?.into_iter().map(Arc::new).collect()),
            4 => {
                let n = r.seq_len("name list")?;
                let mut names = Vec::with_capacity(n);
                for _ in 0..n {
                    names.push(r.str("collection name")?);
                }
                Response::Names(names)
            }
            5 => Response::Dropped,
            6 => Response::Written(r.u32("written count")?),
            7 => Response::Pong,
            other => {
                return Err(ProtocolError::Malformed(format!("bad response tag {other}")))
            }
        })
    }
}

/// Coordinator → node: one [`Request`] under a stream id of the caller's
/// choosing, which the answer carries back.
#[derive(Debug, Clone)]
pub struct Call<'a> {
    pub stream: u64,
    pub request: Request<'a>,
}

impl Call<'_> {
    /// The payload, or the error [`Request::encode`] fails with.
    pub fn encode(&self) -> Result<Vec<u8>, ProtocolError> {
        let mut w = Writer::new();
        put_call(&mut w, self.stream, &self.request)?;
        Ok(w.into_bytes())
    }

    pub fn decode(payload: &[u8]) -> Result<Call<'static>, ProtocolError> {
        let mut r = Reader::new(payload);
        let call = Call { stream: r.u64("stream id")?, request: Request::get(&mut r)? };
        r.finish()?;
        Ok(call)
    }
}

/// The payload of a [`Call`] over a borrowed request.
pub(crate) fn put_call(
    w: &mut Writer,
    stream: u64,
    request: &Request,
) -> Result<(), ProtocolError> {
    w.put_u64(stream);
    request.put(w)
}

/// Node → coordinator: the one answer to a [`Call`], under its stream id.
#[derive(Debug, Clone)]
pub struct Reply {
    pub stream: u64,
    pub response: Response,
}

impl Reply {
    pub fn encode(&self) -> Vec<u8> {
        payload_of(|w| self.put(w))
    }

    /// Write the payload [`Reply::encode`] returns into `w`.
    pub(crate) fn put(&self, w: &mut Writer) {
        w.put_u64(self.stream);
        self.response.put(w);
    }

    pub fn decode(payload: &[u8]) -> Result<Reply, ProtocolError> {
        let mut r = Reader::new(payload);
        let reply = Reply { stream: r.u64("stream id")?, response: Response::get(&mut r)? };
        r.finish()?;
        Ok(reply)
    }
}

/// The typed failure of one stream or call: what a handler returns, what
/// a [`StreamError`](crate::stream::StreamError) frame carries after its
/// stream id. `retryable` maps back onto the driver error taxonomy:
/// `true` → `DriverError::Unavailable` (the coordinator may fail over to
/// a replica, a client to another coordinator), `false` →
/// `DriverError::Failed` (the query or the DBMS rejected the request;
/// retrying elsewhere would just fail again).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    pub retryable: bool,
    /// Typed classification (admission rejection, unknown tenant, …).
    pub code: ErrorCode,
    /// Client retry hint in milliseconds; meaningful for
    /// [`ErrorCode::AdmissionRejected`], 0 otherwise.
    pub retry_after_ms: u64,
    pub message: String,
}

impl WireError {
    /// A pre-tenancy failure: [`ErrorCode::Generic`], no retry hint.
    pub fn failure(retryable: bool, message: impl Into<String>) -> WireError {
        WireError {
            retryable,
            code: ErrorCode::Generic,
            retry_after_ms: 0,
            message: message.into(),
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        payload_of(|w| self.put(w))
    }

    /// Write the payload [`WireError::encode`] returns into `w`.
    pub(crate) fn put(&self, w: &mut Writer) {
        w.put_bool(self.retryable);
        w.put_u8(self.code.as_u8());
        w.put_u64(self.retry_after_ms);
        w.put_str(&self.message);
    }

    pub fn decode(payload: &[u8]) -> Result<WireError, ProtocolError> {
        let mut r = Reader::new(payload);
        let err = WireError::get(&mut r)?;
        r.finish()?;
        Ok(err)
    }

    pub(crate) fn get(r: &mut Reader<'_>) -> Result<WireError, ProtocolError> {
        Ok(WireError {
            retryable: r.bool("error retryable")?,
            code: ErrorCode::from_u8(r.u8("error code")?)?,
            retry_after_ms: r.u64("retry_after_ms")?,
            message: r.str("error message")?,
        })
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)?;
        if self.retry_after_ms > 0 {
            write!(f, " (retry after {} ms)", self.retry_after_ms)?;
        }
        Ok(())
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_query::parse_query;
    use partix_xml::parse;

    #[test]
    fn requests_roundtrip() {
        let q = parse_query(r#"for $i in collection("c")/x where $i/y = 1 return $i"#).unwrap();
        let docs = vec![parse("<a><b>1</b></a>").unwrap(), parse("<a k=\"v\"/>").unwrap()];
        let put = WriteOp::Put { collection: "c".into(), doc: parse("<a><b>1</b></a>").unwrap() };
        let cases = vec![
            Request::Execute { query: Cow::Borrowed(&q) },
            Request::Store { collection: "c".into(), docs },
            Request::Fetch { collection: "c".into(), filter: None },
            Request::Fetch { collection: "c".into(), filter: Some(Cow::Borrowed(&q)) },
            Request::Collections,
            Request::Drop { collection: "c".into() },
            Request::Write { op: Cow::Borrowed(&put) },
            Request::Write {
                op: Cow::Owned(WriteOp::Delete { collection: "c".into(), name: "d1".into() }),
            },
            Request::Ping,
        ];
        for req in cases {
            let back = Request::decode(&req.encode().unwrap()).unwrap();
            // Document lacks PartialEq; compare the re-encoded bytes
            assert_eq!(req.encode(), back.encode());
            // a call is the stream id, then the request as it is
            let call = Call { stream: 7, request: req };
            let bytes = call.encode().unwrap();
            assert_eq!(bytes[..8], 7u64.to_le_bytes());
            assert_eq!(bytes[8..], call.request.encode().unwrap());
            let back = Call::decode(&bytes).unwrap();
            assert_eq!((back.stream, back.encode()), (7, Ok(bytes)));
        }
    }

    /// An unfiltered fetch is the frame peers without the filter speak;
    /// a filtered one is a tag they reject rather than misread.
    #[test]
    fn unfiltered_fetch_keeps_its_bytes_and_a_filter_takes_its_own_tag() {
        let plain = Request::Fetch { collection: "c".into(), filter: None }.encode().unwrap();
        let mut expected = Writer::new();
        expected.put_u8(2);
        expected.put_str("c");
        assert_eq!(plain, expected.into_bytes());
        let filter = parse_query(r#"for $d in collection("c")/a where $d/b = 1 return $d"#);
        let filter = filter.ok().map(Cow::Owned);
        let filtered = Request::Fetch { collection: "c".into(), filter };
        let filtered = filtered.encode().unwrap();
        assert_eq!(filtered[0], 7);
        // what a peer that knows tags 0–6 does with it
        let mut unknown = filtered.clone();
        unknown[0] = 8;
        assert!(matches!(Request::decode(&unknown), Err(ProtocolError::Malformed(_))));
    }

    #[test]
    fn idempotency_split() {
        assert!(Request::Collections.idempotent());
        assert!(Request::Fetch { collection: "c".into(), filter: None }.idempotent());
        assert!(!Request::Store { collection: "c".into(), docs: vec![] }.idempotent());
        // a write may have been applied before the connection died — the
        // transport must not silently replay it
        let delete = WriteOp::Delete { collection: "c".into(), name: "d".into() };
        assert!(!Request::Write { op: Cow::Owned(delete) }.idempotent());
    }

    #[test]
    fn responses_and_errors_roundtrip() {
        let cases = vec![
            Response::Output(None),
            Response::Stored,
            Response::Docs(vec![Arc::new(parse("<d/>").unwrap())]),
            Response::Names(vec!["a".into(), "b".into()]),
            Response::Dropped,
            Response::Written(0),
            Response::Written(3),
            Response::Pong,
        ];
        for resp in cases {
            let back = Response::decode(&resp.encode()).unwrap();
            assert_eq!(resp.encode(), back.encode());
            let reply = Reply { stream: u64::MAX, response: resp };
            let bytes = reply.encode();
            assert_eq!(bytes[8..], reply.response.encode());
            let back = Reply::decode(&bytes).unwrap();
            assert_eq!((back.stream, back.encode()), (u64::MAX, bytes));
        }
        let err = WireError::failure(true, "node going away");
        assert_eq!(WireError::decode(&err.encode()).unwrap(), err);
        let rejected = WireError {
            retryable: false,
            code: ErrorCode::AdmissionRejected,
            retry_after_ms: 250,
            message: "quota".into(),
        };
        assert_eq!(WireError::decode(&rejected.encode()).unwrap(), rejected);
    }

    #[test]
    fn malformed_messages_are_typed() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99]).is_err());
        // write tag with an undecodable op payload
        assert!(Request::decode(&[5, 3, 0, 0, 0, 9, 9, 9]).is_err());
        // the retired tenant-headed execute, as its senders framed it
        let mut retired = Writer::new();
        retired.put_u8(6);
        retired.put_str("t1");
        put_query(&mut retired, &parse_query(r#"collection("c")/x"#).unwrap()).unwrap();
        match Request::decode(&retired.into_bytes()) {
            Err(ProtocolError::Malformed(m)) => assert_eq!(m, "bad request tag 6"),
            other => panic!("tag 6 must stay retired, got {other:?}"),
        }
        assert!(Response::decode(&[99]).is_err());
        assert!(WireError::decode(&[2]).is_err());
        // an unknown error-code byte is typed, not defaulted
        let mut bytes = WireError::failure(false, "x").encode();
        bytes[1] = 99;
        assert!(matches!(WireError::decode(&bytes), Err(ProtocolError::Malformed(_))));
        // a call or reply cut inside its stream id, or carrying nothing after it
        assert!(Call::decode(&[0; 7]).is_err());
        assert!(Call::decode(&[0; 8]).is_err());
        assert!(Reply::decode(&[0; 8]).is_err());
        // trailing garbage rejected
        let mut ok = Request::Collections.encode().unwrap();
        ok.push(7);
        assert!(Request::decode(&ok).is_err());
    }
}

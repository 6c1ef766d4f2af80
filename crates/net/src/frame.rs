//! The length-prefixed binary frame layer.
//!
//! Every message on a PartiX connection is one frame:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "PXN2"
//!      4     1  version (2)
//!      5     1  frame kind (see [`FrameKind`])
//!      6     4  payload length, u32 little-endian
//!     10     4  CRC-32 (IEEE) of the payload, u32 little-endian
//!     14     n  payload
//! ```
//!
//! The header is fixed-size so a reader always knows how many bytes to
//! wait for (and asks the socket for all fourteen at once); the length
//! prefix is validated against a hard cap *before* any allocation, and
//! the checksum is verified before the payload is handed to the codec.
//!
//! A frame is built in one buffer: `begin_frame` lays down the header
//! with its length and checksum blank, the payload is encoded after it
//! (`codec::frame_of`), and `seal_frame` — the one place a frame is
//! sealed — checks the payload against [`MAX_PAYLOAD`] and fills both
//! fields in. A payload over the cap is a typed
//! [`ProtocolError::Oversized`] at the sender, not a frame the receiver
//! has to refuse. [`encode_frame`] is the same two steps around a payload
//! that already exists.
//!
//! The checksum is the workspace's one kernel, [`crc32`], re-exported
//! from `partix_storage` (which seals WAL records with it): the IEEE
//! polynomial, slicing-by-8 over four independent 1 KiB lanes per 4 KiB
//! block, joined by a compile-time GF(2) shift; safe Rust, the same bytes
//! on every CPU. An answer is checksummed at each end of each hop, so this
//! is paid four times per byte between a node and a client.
//!
//! Every way a peer can deviate — wrong magic, unknown version or kind,
//! oversized length, short read, corrupted payload — surfaces as a typed
//! [`ProtocolError`], never a panic: a malformed peer must not be able to
//! take down a coordinator or a node server.
//!
//! There is one protocol, "PXN2", and every payload starts with a
//! client-chosen 64-bit *stream id*. An opening frame — a
//! [`FrameKind::OpenStream`] at a coordinator, a [`FrameKind::Call`] at a
//! node — is answered by zero or more [`FrameKind::ItemChunk`] frames and
//! exactly one terminal frame: [`FrameKind::StreamEnd`],
//! [`FrameKind::Reply`] or [`FrameKind::StreamError`]. A receiver rejects
//! versions it does not know with [`ProtocolError::UnsupportedVersion`]
//! and kinds it does not know with [`ProtocolError::UnknownFrame`] (no
//! silent best-effort parsing). The request / response protocol this one
//! replaced, "PXN1", had the same header under its own magic: a frame of
//! it is refused by a [`ProtocolError::BadMagic`] that names it.

use std::fmt;
use std::io::{self, Read};

pub use partix_storage::crc32;

/// Frame magic: "PXN2" (PartiX Net, protocol 2).
pub const MAGIC: [u8; 4] = *b"PXN2";

/// Magic of the retired request / response protocol, recognised only to
/// be refused by name.
const RETIRED_MAGIC: [u8; 4] = *b"PXN1";

/// Protocol version.
pub const VERSION: u8 = 2;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 14;

/// Hard cap on a frame payload (64 MiB). A length field above this is
/// rejected before any allocation happens.
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// What a frame carries. Kinds 1–5 belonged to the retired protocol and
/// stay unassigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → coordinator: open a result stream
    /// ([`crate::stream::StreamQuery`]).
    OpenStream = 6,
    /// Server → client: one chunk of result items
    /// ([`crate::stream::ItemChunk`]).
    ItemChunk = 7,
    /// Coordinator → client: successful end of a stream with totals
    /// and stats ([`crate::stream::StreamEnd`]).
    StreamEnd = 8,
    /// Server → client: typed failure of one stream or call
    /// ([`crate::stream::StreamError`]).
    StreamError = 9,
    /// Client → server: abandon a stream. Clients of this build close the
    /// connection instead; a server reads the frame and ignores it.
    CancelStream = 10,
    /// Coordinator → node: one driver request
    /// ([`crate::message::Call`]).
    Call = 11,
    /// Node → coordinator: the answer to a call
    /// ([`crate::message::Reply`]).
    Reply = 12,
}

impl FrameKind {
    fn from_u8(b: u8) -> Result<FrameKind, ProtocolError> {
        Ok(match b {
            6 => FrameKind::OpenStream,
            7 => FrameKind::ItemChunk,
            8 => FrameKind::StreamEnd,
            9 => FrameKind::StreamError,
            10 => FrameKind::CancelStream,
            11 => FrameKind::Call,
            12 => FrameKind::Reply,
            other => return Err(ProtocolError::UnknownFrame(other)),
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub kind: FrameKind,
    pub payload: Vec<u8>,
}

/// Typed failure of the wire layer. Codec-level failures (a payload that
/// passed the checksum but does not decode) use [`ProtocolError::Malformed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The first four bytes were not the protocol magic.
    BadMagic([u8; 4]),
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion(u8),
    /// Unknown frame-kind byte.
    UnknownFrame(u8),
    /// Declared payload length exceeds the hard cap.
    Oversized { len: usize, max: usize },
    /// The payload's CRC-32 does not match the header's.
    ChecksumMismatch { expected: u32, actual: u32 },
    /// The stream ended mid-frame.
    Truncated { context: &'static str },
    /// The payload passed framing but does not decode.
    Malformed(String),
    /// A frame was well-formed on its own but violates stream state:
    /// duplicate or out-of-order chunk sequence, a frame of another
    /// stream, a chunk-count mismatch at end-of-stream, an oversized
    /// chunk, or a kind the receiving side never takes.
    Stream(String),
    /// Transport-level I/O failure.
    Io(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadMagic(RETIRED_MAGIC) => {
                write!(f, "frame magic \"PXN1\": that protocol is retired, this build speaks PXN2")
            }
            ProtocolError::BadMagic(got) => write!(f, "bad frame magic {got:?}"),
            ProtocolError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (this build speaks {VERSION})")
            }
            ProtocolError::UnknownFrame(k) => write!(f, "unknown frame kind {k}"),
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame payload of {len} B exceeds the {max} B cap")
            }
            ProtocolError::ChecksumMismatch { expected, actual } => {
                write!(f, "payload checksum mismatch: header {expected:#010x}, computed {actual:#010x}")
            }
            ProtocolError::Truncated { context } => write!(f, "stream truncated in {context}"),
            ProtocolError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            ProtocolError::Stream(msg) => write!(f, "stream protocol violation: {msg}"),
            ProtocolError::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> ProtocolError {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => ProtocolError::Truncated { context: "frame" },
            // a socket's read / write deadline passing, as the platform names it
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                ProtocolError::Io(format!("timed out waiting for the peer: {e}"))
            }
            _ => ProtocolError::Io(e.to_string()),
        }
    }
}

/// Start a frame of `kind` in a fresh buffer: the header, with the
/// payload length and checksum left blank for `seal_frame`. The payload
/// is appended after it.
pub(crate) fn begin_frame(kind: FrameKind) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&[0; 8]);
    out
}

/// Seal a frame begun by `begin_frame`: everything after the header is
/// the payload; its length is checked against [`MAX_PAYLOAD`] and written
/// into the header with its checksum. The sealed bytes go on the wire as
/// they are.
pub(crate) fn seal_frame(mut frame: Vec<u8>) -> Result<Vec<u8>, ProtocolError> {
    let len = frame.len() - HEADER_LEN;
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized { len, max: MAX_PAYLOAD });
    }
    let crc = crc32(&frame[HEADER_LEN..]);
    frame[6..10].copy_from_slice(&(len as u32).to_le_bytes());
    frame[10..14].copy_from_slice(&crc.to_le_bytes());
    Ok(frame)
}

/// Encode a frame into its on-wire bytes (header + payload).
///
/// # Panics
/// If `payload` exceeds [`MAX_PAYLOAD`]: no peer would accept the frame.
/// Senders of answers go through `codec::frame_of`, which returns that as
/// [`ProtocolError::Oversized`] instead.
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut out = begin_frame(kind);
    out.extend_from_slice(payload);
    seal_frame(out).expect("payload within the frame cap")
}

/// Read one frame. `Ok(None)` means the peer closed the connection
/// cleanly *before* the first header byte — the normal end of a
/// connection. An EOF anywhere later is [`ProtocolError::Truncated`].
/// The returned `usize` is the number of wire bytes consumed.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(Frame, usize)>, ProtocolError> {
    // the header, asking for all of it at once (one `read` when it has
    // arrived whole, as it nearly always has)
    let mut header = [0u8; HEADER_LEN];
    let mut have = 0;
    while have < HEADER_LEN {
        match r.read(&mut header[have..]) {
            Ok(0) if have == 0 => return Ok(None),
            Ok(0) => return Err(ProtocolError::Truncated { context: "header" }),
            Ok(n) => have += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let (kind, len, expected) = validate_header(&header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => ProtocolError::Truncated { context: "payload" },
        _ => e.into(),
    })?;
    let actual = crc32(&payload);
    if actual != expected {
        return Err(ProtocolError::ChecksumMismatch { expected, actual });
    }
    Ok(Some((Frame { kind, payload }, HEADER_LEN + len)))
}

/// Validate a complete header: magic, version, known kind, and payload
/// length under the cap. Returns the kind, the payload length and the
/// expected CRC.
fn validate_header(header: &[u8; HEADER_LEN]) -> Result<(FrameKind, usize, u32), ProtocolError> {
    if header[..4] != MAGIC {
        let mut got = [0u8; 4];
        got.copy_from_slice(&header[..4]);
        return Err(ProtocolError::BadMagic(got));
    }
    if header[4] != VERSION {
        return Err(ProtocolError::UnsupportedVersion(header[4]));
    }
    let kind = FrameKind::from_u8(header[5])?;
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized { len, max: MAX_PAYLOAD });
    }
    let expected = u32::from_le_bytes([header[10], header[11], header[12], header[13]]);
    Ok((kind, len, expected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn sealing_checks_the_cap_at_the_sender() {
        let mut over = begin_frame(FrameKind::Reply);
        assert_eq!(over.len(), HEADER_LEN);
        over.resize(HEADER_LEN + MAX_PAYLOAD + 1, 7);
        assert_eq!(
            seal_frame(over).unwrap_err(),
            ProtocolError::Oversized { len: MAX_PAYLOAD + 1, max: MAX_PAYLOAD }
        );
    }

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello frames".to_vec();
        let bytes = encode_frame(FrameKind::Call, &payload);
        assert_eq!(bytes.len(), HEADER_LEN + payload.len());
        assert_eq!((&bytes[..4], bytes[4]), (&b"PXN2"[..], VERSION));
        let (frame, n) = read_frame(&mut Cursor::new(&bytes)).unwrap().unwrap();
        assert_eq!(n, bytes.len());
        assert_eq!(frame.kind, FrameKind::Call);
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn clean_eof_is_none() {
        assert_eq!(read_frame(&mut Cursor::new(&[])).unwrap(), None);
    }

    #[test]
    fn truncated_header_and_payload_are_typed() {
        let bytes = encode_frame(FrameKind::Reply, b"abc");
        for cut in 1..bytes.len() {
            let err = read_frame(&mut Cursor::new(&bytes[..cut])).unwrap_err();
            assert!(
                matches!(err, ProtocolError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut bytes = encode_frame(FrameKind::Reply, b"abcdef");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
        assert!(matches!(err, ProtocolError::ChecksumMismatch { .. }), "{err}");
    }

    #[test]
    fn a_flipped_byte_in_any_lane_of_a_large_frame_fails_checksum() {
        // two 4 KiB blocks of four 1 KiB lanes and a tail: one flipped byte
        // in any lane, or in the tail, is caught before the codec sees it
        let payload: Vec<u8> = (0..2 * 4096 + 100u32).map(|i| (i * 31 + i / 7) as u8).collect();
        let good = encode_frame(FrameKind::ItemChunk, &payload);
        assert_eq!(read_frame(&mut Cursor::new(&good)).unwrap().unwrap().0.payload, payload);
        let flips = (0..8).map(|lane| lane * 1024 + 517).chain([2 * 4096 + 99]);
        for at in flips {
            let mut bytes = good.clone();
            bytes[HEADER_LEN + at] ^= 0x20;
            let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
            assert!(matches!(err, ProtocolError::ChecksumMismatch { .. }), "byte {at}: {err}");
        }
    }

    #[test]
    fn bad_magic_version_kind_and_length_are_typed() {
        let good = encode_frame(FrameKind::CancelStream, &[]);
        let mut bad_magic = good.clone();
        bad_magic[0] = b'Q';
        assert!(matches!(
            read_frame(&mut Cursor::new(&bad_magic)).unwrap_err(),
            ProtocolError::BadMagic(_)
        ));
        let mut bad_version = good.clone();
        bad_version[4] = 9;
        let err = read_frame(&mut Cursor::new(&bad_version)).unwrap_err();
        assert!(matches!(err, ProtocolError::UnsupportedVersion(9)));
        assert_eq!(
            err.to_string(),
            "unsupported protocol version 9 (this build speaks 2)"
        );
        let mut bad_kind = good.clone();
        bad_kind[5] = 200;
        assert!(matches!(
            read_frame(&mut Cursor::new(&bad_kind)).unwrap_err(),
            ProtocolError::UnknownFrame(200)
        ));
        let mut oversized = good.clone();
        oversized[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(&oversized)).unwrap_err(),
            ProtocolError::Oversized { .. }
        ));
    }

    #[test]
    fn the_retired_protocol_is_refused_by_name() {
        // a PXN1 health ping, as a peer of the previous build sends it
        let mut ping = encode_frame(FrameKind::CancelStream, &[]);
        ping[..6].copy_from_slice(b"PXN1\x01\x04");
        let err = read_frame(&mut Cursor::new(&ping)).unwrap_err();
        assert_eq!(err, ProtocolError::BadMagic(*b"PXN1"));
        let text = err.to_string();
        assert!(text.contains("PXN1") && text.contains("retired"), "{text}");
        // its kinds are unassigned under the live magic, its version unknown
        for kind in 1..=5 {
            let mut frame = encode_frame(FrameKind::CancelStream, &[]);
            frame[5] = kind;
            assert_eq!(
                read_frame(&mut Cursor::new(&frame)).unwrap_err(),
                ProtocolError::UnknownFrame(kind)
            );
        }
        let mut frame = encode_frame(FrameKind::OpenStream, b"");
        frame[4] = 1;
        assert_eq!(
            read_frame(&mut Cursor::new(&frame)).unwrap_err(),
            ProtocolError::UnsupportedVersion(1)
        );
    }
}

//! The length-prefixed binary frame layer.
//!
//! Every message on a PartiX connection is one frame:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "PXN1"
//!      4     1  version (currently 1)
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
//! has to refuse. [`encode_frame`] / [`write_frame`] are the same two
//! steps around a payload that already exists.
//!
//! The checksum is one kernel, [`crc32`]: slicing-by-8 over `const`
//! tables (eight table steps per eight input bytes instead of one per
//! byte), the IEEE polynomial, safe Rust, the same on every CPU. An
//! answer is checksummed at each end of each hop, so this is paid four
//! times per byte between a node and a client. Every way a peer can deviate — wrong magic,
//! unknown version or kind, oversized length, short read, corrupted
//! payload — surfaces as a typed [`ProtocolError`], never a panic: a
//! malformed peer must not be able to take down a coordinator or a node
//! server.
//!
//! Versioning: the version byte names the *frame semantics*. A receiver
//! rejects versions it does not know with
//! [`ProtocolError::UnsupportedVersion`] (no silent best-effort parsing),
//! so incompatible peers fail fast at the first frame. New frame kinds
//! within a version are likewise rejected by older peers via
//! [`ProtocolError::UnknownFrame`].
//!
//! Version 2 ("PXN2") adds the chunked-streaming kinds: a query opens a
//! *stream* (client-chosen 64-bit id, multiplexed over one connection)
//! and the answer comes back as zero or more [`FrameKind::ItemChunk`]
//! frames followed by exactly one [`FrameKind::StreamEnd`] (success) or
//! [`FrameKind::StreamError`] (typed failure). The header layout is
//! byte-identical to version 1 — only the magic, version byte, and the
//! set of legal kinds differ — so one reader handles both and a
//! version-1-only peer rejects a v2 frame at the magic/version check.

use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: "PXN1" (PartiX Net, layout 1).
pub const MAGIC: [u8; 4] = *b"PXN1";

/// Frame magic for streaming frames: "PXN2".
pub const MAGIC2: [u8; 4] = *b"PXN2";

/// Current protocol version for request/response frames.
pub const VERSION: u8 = 1;

/// Protocol version for streaming frames.
pub const VERSION2: u8 = 2;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 14;

/// Hard cap on a frame payload (64 MiB). A length field above this is
/// rejected before any allocation happens.
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Coordinator → node: an encoded [`crate::message::Request`].
    Request = 1,
    /// Node → coordinator: an encoded [`crate::message::Response`].
    Result = 2,
    /// Node → coordinator: an encoded [`crate::message::WireError`].
    Error = 3,
    /// Coordinator → node: liveness probe (empty payload).
    HealthPing = 4,
    /// Node → coordinator: probe answer (empty payload).
    HealthPong = 5,
    /// v2, client → coordinator: open a result stream
    /// ([`crate::stream::StreamQuery`]).
    OpenStream = 6,
    /// v2, coordinator → client: one chunk of result items
    /// ([`crate::stream::ItemChunk`]).
    ItemChunk = 7,
    /// v2, coordinator → client: successful end of a stream with totals
    /// and stats ([`crate::stream::StreamEnd`]).
    StreamEnd = 8,
    /// v2, coordinator → client: typed failure of one stream
    /// ([`crate::stream::StreamError`]).
    StreamError = 9,
    /// v2, client → coordinator: abandon a stream; the server stops
    /// producing chunks for it ([`crate::stream::CancelStream`]).
    CancelStream = 10,
}

impl FrameKind {
    fn from_u8(b: u8) -> Result<FrameKind, ProtocolError> {
        Ok(match b {
            1 => FrameKind::Request,
            2 => FrameKind::Result,
            3 => FrameKind::Error,
            4 => FrameKind::HealthPing,
            5 => FrameKind::HealthPong,
            6 => FrameKind::OpenStream,
            7 => FrameKind::ItemChunk,
            8 => FrameKind::StreamEnd,
            9 => FrameKind::StreamError,
            10 => FrameKind::CancelStream,
            other => return Err(ProtocolError::UnknownFrame(other)),
        })
    }

    /// The protocol version a kind belongs to. A kind arriving inside a
    /// frame of the other version is rejected as [`ProtocolError::UnknownFrame`].
    pub fn version(self) -> u8 {
        match self {
            FrameKind::Request
            | FrameKind::Result
            | FrameKind::Error
            | FrameKind::HealthPing
            | FrameKind::HealthPong => VERSION,
            FrameKind::OpenStream
            | FrameKind::ItemChunk
            | FrameKind::StreamEnd
            | FrameKind::StreamError
            | FrameKind::CancelStream => VERSION2,
        }
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
    /// duplicate or out-of-order chunk sequence, a chunk for an unknown
    /// or finished stream, a chunk-count mismatch at end-of-stream, or
    /// an oversized chunk.
    Stream(String),
    /// Transport-level I/O failure.
    Io(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadMagic(got) => write!(f, "bad frame magic {got:?}"),
            ProtocolError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {VERSION} and {VERSION2})"
                )
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
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtocolError::Truncated { context: "frame" }
        } else {
            ProtocolError::Io(e.to_string())
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `data`,
/// eight bytes per step: `TABLES[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so the eight lookups of a step are independent of
/// each other and only their XOR feeds the next step.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = crc32_tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Start a frame of `kind` in a fresh buffer: the header, with the
/// payload length and checksum left blank for `seal_frame`. The magic
/// and version bytes follow the kind: streaming kinds are "PXN2"/2,
/// request/response kinds "PXN1"/1. The payload is appended after it.
pub(crate) fn begin_frame(kind: FrameKind) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    if kind.version() == VERSION2 {
        out.extend_from_slice(&MAGIC2);
        out.push(VERSION2);
    } else {
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
    }
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

fn frame_around(kind: FrameKind, payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    let mut out = begin_frame(kind);
    out.extend_from_slice(payload);
    seal_frame(out)
}

/// Encode a frame into its on-wire bytes (header + payload).
///
/// # Panics
/// If `payload` exceeds [`MAX_PAYLOAD`]: no peer would accept the frame.
/// [`write_frame`] returns that as [`ProtocolError::Oversized`] instead.
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    frame_around(kind, payload).expect("payload within the frame cap")
}

/// Write one frame. Returns the number of bytes put on the wire.
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    payload: &[u8],
) -> Result<usize, ProtocolError> {
    let frame = frame_around(kind, payload)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// Read one frame. `Ok(None)` means the peer closed the connection
/// cleanly *before* the first header byte — the normal end of a
/// connection. An EOF anywhere later is [`ProtocolError::Truncated`].
/// The returned `usize` is the number of wire bytes consumed.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(Frame, usize)>, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    if !fill_header(r, &mut header, 0)? {
        return Ok(None);
    }
    read_payload(r, &header).map(Some)
}

/// Finish reading a frame whose first header byte has already been
/// consumed (the node server polls for that byte so shutdown can drain
/// idle connections).
pub fn read_frame_after(
    r: &mut impl Read,
    first: u8,
) -> Result<(Frame, usize), ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    header[0] = first;
    fill_header(r, &mut header, 1)?;
    read_payload(r, &header)
}

/// Fill `header[have..]`, asking for all of it at once (one `read` when
/// the header has arrived whole, as it nearly always has). `Ok(false)`:
/// the stream ended before any header byte at all.
fn fill_header(
    r: &mut impl Read,
    header: &mut [u8; HEADER_LEN],
    mut have: usize,
) -> Result<bool, ProtocolError> {
    while have < HEADER_LEN {
        match r.read(&mut header[have..]) {
            Ok(0) if have == 0 => return Ok(false),
            Ok(0) => return Err(ProtocolError::Truncated { context: "header" }),
            Ok(n) => have += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

/// Validate `header`, then read and verify the payload it announces.
fn read_payload(
    r: &mut impl Read,
    header: &[u8; HEADER_LEN],
) -> Result<(Frame, usize), ProtocolError> {
    let (kind, len, expected) = validate_header(header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtocolError::Truncated { context: "payload" }
        } else {
            ProtocolError::Io(e.to_string())
        }
    })?;
    verify(&payload, expected)?;
    Ok((Frame { kind, payload }, HEADER_LEN + len))
}

fn verify(payload: &[u8], expected: u32) -> Result<(), ProtocolError> {
    let actual = crc32(payload);
    if actual != expected {
        return Err(ProtocolError::ChecksumMismatch { expected, actual });
    }
    Ok(())
}

/// Validate a complete header: magic/version pairing, known kind for
/// that version, and payload length under the cap. Returns the kind, the
/// payload length and the expected CRC.
fn validate_header(header: &[u8; HEADER_LEN]) -> Result<(FrameKind, usize, u32), ProtocolError> {
    let expect_version = if header[..4] == MAGIC {
        VERSION
    } else if header[..4] == MAGIC2 {
        VERSION2
    } else {
        let mut got = [0u8; 4];
        got.copy_from_slice(&header[..4]);
        return Err(ProtocolError::BadMagic(got));
    };
    if header[4] != expect_version {
        return Err(ProtocolError::UnsupportedVersion(header[4]));
    }
    let kind = FrameKind::from_u8(header[5])?;
    if kind.version() != expect_version {
        // A v1 kind under the PXN2 magic (or vice versa) is as unknown
        // to this layer as an unassigned byte.
        return Err(ProtocolError::UnknownFrame(header[5]));
    }
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized { len, max: MAX_PAYLOAD });
    }
    let expected = u32::from_le_bytes([header[10], header[11], header[12], header[13]]);
    Ok((kind, len, expected))
}

/// Incremental decode over bytes already in memory: try to parse one frame
/// from the front of `buf`. `Ok(None)` means the buffer does not yet
/// hold a complete frame (read more bytes); `Ok(Some((frame, n)))`
/// consumed `n` bytes. Header-level garbage surfaces immediately, even
/// before the payload arrives, so a hostile peer cannot park a huge
/// bogus length in the buffer.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, ProtocolError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&buf[..HEADER_LEN]);
    let (kind, len, expected) = validate_header(&header)?;
    if buf.len() < HEADER_LEN + len {
        return Ok(None);
    }
    let payload = buf[HEADER_LEN..HEADER_LEN + len].to_vec();
    verify(&payload, expected)?;
    Ok(Some((Frame { kind, payload }, HEADER_LEN + len)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// The bytewise table walk the sliced kernel replaced: the reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            *slot = crc;
        }
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Seeded xorshift bytes: the differential needs no particular
    /// distribution, only that it repeats.
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            out.extend_from_slice(&seed.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn crc32_known_vectors() {
        // standard IEEE test vector
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn crc32_sliced_equals_bytewise_reference() {
        // every length around the eight-byte step, at every alignment
        let buf = noise(8 + 256, 0x9E37_79B9_7F4A_7C15);
        for offset in 0..8 {
            for len in 0..=256 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "offset {offset}, len {len}");
            }
        }
        // answer-sized buffers, odd lengths included
        for (seed, len) in [(1, 64 << 10), (2, (256 << 10) + 3), (3, (640 << 10) + 5), (4, 1 << 20)] {
            let data = noise(len, seed);
            assert_eq!(crc32(&data), crc32_bytewise(&data), "{len} B");
        }
    }

    #[test]
    fn sealing_checks_the_cap_at_the_sender() {
        let mut over = begin_frame(FrameKind::Result);
        assert_eq!(over.len(), HEADER_LEN);
        over.resize(HEADER_LEN + MAX_PAYLOAD + 1, 7);
        assert_eq!(
            seal_frame(over).unwrap_err(),
            ProtocolError::Oversized { len: MAX_PAYLOAD + 1, max: MAX_PAYLOAD }
        );
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, FrameKind::Result, &vec![0; MAX_PAYLOAD + 1]).unwrap_err();
        assert!(matches!(err, ProtocolError::Oversized { .. }), "{err}");
        assert!(sink.is_empty(), "nothing of an oversized frame reaches the wire");
    }

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello frames".to_vec();
        let bytes = encode_frame(FrameKind::Request, &payload);
        assert_eq!(bytes.len(), HEADER_LEN + payload.len());
        let (frame, n) = read_frame(&mut Cursor::new(&bytes)).unwrap().unwrap();
        assert_eq!(n, bytes.len());
        assert_eq!(frame.kind, FrameKind::Request);
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn clean_eof_is_none() {
        assert_eq!(read_frame(&mut Cursor::new(&[])).unwrap(), None);
    }

    #[test]
    fn truncated_header_and_payload_are_typed() {
        let bytes = encode_frame(FrameKind::Result, b"abc");
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
        let mut bytes = encode_frame(FrameKind::Result, b"abcdef");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
        assert!(matches!(err, ProtocolError::ChecksumMismatch { .. }), "{err}");
    }

    #[test]
    fn bad_magic_version_kind_and_length_are_typed() {
        let good = encode_frame(FrameKind::HealthPing, &[]);
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
            "unsupported protocol version 9 (this build speaks 1 and 2)"
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
    fn v2_frame_roundtrip_and_magic_pairing() {
        let bytes = encode_frame(FrameKind::ItemChunk, b"chunk");
        assert_eq!(&bytes[..4], b"PXN2");
        assert_eq!(bytes[4], VERSION2);
        let (frame, n) = read_frame(&mut Cursor::new(&bytes)).unwrap().unwrap();
        assert_eq!(n, bytes.len());
        assert_eq!(frame.kind, FrameKind::ItemChunk);
        assert_eq!(frame.payload, b"chunk");

        // a v1 kind under the PXN2 magic is rejected, and vice versa
        let mut crossed = encode_frame(FrameKind::ItemChunk, b"");
        crossed[5] = FrameKind::Request as u8;
        assert!(matches!(
            read_frame(&mut Cursor::new(&crossed)).unwrap_err(),
            ProtocolError::UnknownFrame(1)
        ));
        let mut crossed = encode_frame(FrameKind::Request, b"");
        crossed[5] = FrameKind::OpenStream as u8;
        assert!(matches!(
            read_frame(&mut Cursor::new(&crossed)).unwrap_err(),
            ProtocolError::UnknownFrame(6)
        ));
        // PXN2 magic with a version-1 byte fails the version check
        let mut crossed = encode_frame(FrameKind::OpenStream, b"");
        crossed[4] = VERSION;
        assert!(matches!(
            read_frame(&mut Cursor::new(&crossed)).unwrap_err(),
            ProtocolError::UnsupportedVersion(1)
        ));
    }

    #[test]
    fn decode_frame_is_incremental() {
        let bytes = encode_frame(FrameKind::StreamEnd, b"the end");
        for cut in 0..bytes.len() {
            assert_eq!(decode_frame(&bytes[..cut]).unwrap(), None, "cut at {cut}");
        }
        let (frame, n) = decode_frame(&bytes).unwrap().unwrap();
        assert_eq!(n, bytes.len());
        assert_eq!(frame.kind, FrameKind::StreamEnd);
        // trailing bytes of the next frame are left alone
        let mut two = bytes.clone();
        two.extend_from_slice(&bytes);
        let (_, n) = decode_frame(&two).unwrap().unwrap();
        assert_eq!(n, bytes.len());
        // header garbage surfaces before the payload arrives
        let mut bogus = bytes.clone();
        bogus[0] = b'Q';
        assert!(matches!(
            decode_frame(&bogus[..HEADER_LEN]).unwrap_err(),
            ProtocolError::BadMagic(_)
        ));
    }
}

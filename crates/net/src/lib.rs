//! # partix-net — the PartiX network transport
//!
//! PartiX is middleware that ships localized sub-queries to the nodes
//! hosting each fragment and composes their answers (PAPER Sec. 4).
//! Everything below the driver trait used to run in-process; this crate
//! makes the hop real:
//!
//! * [`frame`] — length-prefixed, checksummed, versioned binary frames,
//!   shared by both protocols: the CRC-32 kernel and the one place a
//!   frame is sealed (length bound, checksum).
//! * [`codec`] — defensive payload encoding for queries (full AST),
//!   result sequences, and documents, written straight into the frame
//!   that carries them.
//! * [`message`] — the PXN1 request/response vocabulary (the driver
//!   trait on the wire), including typed, retryability-tagged errors.
//! * [`server`] — [`NodeServer`]: a per-node TCP listener hosting
//!   fragments behind the existing storage stack, with graceful
//!   drain-then-close shutdown.
//! * [`client`] — [`RemoteDriver`]: a connection-pooled
//!   `PartixDriver` implementation, so dispatch modes, retry/failover
//!   policy, fault injection, caching, and tracing all work unchanged
//!   over real sockets.
//! * [`stream`] — the PXN2 vocabulary: a query opens a stream, the
//!   answer comes back as item chunks and one end-of-stream or typed
//!   error; [`StreamAssembler`] re-checks all of it on arrival.
//! * [`stream_server`] — [`StreamServer`]: the multiplexed streaming
//!   endpoint — a blocking reader and a condvar-woken writer per
//!   connection, a shared worker pool, byte-bounded send queues for
//!   backpressure.
//! * [`stream_client`] — [`StreamClient`] (one multiplexed connection)
//!   and [`CoordinatorPool`] (failover across coordinator replicas).
//! * [`coord`] — [`serve_coordinator`]: the [`StreamHandler`] that
//!   answers stream queries from a `PartiX` engine.
//!
//! The coordinator never knows whether a node is an in-process
//! `Database` or a socket away — that is the point: the local-vs-remote
//! differential suite (`tests/remote_differential.rs`) holds the two
//! worlds to byte-identical answers.

pub mod client;
pub mod codec;
pub mod coord;
pub mod frame;
#[cfg(test)]
mod golden;
pub mod message;
pub mod server;
pub mod stream;
pub mod stream_client;
pub mod stream_server;

pub use client::{RemoteDriver, RemoteDriverConfig, WireStats};
pub use coord::{serve_coordinator, CoordHandler};
pub use frame::{Frame, FrameKind, ProtocolError, HEADER_LEN, MAX_PAYLOAD, VERSION, VERSION2};
pub use message::{ErrorCode, Request, Response, WireError};
pub use server::{NodeServer, ServerConfig, ServerTenancy};
pub use stream::{
    CancelStream, ItemChunk, StreamAssembler, StreamEnd, StreamError, StreamOutcome, StreamQuery,
    StreamStats,
};
pub use stream_client::{
    CoordinatorPool, StreamCallError, StreamClient, StreamClientConfig, StreamOpts, StreamResult,
};
pub use stream_server::{
    ChunkSink, SinkClosed, StreamFailure, StreamHandler, StreamServer, StreamServerConfig,
};

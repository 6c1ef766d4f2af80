//! # partix-net — the PartiX network transport
//!
//! PartiX is middleware that ships localized sub-queries to the nodes
//! hosting each fragment and composes their answers (PAPER Sec. 4).
//! Everything below the driver trait used to run in-process; this crate
//! makes the hop real, and every hop is the same kind of hop: one frame
//! format, one server, one client.
//!
//! * [`frame`] — length-prefixed, checksummed binary frames under one
//!   magic: the CRC-32 kernel and the one place a frame is sealed (length
//!   bound, checksum).
//! * [`codec`] — defensive payload encoding for queries (XQuery text,
//!   which the node parses: [`codec::print_query`] writes the one text
//!   that parses back to the query), result sequences, and documents,
//!   written straight into the frame that carries them.
//! * [`message`] — the node vocabulary (the driver trait on the wire:
//!   `Request` in a `Call`, `Response` in a `Reply`) and the one typed,
//!   retryability-tagged failure, [`WireError`].
//! * [`stream`] — the streaming vocabulary: a query opens a stream, the
//!   answer comes back as item chunks and one end-of-stream or typed
//!   error; [`StreamAssembler`] re-checks all of it on arrival.
//! * [`server`] — [`Server`]: a listener and one blocking thread per
//!   connection, which reads a frame, runs the [`Handler`] and writes the
//!   answer's frames straight to the socket.
//! * [`client`] — the one client: blocking connections checked out of a
//!   small idle list, socket deadlines, one stale-connection rule.
//! * [`node`] — the node leg on those two: [`NodeServer`] (a driver
//!   behind a `Server`) and [`RemoteDriver`] (a `PartixDriver` over a
//!   client, so dispatch, retry/failover policy, fault injection and
//!   tracing all work unchanged over real sockets).
//! * [`coord`] — the coordinator leg: [`serve_coordinator`] (a `PartiX`
//!   engine behind a `Server`), [`StreamClient`] and [`CoordinatorPool`]
//!   (failover across coordinator replicas).
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
pub mod node;
pub mod server;
pub mod stream;

pub use client::{StreamClientConfig, WireStats};
pub use coord::{
    serve_coordinator, CoordHandler, CoordinatorPool, StreamCallError, StreamClient, StreamOpts,
    StreamResult, StreamServer, StreamServerConfig,
};
pub use frame::{Frame, FrameKind, ProtocolError, HEADER_LEN, MAX_PAYLOAD, VERSION};
pub use message::{Call, ErrorCode, Reply, Request, Response, WireError};
pub use node::{NodeServer, RemoteDriver, ServerConfig};
pub use server::{ChunkSink, Handler, Server, SinkClosed};
pub use stream::{
    ItemChunk, StreamAssembler, StreamEnd, StreamError, StreamOutcome, StreamQuery, StreamStats,
};

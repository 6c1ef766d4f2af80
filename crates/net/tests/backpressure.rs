//! Slow-reader backpressure: one client that stops reading must stall
//! only its own stream. It blocks its own connection's thread in `write`
//! — the server holds one frame for it — every other client keeps
//! streaming at full rate, and tearing the slow reader down releases that
//! thread: the server serves on as if nothing happened.

use partix_net::frame::{encode_frame, FrameKind};
use partix_net::stream::{StreamQuery, StreamStats};
use partix_net::{
    ChunkSink, Handler, Server, StreamClient, StreamClientConfig, StreamOpts, WireError,
};
use partix_query::Item;
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Synthetic handler: the query text is an item count; items go out in
/// fixed batches so a big stream is many frames, not one.
struct CountHandler {
    /// One message per stream: its first batch went out.
    started: Mutex<Sender<()>>,
    /// One message per stream whose sink closed under it (the slow reader,
    /// once torn down).
    closed: Mutex<Sender<()>>,
}

impl Handler for CountHandler {
    fn stream(&self, query: &StreamQuery, sink: &dyn ChunkSink) -> Result<StreamStats, WireError> {
        let n: usize = query.text.parse().unwrap_or(0);
        let batch: Vec<Item> = (0..256).map(|i| Item::Num(i as f64)).collect();
        let mut sent = 0;
        while sent < n {
            let take = batch.len().min(n - sent);
            if sink.emit(&batch[..take]).is_err() {
                let _ = self.closed.lock().unwrap().send(());
                return Err(WireError::failure(true, "sink closed"));
            }
            if sent == 0 {
                let _ = self.started.lock().unwrap().send(());
            }
            sent += take;
        }
        Ok(StreamStats { sites: 1, ..StreamStats::default() })
    }
}

#[test]
fn slow_reader_stalls_only_itself() {
    // ~2M numeric items ≈ ~20 MB of frames: far beyond the kernel's socket
    // buffering, so the stalled stream's thread ends up blocked in `write`
    const STALLED_ITEMS: usize = 2_000_000;
    const FAST_ITEMS: usize = 1_000;
    const FAST_CLIENTS: usize = 4;
    const FAST_QUERIES: usize = 10;

    let (started_tx, started) = channel();
    let (closed_tx, closed) = channel();
    let handler = CountHandler { started: Mutex::new(started_tx), closed: Mutex::new(closed_tx) };
    let server = Server::bind("127.0.0.1:0", Arc::new(handler)).expect("bind");
    let addr = server.addr().to_string();

    // the slow reader: open a huge stream on a raw socket, read nothing
    let mut stalled = TcpStream::connect(&addr).expect("connect stalled");
    let open = StreamQuery {
        stream: 1,
        text: STALLED_ITEMS.to_string(),
        allow_partial: false,
        buffered: false,
        chunk_items: 64,
        tenant: String::new(),
    };
    stalled
        .write_all(&encode_frame(FrameKind::OpenStream, &open.encode()))
        .expect("open stalled stream");
    started
        .recv_timeout(Duration::from_secs(10))
        .expect("stalled stream never sent anything — is the handler running?");

    // fast clients run at full rate while the slow reader stalls
    let mut latencies: Vec<f64> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..FAST_CLIENTS)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let client = StreamClient::connect(&addr, StreamClientConfig::default())
                        .expect("fast client connects");
                    let mut observed = Vec::new();
                    for _ in 0..FAST_QUERIES {
                        let started = Instant::now();
                        let result = client
                            .query(&FAST_ITEMS.to_string(), StreamOpts::default())
                            .expect("fast query completes while another client stalls");
                        observed.push(started.elapsed().as_secs_f64());
                        assert_eq!(result.items.len(), FAST_ITEMS);
                        assert!(result.chunks > 1, "large answer should arrive chunked");
                    }
                    observed
                })
            })
            .collect();
        for h in handles {
            latencies.extend(h.join().expect("fast client"));
        }
    });

    // full rate: no fast query waited anywhere near the stall. The bound
    // is deliberately generous (shared single-core CI) — contamination
    // by a stalled peer would park a query for the full 30 s timeout.
    latencies.sort_by(f64::total_cmp);
    let p99 = latencies[(latencies.len() - 1).min(latencies.len() * 99 / 100)];
    assert!(
        p99 < 5.0,
        "fast-client p99 {p99:.3}s: the stalled client contaminated its peers"
    );

    // tear the slow reader down: its handler must observe the closed sink
    drop(stalled);
    closed
        .recv_timeout(Duration::from_secs(10))
        .expect("the stalled stream's handler must observe SinkClosed");
    assert!(closed.try_recv().is_err(), "no other stream lost its sink");

    // and the server serves on
    let client = StreamClient::connect(&addr, StreamClientConfig::default()).expect("reconnect");
    let result = client.query("100", StreamOpts::default()).expect("post-stall query");
    assert_eq!(result.items.len(), 100);
}

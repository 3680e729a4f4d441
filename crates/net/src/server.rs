//! The TCP ident++ daemon server.
//!
//! "End-hosts run an ident++ daemon as a server that receives queries on TCP
//! port 783" (§2). [`DaemonServer`] wraps an [`identxx_daemon::Daemon`] behind
//! a tokio TCP listener; each accepted connection may carry any number of
//! queries, each answered with the daemon's response (or silently ignored if
//! the daemon is configured silent — the querier's timeout handles that case,
//! exactly as it would for a host with no daemon at all).
//!
//! Every connection is an executor **task**, not an OS thread: the runtime's
//! reactor suspends it on socket readiness, so a server holding hundreds of
//! idle controller connections costs wakers and buffers, never threads
//! (`tests/reactor_stress.rs` pins this at ≥ 256 concurrent connections).
//! Configured response delays are timer-wheel events (`tokio::time::sleep`),
//! so a thousand delayed answers in flight still occupy only the worker
//! pool. See DESIGN.md §7.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use bytes::BytesMut;
use identxx_daemon::Daemon;
use identxx_proto::WireMessage;
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::Mutex;

use crate::framing::{read_message, write_message};

/// A running daemon server.
pub struct DaemonServer {
    daemon: Arc<Mutex<Daemon>>,
    local_addr: SocketAddr,
    handle: tokio::task::JoinHandle<()>,
    /// Cleared by [`DaemonServer::shutdown`]; the accept loop exits when it
    /// observes the flag after waking from `accept`.
    running: Arc<AtomicBool>,
    /// Signalled (by drop or send) when the accept loop has exited and the
    /// listener socket is closed.
    stopped: mpsc::Receiver<()>,
    /// Total queries answered across all connections (concurrent queries
    /// from a controller's dual-end fan-out land on separate connections,
    /// so per-connection counters would under-report).
    queries_served: Arc<AtomicU64>,
}

impl DaemonServer {
    /// Binds to `bind_addr` (use port 0 for an ephemeral port in tests; a real
    /// deployment uses [`identxx_proto::IDENTXX_PORT`]) and starts serving.
    pub async fn start(daemon: Daemon, bind_addr: SocketAddr) -> io::Result<DaemonServer> {
        let listener = TcpListener::bind(bind_addr).await?;
        let local_addr = listener.local_addr()?;
        let daemon = Arc::new(Mutex::new(daemon));
        let accept_daemon = Arc::clone(&daemon);
        let running = Arc::new(AtomicBool::new(true));
        let accept_running = Arc::clone(&running);
        let queries_served = Arc::new(AtomicU64::new(0));
        let accept_queries = Arc::clone(&queries_served);
        let (stopped_tx, stopped) = mpsc::channel();
        let handle = tokio::spawn(async move {
            while accept_running.load(Ordering::Acquire) {
                match listener.accept().await {
                    Ok((stream, _peer)) => {
                        // A post-shutdown wake-up is the poison pill (or a
                        // late client): don't serve it, just exit.
                        if !accept_running.load(Ordering::Acquire) {
                            break;
                        }
                        let connection_daemon = Arc::clone(&accept_daemon);
                        let connection_queries = Arc::clone(&accept_queries);
                        tokio::spawn(async move {
                            let _ = serve_connection(stream, connection_daemon, connection_queries)
                                .await;
                        });
                    }
                    Err(_) => break,
                }
            }
            // Close the listening socket *before* signalling, so `shutdown`
            // returning guarantees the port no longer accepts connections.
            drop(listener);
            drop(stopped_tx);
        });
        Ok(DaemonServer {
            daemon,
            local_addr,
            handle,
            running,
            stopped,
            queries_served,
        })
    }

    /// Total queries answered since the server started, across every
    /// connection (a controller querying both flow ends concurrently opens
    /// one connection per end).
    pub fn queries_served(&self) -> u64 {
        self.queries_served.load(Ordering::Relaxed)
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Access to the daemon behind the server (e.g. to start applications or
    /// install configuration while the server runs).
    pub fn daemon(&self) -> Arc<Mutex<Daemon>> {
        Arc::clone(&self.daemon)
    }

    /// Stops the server and waits (bounded) for the accept loop to exit.
    ///
    /// On the reactor runtime `abort` genuinely cancels: the accept task's
    /// future is dropped at its next yield point, which closes the listener
    /// socket and disconnects the `stopped` channel this method waits on.
    /// The cooperative flag + poison-pill connection are kept for real tokio
    /// runtimes driving the accept loop on another thread; both protocols
    /// converge on "listener closed before return". In-flight
    /// per-connection tasks finish serving independently.
    pub fn shutdown(self) {
        self.running.store(false, Ordering::Release);
        self.handle.abort();
        // Poison pill: unblock an accept loop that abort cannot interrupt.
        // A failure means the listener is already gone, which is fine.
        let _ = std::net::TcpStream::connect(self.local_addr);
        // Wait for the listener to drop (sender disconnects). Bound the wait
        // so a wedged runtime cannot hang the caller.
        let _ = self.stopped.recv_timeout(Duration::from_secs(5));
    }
}

async fn serve_connection(
    mut stream: TcpStream,
    daemon: Arc<Mutex<Daemon>>,
    queries_served: Arc<AtomicU64>,
) -> io::Result<()> {
    let mut buf = BytesMut::new();
    while let Some(message) = read_message(&mut stream, &mut buf).await? {
        // Answer under the lock, but model the host's processing latency
        // *outside* it, so concurrent queries to the same daemon (and of
        // course to different daemons) overlap their delays. A batch pays
        // the processing delay once per round trip, not once per flow —
        // that is the latency argument for batching.
        let (reply, answered, delay_micros) = {
            let mut daemon = daemon.lock().await;
            // Effective = configured + any active brownout from a failure
            // drill's fault injector.
            let delay_micros = daemon.effective_response_delay_micros();
            match &message {
                WireMessage::Query(query) => match daemon.answer(query) {
                    Ok(Some(response)) => {
                        (Some(WireMessage::Response(response)), 1u64, delay_micros)
                    }
                    // Silent daemon or a query about a flow that is not
                    // ours: close the connection without answering, like a
                    // host with no daemon would simply not have the port
                    // open.
                    Ok(None) | Err(_) => (None, 0, delay_micros),
                },
                WireMessage::QueryBatch(queries) => {
                    let mut answers: Vec<_> = queries
                        .iter()
                        .filter_map(|q| daemon.answer(q).ok().flatten())
                        .collect();
                    // Frame-level drill faults: the protocol matches answers
                    // to queries by flow, so a shuffled or duplicated batch
                    // must decide identically — drills prove it.
                    if let Some(injector) = daemon.fault_injector() {
                        let host = daemon.host().addr;
                        if !answers.is_empty() {
                            if let Some(seed) = injector.reorder_seed(host) {
                                identxx_daemon::FaultInjector::shuffle(&mut answers, seed);
                            }
                            if injector.duplicate_batch(host) {
                                answers.push(answers[0].clone());
                            }
                        }
                    }
                    if answers.is_empty() {
                        // No information about any flow in the batch: the
                        // same close-without-answering shape as a silent
                        // singleton.
                        (None, 0, delay_micros)
                    } else {
                        let n = answers.len() as u64;
                        (Some(WireMessage::ResponseBatch(answers)), n, delay_micros)
                    }
                }
                // A peer pushing responses at a server is not part of the
                // protocol; drop the frame and keep the connection.
                WireMessage::Response(_) | WireMessage::ResponseBatch(_) => continue,
            }
        };
        match reply {
            Some(frame) => {
                if delay_micros > 0 {
                    // A timer-wheel event, not a blocked thread: hundreds of
                    // connections can sit in their artificial processing
                    // delay simultaneously without occupying the worker
                    // pool.
                    tokio::time::sleep(Duration::from_micros(delay_micros)).await;
                }
                queries_served.fetch_add(answered, Ordering::Relaxed);
                write_message(&mut stream, &frame).await?;
            }
            None => break,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use identxx_hostmodel::{Executable, Host};
    use identxx_proto::{well_known, FiveTuple, Ipv4Addr, Query};

    fn test_daemon() -> (Daemon, FiveTuple) {
        let mut daemon = Daemon::bare(Host::new("h1", Ipv4Addr::new(10, 0, 0, 1)));
        let exe = Executable::new("/usr/bin/firefox", "firefox", 300, "mozilla", "browser");
        let flow =
            daemon
                .host_mut()
                .open_connection("alice", exe, 40000, Ipv4Addr::new(10, 0, 0, 2), 80);
        (daemon, flow)
    }

    #[tokio::test]
    async fn serves_queries_over_tcp() {
        let (daemon, flow) = test_daemon();
        let server = DaemonServer::start(daemon, "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let response = crate::client::query_daemon(
            server.local_addr(),
            Query::new(flow).with_key(well_known::USER_ID),
        )
        .await
        .unwrap()
        .expect("daemon should answer");
        assert_eq!(response.latest(well_known::USER_ID), Some("alice"));
        assert_eq!(response.latest(well_known::APP_NAME), Some("firefox"));
        server.shutdown();
    }

    #[tokio::test]
    async fn multiple_queries_on_one_connection() {
        let (daemon, flow) = test_daemon();
        let server = DaemonServer::start(daemon, "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).await.unwrap();
        let mut buf = BytesMut::new();
        for _ in 0..3 {
            write_message(&mut stream, &WireMessage::Query(Query::new(flow)))
                .await
                .unwrap();
            let reply = read_message(&mut stream, &mut buf).await.unwrap().unwrap();
            match reply {
                WireMessage::Response(r) => {
                    assert_eq!(r.latest(well_known::USER_ID), Some("alice"))
                }
                other => panic!("expected response, got {other:?}"),
            }
        }
        server.shutdown();
    }

    #[tokio::test]
    async fn silent_daemon_closes_without_answering() {
        let (mut daemon, flow) = test_daemon();
        daemon.set_silent(true);
        let server = DaemonServer::start(daemon, "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let result = crate::client::query_daemon(server.local_addr(), Query::new(flow))
            .await
            .unwrap();
        assert!(result.is_none());
        server.shutdown();
    }

    #[tokio::test]
    async fn shutdown_closes_listener_and_stops_accept_thread() {
        let (daemon, flow) = test_daemon();
        let server = DaemonServer::start(daemon, "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let addr = server.local_addr();
        // The server answers while running.
        let response = crate::client::query_daemon(addr, Query::new(flow))
            .await
            .unwrap();
        assert!(response.is_some());
        // Shutdown returns only after the accept loop exited and dropped the
        // listener, so the port must refuse new connections afterwards.
        server.shutdown();
        assert!(
            std::net::TcpStream::connect(addr).is_err(),
            "listener socket should be closed after shutdown"
        );
    }

    #[tokio::test]
    async fn daemon_state_can_change_while_serving() {
        let (daemon, flow) = test_daemon();
        let server = DaemonServer::start(daemon, "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        // Mark the daemon compromised mid-flight.
        {
            let daemon = server.daemon();
            let mut daemon = daemon.lock().await;
            daemon.set_forged_response(Some(vec![("userID".to_string(), "system".to_string())]));
        }
        let response = crate::client::query_daemon(server.local_addr(), Query::new(flow))
            .await
            .unwrap()
            .unwrap();
        assert_eq!(response.latest(well_known::USER_ID), Some("system"));
        server.shutdown();
    }
}

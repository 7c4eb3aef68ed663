//! An authoritative name server (UDP + TCP) over the wire codec.
//!
//! This puts the RFC 1035 codec on real sockets: integration tests run the
//! complete crawl→parse→analyze pipeline against a [`UdpNameServer`] bound
//! to 127.0.0.1, demonstrating that the substrate is wire-compatible and
//! not a shortcut around the network. The server also listens on TCP
//! (RFC 7766, 2-byte length-prefixed messages) on the same port, and the
//! client ([`crate::fleet::WireResolver`]) falls back to TCP when a UDP
//! response arrives truncated — the path big provider records
//! (websitewelcome-scale, dozens of blocks) need under classic 512-byte
//! payloads.
//!
//! The UDP half runs on [`serve_datagrams`], the one server-side
//! `recvmmsg` / `sendmmsg` loop in the workspace; the verdict service's
//! UDP listener runs on it too, with its own [`DatagramHandler`]. The
//! client batches the same way per lookup call and shares `send_all`.
//! The TCP half runs on [`serve_connections`], the one accept loop,
//! which the verdict service and the receiving MTA share.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, SocketAddrV4, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use nix::sys::socket::{
    recv_from_batch, send_to_batch, set_recv_buffer_size, set_recv_timeout, RecvSlot, SendPacket,
};

use crate::record::{Question, RrSet};
use crate::resolver::DnsError;
use crate::wire::{self, Header, Message, Rcode};
use crate::zone::{LookupOutcome, ZoneFault, ZoneStore};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Largest response payload before the server truncates (sets TC and
    /// empties the answer section). 1232 is the EDNS-era conventional safe
    /// size; set 512 to exercise classic truncation.
    pub max_payload: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_payload: 1232 }
    }
}

/// A running authoritative name server on a background thread.
///
/// The server answers from a shared [`ZoneStore`]; names with a
/// [`ZoneFault::Timeout`] fault are silently dropped so clients observe a
/// real timeout.
pub struct UdpNameServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// The UDP and TCP server threads.
    threads: Vec<JoinHandle<()>>,
    answered: Arc<AtomicU64>,
    tcp_answered: Arc<AtomicU64>,
}

impl UdpNameServer {
    /// Bind to 127.0.0.1 on an ephemeral port and start serving.
    pub fn spawn(store: Arc<ZoneStore>, config: ServerConfig) -> std::io::Result<Self> {
        // RFC 7766 companion listener on the same port. TCP responses are
        // never truncated.
        let (socket, tcp_listener) = bind_udp_tcp_pair()?;
        socket.set_read_timeout(Some(Duration::from_millis(25)))?;
        let addr = socket.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let answered = Arc::new(AtomicU64::new(0));
        let thread_shutdown = Arc::clone(&shutdown);
        let mut handler = NameServerHandler {
            store: Arc::clone(&store),
            config,
            answered: Arc::clone(&answered),
        };
        let handle = std::thread::Builder::new()
            .name("udp-nameserver".into())
            .spawn(move || serve_datagrams(&socket, 4096, &thread_shutdown, &mut handler))?;
        let tcp_shutdown = Arc::clone(&shutdown);
        let tcp_answered = Arc::new(AtomicU64::new(0));
        let tcp_counter = Arc::clone(&tcp_answered);
        let serve = move |stream, _| {
            let _ = serve_tcp_connection(stream, &store, &tcp_counter);
        };
        let tcp_handle = std::thread::Builder::new()
            .name("tcp-nameserver".into())
            .spawn(move || serve_connections(tcp_listener, &tcp_shutdown, "tcp-ns-conn", serve))?;
        Ok(UdpNameServer {
            addr,
            shutdown,
            threads: vec![handle, tcp_handle],
            answered,
            tcp_answered,
        })
    }

    /// The bound address to point clients at.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of UDP responses sent.
    pub fn answered(&self) -> u64 {
        self.answered.load(Ordering::Relaxed)
    }

    /// Number of TCP responses sent (truncation fallbacks).
    pub fn tcp_answered(&self) -> u64 {
        self.tcp_answered.load(Ordering::Relaxed)
    }
}

impl Drop for UdpNameServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Ports [`bind_udp_tcp_pair`] tries before it gives up.
const PAIR_BIND_TRIES: usize = 16;

/// A UDP socket and a TCP listener on the same ephemeral loopback port —
/// the shape of [`UdpNameServer`] and the verdict service. The UDP side
/// picks the port, and the TCP side may find that number already taken
/// by some unrelated TCP socket; then the pair moves to a fresh UDP port,
/// up to `PAIR_BIND_TRIES` times. Any other error is returned at once.
pub fn bind_udp_tcp_pair() -> std::io::Result<(UdpSocket, TcpListener)> {
    bind_pair_with(|| UdpSocket::bind(("127.0.0.1", 0)))
}

/// [`bind_udp_tcp_pair`] with the UDP bind as a parameter, so a test can
/// hand it a port whose TCP side it holds.
fn bind_pair_with(
    mut bind_udp: impl FnMut() -> std::io::Result<UdpSocket>,
) -> std::io::Result<(UdpSocket, TcpListener)> {
    // Ports that failed stay bound until the pair is found, so the
    // kernel cannot hand one of them back.
    let mut refused = Vec::new();
    for _ in 0..PAIR_BIND_TRIES {
        let udp = bind_udp()?;
        match TcpListener::bind(udp.local_addr()?) {
            Ok(tcp) => return Ok((udp, tcp)),
            Err(e) if e.kind() == ErrorKind::AddrInUse => refused.push(udp),
            Err(e) => return Err(e),
        }
    }
    Err(std::io::Error::new(
        ErrorKind::AddrInUse,
        format!("no loopback port free for both UDP and TCP in {PAIR_BIND_TRIES} tries"),
    ))
}

/// The longest [`serve_connections`] waits in `accept` before it looks
/// at `shutdown` again.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// The TCP accept loop of [`UdpNameServer`]'s RFC 7766 listener, the
/// verdict service's TCP side and the receiving MTA. It blocks in
/// `accept` for at most `ACCEPT_POLL` at a time (the listener's
/// `SO_RCVTIMEO`, which Linux applies to `accept`) until `shutdown` is
/// set, so a connection is served the moment it arrives. Each
/// connection runs on a thread named `name` that runs a clone of
/// `handler`, on a blocking stream with no read timeout of its own; a
/// connection whose thread cannot be spawned is dropped, which closes
/// it. Finished threads are joined after every accept and every idle
/// wait, so an exited thread's stack is released at once, not when the
/// server stops. On shutdown the live ones are joined, so a handler must
/// end by itself: on a read timeout that checks the flag, or when its
/// peer hangs up.
pub fn serve_connections<F>(listener: TcpListener, shutdown: &AtomicBool, name: &str, handler: F)
where
    F: FnOnce(TcpStream, SocketAddr) + Clone + Send + 'static,
{
    accept_loop(listener, shutdown, name, handler);
}

/// [`serve_connections`], returning its bookkeeping for a test to read.
fn accept_loop<F>(
    listener: TcpListener,
    shutdown: &AtomicBool,
    name: &str,
    handler: F,
) -> Connections
where
    F: FnOnce(TcpStream, SocketAddr) + Clone + Send + 'static,
{
    let mut connections = Connections::default();
    // An accept that blocked for good would never look at the flag.
    let bounded = listener
        .set_nonblocking(false)
        .and_then(|()| set_recv_timeout(&listener, ACCEPT_POLL));
    if bounded.is_err() {
        return connections;
    }
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, peer)) => {
                // The stream inherits the listener's time-out; a handler
                // starts from a plain blocking stream and sets its own.
                if stream.set_read_timeout(None).is_err() {
                    continue;
                }
                let handler = handler.clone();
                let thread = std::thread::Builder::new().name(name.into());
                // A failed spawn drops the closure, and the stream with it.
                let spawned = thread.spawn(move || handler(stream, peer));
                connections.live.extend(spawned.ok());
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => break,
        }
        connections.reap();
    }
    for handle in connections.live.drain(..) {
        let _ = handle.join();
    }
    connections
}

/// The connection threads of one [`accept_loop`].
#[derive(Default)]
struct Connections {
    live: Vec<JoinHandle<()>>,
    /// The most threads `live` held after a reap.
    peak: usize,
}

impl Connections {
    /// Join the threads that have finished.
    fn reap(&mut self) {
        for handle in self.live.extract_if(.., |handle| handle.is_finished()) {
            let _ = handle.join();
        }
        self.peak = self.peak.max(self.live.len());
    }
}

fn serve_tcp_connection(
    mut stream: TcpStream,
    store: &ZoneStore,
    answered: &AtomicU64,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut query = Vec::new();
    let mut reply = Vec::new();
    loop {
        let mut len_buf = [0u8; 2];
        if stream.read_exact(&mut len_buf).is_err() {
            return Ok(()); // connection closed or idle
        }
        query.resize(u16::from_be_bytes(len_buf) as usize, 0);
        stream.read_exact(&mut query)?;
        // The message goes behind its 2-byte length, filled in below.
        reply.clear();
        reply.extend_from_slice(&[0, 0]);
        if answer(store, &query, &mut reply).is_none() {
            return Ok(());
        }
        let len: u16 = (reply.len() - 2)
            .try_into()
            .map_err(|_| std::io::Error::other("response exceeds TCP message size"))?;
        reply[..2].copy_from_slice(&len.to_be_bytes());
        // Count before the reply leaves: otherwise a client that has
        // already received the response can observe a stale counter.
        answered.fetch_add(1, Ordering::Relaxed);
        stream.write_all(&reply)?;
        stream.flush()?;
    }
}

/// Answer one query from `store`, over UDP or TCP alike: append the
/// encoded response to `reply` and return the position in `reply` just
/// past its question section, or return `None` with `reply` untouched to
/// stay silent — on a malformed query (dropped like a hardened server
/// would), a timeout fault (silence is the timeout), or an unencodable
/// response. The query's questions move into the response.
fn answer(store: &ZoneStore, query: &[u8], reply: &mut Vec<u8>) -> Option<usize> {
    let query = match wire::decode(query) {
        Ok(m) if !m.header.is_response && !m.questions.is_empty() => m,
        _ => return None,
    };
    let (rcode, answers) = match store.lookup_question(&query.questions[0]) {
        LookupOutcome::Records(set) => (Rcode::NoError, set),
        LookupOutcome::NoRecords => (Rcode::NoError, RrSet::EMPTY),
        LookupOutcome::NxDomain => (Rcode::NxDomain, RrSet::EMPTY),
        LookupOutcome::Fault(ZoneFault::Timeout) => return None,
        LookupOutcome::Fault(ZoneFault::ServFail) => (Rcode::ServFail, RrSet::EMPTY),
        LookupOutcome::Fault(ZoneFault::Refused) => (Rcode::Refused, RrSet::EMPTY),
    };
    // The reply is written from the zone's own set.
    let response = Message {
        header: Header::response_to(&query.header, rcode),
        questions: query.questions,
        answers,
        authorities: RrSet::EMPTY,
        additionals: RrSet::EMPTY,
    };
    wire::write_message(&response, true, reply).ok()
}

/// Datagrams handled per `recvmmsg`/`sendmmsg` batch in [`serve_datagrams`],
/// and the window a [`crate::fleet::WireResolver`] call sends at once.
pub(crate) const SERVE_BATCH: usize = 64;

/// The receive buffer [`serve_datagrams`] asks for. The default
/// (`net.core.rmem_default`, 208 KiB) holds about 256 small datagrams;
/// a sender that was held up and then sends its backlog in one go — an
/// open-loop client after a scheduling stall — overruns that, and the
/// kernel drops the rest before `recvmmsg` sees it. 1 MiB holds a burst
/// of a thousand. The wire client's pooled sockets ask for the same.
pub(crate) const SERVE_RECV_BUFFER: usize = 1 << 20;

/// What [`serve_datagrams`] calls with the datagrams it receives.
pub trait DatagramHandler {
    /// One `recvmmsg` returned a batch of datagrams; called before
    /// their [`handle`](Self::handle) calls.
    fn batch(&mut self) {}

    /// Answer one datagram: write the reply into `reply` (empty on
    /// entry), or leave it empty to stay silent. The batch's replies
    /// leave together once every datagram of the batch was handled, so
    /// anything that must be visible before a reply is — a counter a
    /// client may read after its answer — is updated here.
    fn handle(&mut self, datagram: &[u8], peer: SocketAddrV4, reply: &mut Vec<u8>);
}

/// The batched datagram server loop, shared by [`UdpNameServer`] and
/// the verdict service's UDP listener: one `recvmmsg` blocks (bounded by
/// the socket's read timeout, which is the `shutdown` poll) for the
/// first datagram of a batch and drains whatever else is queued,
/// `handler` answers each, and one `sendmmsg` pushes all the replies
/// back — under a pool of clients querying at once, 2×N system calls
/// per batch become 2. Receive buffers hold `slot_bytes`; a longer
/// datagram arrives cut to that. Returns when `shutdown` is set or the
/// socket fails.
///
/// Two things keep a burst from being lost. The socket's receive buffer
/// is sized to `SERVE_RECV_BUFFER` on entry, so the burst is queued
/// rather than dropped. And after a *full* batch — more is waiting — the
/// loop yields once before the next receive: answering a long backlog
/// back to back on a core shared with the client would only move the
/// overrun to the client's socket. A batch that is not full never
/// yields, so a closed loop with a window below the batch size pays
/// nothing.
pub fn serve_datagrams<H: DatagramHandler>(
    socket: &UdpSocket,
    slot_bytes: usize,
    shutdown: &AtomicBool,
    handler: &mut H,
) {
    // Best effort: the kernel clamps the request to `rmem_max`, and a
    // socket that keeps its default buffer still serves.
    let _ = set_recv_buffer_size(socket, SERVE_RECV_BUFFER);
    serve_datagrams_from(
        |slots| recv_from_batch(socket, slots, false),
        socket,
        slot_bytes,
        shutdown,
        handler,
    );
}

/// [`serve_datagrams`] with the receive step as a parameter, so a test
/// can make it fail.
fn serve_datagrams_from<H: DatagramHandler>(
    mut recv: impl FnMut(&mut [RecvSlot]) -> std::io::Result<usize>,
    socket: &UdpSocket,
    slot_bytes: usize,
    shutdown: &AtomicBool,
    handler: &mut H,
) {
    let mut slots: Vec<RecvSlot> = (0..SERVE_BATCH)
        .map(|_| RecvSlot::new(slot_bytes))
        .collect();
    let mut replies: Vec<Vec<u8>> = vec![Vec::new(); SERVE_BATCH];
    while !shutdown.load(Ordering::Relaxed) {
        let received = match recv(&mut slots) {
            Ok(n) => n,
            // The read timeout, or a signal: a receive on a socket with
            // `SO_RCVTIMEO` returns `EINTR` under any handled signal,
            // whatever `SA_RESTART` says.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => break,
        };
        handler.batch();
        for (slot, reply) in slots[..received].iter().zip(&mut replies) {
            reply.clear();
            if let Some(peer) = slot.peer {
                handler.handle(slot.payload(), peer, reply);
            }
        }
        let pkts: Vec<SendPacket<'_>> = slots[..received]
            .iter()
            .zip(&replies)
            .filter_map(|(slot, reply)| match slot.peer {
                Some(to) if !reply.is_empty() => Some(SendPacket { data: reply, to }),
                _ => None,
            })
            .collect();
        send_all(socket, &pkts);
        if received == SERVE_BATCH {
            std::thread::yield_now();
        }
    }
}

/// Send every packet: `sendmmsg` for as many as it takes, the tail
/// retried after a short send. It reports an error only when the first
/// packet it was given failed; that one gets a `send_to` of its own and
/// the batch carries on behind it, so one bad reply cannot take the
/// rest of its batch with it.
pub(crate) fn send_all(socket: &UdpSocket, pkts: &[SendPacket<'_>]) {
    let mut off = 0;
    while off < pkts.len() {
        match send_to_batch(socket, &pkts[off..], false) {
            Ok(sent) if sent > 0 => off += sent,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            _ => {
                let _ = socket.send_to(pkts[off].data, pkts[off].to);
                off += 1;
            }
        }
    }
}

/// The name server's side of [`serve_datagrams`]: [`answer`] into the
/// reply slot, then the UDP payload limit.
struct NameServerHandler {
    store: Arc<ZoneStore>,
    config: ServerConfig,
    answered: Arc<AtomicU64>,
}

impl DatagramHandler for NameServerHandler {
    /// Write the reply to one received datagram into the loop's reply
    /// slot. A reply over `max_payload` is cut in place to its header and
    /// question, with TC set.
    fn handle(&mut self, datagram: &[u8], _peer: SocketAddrV4, reply: &mut Vec<u8>) {
        let Some(questions_end) = answer(&self.store, datagram, reply) else {
            return;
        };
        if reply.len() > self.config.max_payload {
            wire::truncate_reply(reply, 0, questions_end);
        }
        // Count before the reply leaves: otherwise a client that has
        // already received a response can observe a stale counter.
        self.answered.fetch_add(1, Ordering::Relaxed);
    }
}

/// One length-prefixed RFC 7766 query over TCP — the truncation fallback
/// path of [`crate::fleet::WireResolver`].
pub(crate) fn tcp_query(
    server: SocketAddr,
    timeout: Duration,
    id: u16,
    question: &Question,
) -> Result<RrSet, DnsError> {
    let to_net = |e: std::io::Error| DnsError::Network(format!("tcp: {e}"));
    let mut stream = TcpStream::connect(server).map_err(to_net)?;
    stream
        .set_read_timeout(Some(timeout.max(Duration::from_millis(250))))
        .map_err(to_net)?;
    // The query goes behind its 2-byte length, filled in below.
    let mut framed = vec![0, 0];
    wire::encode_query_into(id, question, &mut framed)
        .map_err(|e| DnsError::Network(e.to_string()))?;
    let len: u16 = (framed.len() - 2)
        .try_into()
        .map_err(|_| DnsError::Network("query exceeds TCP message size".into()))?;
    framed[..2].copy_from_slice(&len.to_be_bytes());
    stream.write_all(&framed).map_err(to_net)?;
    stream.flush().map_err(to_net)?;
    let mut len_buf = [0u8; 2];
    stream.read_exact(&mut len_buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::WouldBlock || e.kind() == std::io::ErrorKind::TimedOut {
            DnsError::Timeout
        } else {
            to_net(e)
        }
    })?;
    let resp_len = u16::from_be_bytes(len_buf) as usize;
    let mut buf = vec![0u8; resp_len];
    stream.read_exact(&mut buf).map_err(to_net)?;
    let resp =
        wire::decode_reply(&buf, &question.name).map_err(|e| DnsError::Network(e.to_string()))?;
    if resp.header.id != id || !resp.header.is_response {
        return Err(DnsError::Network("mismatched TCP response".into()));
    }
    answers_of(resp)
}

/// A response's outcome as the [`crate::Resolver`] surface reports it:
/// its answers on NOERROR, the matching [`DnsError`] otherwise.
pub(crate) fn answers_of(resp: Message) -> Result<RrSet, DnsError> {
    match resp.header.rcode {
        Rcode::NoError => Ok(resp.answers),
        Rcode::NxDomain => Err(DnsError::NxDomain),
        Rcode::ServFail => Err(DnsError::ServFail),
        Rcode::Refused => Err(DnsError::Refused),
        other => Err(DnsError::Network(format!("unexpected rcode {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{WireClientConfig, WireResolver};
    use crate::record::{RecordData, RecordType};
    use crate::resolver::Resolver;
    use spf_testkit::dom;
    use std::net::Ipv4Addr;
    use std::time::Instant;

    fn server_with(store: &Arc<ZoneStore>) -> UdpNameServer {
        UdpNameServer::spawn(Arc::clone(store), ServerConfig::default()).unwrap()
    }

    fn client_of(server: &UdpNameServer) -> WireResolver {
        WireResolver::new(vec![server.addr()], WireClientConfig::default())
    }

    struct Echo;
    impl DatagramHandler for Echo {
        fn handle(&mut self, datagram: &[u8], _peer: SocketAddrV4, reply: &mut Vec<u8>) {
            reply.extend_from_slice(datagram);
        }
    }

    /// A hundred short connections, one after another, are each served,
    /// and the loop holds at most two connection threads at any time
    /// (the one it just accepted, and one that has answered but not yet
    /// exited) rather than one per connection ever served. Shutdown then
    /// joins a connection that is still open, within one poll plus the
    /// handler's read timeout (and an allowance for a loaded host).
    #[test]
    fn finished_connections_are_reaped_and_shutdown_joins_the_live_ones() {
        const CONNECTIONS: usize = 100;
        const READ_TIMEOUT: Duration = Duration::from_millis(100);
        const SCHEDULING: Duration = Duration::from_millis(150);
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let handled = Arc::new(AtomicU64::new(0));
        // Echo each byte until the peer hangs up, or until a read times
        // out after shutdown was set.
        let handler = {
            let (shutdown, handled) = (Arc::clone(&shutdown), Arc::clone(&handled));
            move |mut stream: TcpStream, _peer: SocketAddr| {
                stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
                let mut byte = [0u8; 1];
                loop {
                    match stream.read(&mut byte) {
                        Ok(0) => return,
                        Ok(_) => {
                            handled.fetch_add(1, Ordering::Relaxed);
                            if stream.write_all(&byte).is_err() {
                                return;
                            }
                        }
                        Err(_) if shutdown.load(Ordering::Relaxed) => return,
                        Err(_) => {}
                    }
                }
            }
        };
        let server = std::thread::spawn({
            let shutdown = Arc::clone(&shutdown);
            move || accept_loop(listener, &shutdown, "test-conn", handler)
        });
        let echo = |stream: &mut TcpStream, byte: u8| {
            stream.write_all(&[byte]).unwrap();
            let mut back = [0u8; 1];
            stream.read_exact(&mut back).unwrap();
            assert_eq!(back[0], byte);
        };
        for i in 0..CONNECTIONS {
            let mut stream = TcpStream::connect(addr).unwrap();
            echo(&mut stream, i as u8);
            // Hang up and wait for the handler's end of the stream to
            // close: its closure has returned.
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0);
        }
        assert_eq!(handled.load(Ordering::Relaxed), CONNECTIONS as u64);

        let mut open = TcpStream::connect(addr).unwrap();
        echo(&mut open, 0xff);
        let asked = Instant::now();
        shutdown.store(true, Ordering::Relaxed);
        let connections = server.join().unwrap();
        let took = asked.elapsed();
        assert!(
            took <= ACCEPT_POLL + READ_TIMEOUT + SCHEDULING,
            "shutdown took {took:?}"
        );
        assert!(connections.live.is_empty());
        assert!(
            connections.peak <= 2,
            "{} connection threads held at once",
            connections.peak
        );
        assert_eq!(handled.load(Ordering::Relaxed), CONNECTIONS as u64 + 1);
    }

    /// A connection is served as soon as it arrives, not at the loop's
    /// next look at the flag: sequential connect-and-echo exchanges take
    /// well under half an `ACCEPT_POLL` each. The handler's stream has no
    /// read timeout: the listener's does not leak into it.
    #[test]
    fn a_new_connection_is_served_without_waiting_for_a_poll() {
        const EXCHANGES: u32 = 40;
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let handler = |mut stream: TcpStream, _peer: SocketAddr| {
            assert_eq!(stream.read_timeout().unwrap(), None);
            let mut byte = [0u8; 1];
            if stream.read_exact(&mut byte).is_ok() {
                let _ = stream.write_all(&byte);
            }
        };
        let server = std::thread::spawn({
            let shutdown = Arc::clone(&shutdown);
            move || serve_connections(listener, &shutdown, "test-echo", handler)
        });
        let started = Instant::now();
        for i in 0..EXCHANGES {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&[i as u8]).unwrap();
            let mut back = [0u8; 1];
            stream.read_exact(&mut back).unwrap();
            assert_eq!(back[0], i as u8);
        }
        let took = started.elapsed();
        shutdown.store(true, Ordering::Relaxed);
        server.join().unwrap();
        assert!(
            took < ACCEPT_POLL * EXCHANGES / 2,
            "{EXCHANGES} exchanges took {took:?}"
        );
    }

    /// The UDP side of a port can be free while its TCP side is held by
    /// someone else; the pair must come up anyway, on another port.
    #[test]
    fn a_taken_tcp_port_moves_the_pair_to_a_fresh_one() {
        let held = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let taken = held.local_addr().unwrap();
        let mut calls = 0;
        let (udp, tcp) = bind_pair_with(|| {
            calls += 1;
            let port = if calls == 1 { taken.port() } else { 0 };
            UdpSocket::bind(("127.0.0.1", port))
        })
        .unwrap();
        let addr = udp.local_addr().unwrap();
        assert_eq!(tcp.local_addr().unwrap(), addr);
        assert_ne!(addr.port(), taken.port());
        assert_eq!(calls, 2);
    }

    #[test]
    fn an_interrupted_receive_does_not_end_the_loop() {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let server = socket.local_addr().unwrap();
        let client = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client.send_to(b"ping", server).unwrap();
        // Two receives fail the way a handled signal makes them, the
        // third delivers the datagram, the fourth fails for good. The
        // flag is never set: the loop returning at all is the fatal
        // error's doing, and the echo is proof it survived the signals.
        let mut calls = 0;
        let recv = |slots: &mut [RecvSlot]| {
            calls += 1;
            match calls {
                1 | 2 => Err(ErrorKind::Interrupted.into()),
                3 => {
                    let (len, peer) = socket.recv_from(&mut slots[0].data)?;
                    slots[0].len = len;
                    slots[0].peer = match peer {
                        SocketAddr::V4(v4) => Some(v4),
                        SocketAddr::V6(_) => None,
                    };
                    Ok(1)
                }
                _ => Err(ErrorKind::PermissionDenied.into()),
            }
        };
        serve_datagrams_from(recv, &socket, 64, &AtomicBool::new(false), &mut Echo);
        let mut buf = [0u8; 16];
        let (len, from) = client.recv_from(&mut buf).unwrap();
        assert_eq!((&buf[..len], from), (&b"ping"[..], server));
        assert_eq!(calls, 4);
    }

    /// A burst larger than the default receive buffer, queued before the
    /// loop is running — what an open-loop client sends after it was
    /// descheduled — is answered in full: the buffer holds it, and the
    /// yield after each full batch lets the client read as the replies
    /// come. The client's own buffer is sized like the server's, so a
    /// client descheduled while the replies arrive does not drop them.
    #[test]
    fn a_burst_past_the_default_receive_buffer_is_answered_in_full() {
        const BURST: usize = 600;
        let rmem_max: usize = std::fs::read_to_string("/proc/sys/net/core/rmem_max")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0);
        if rmem_max < SERVE_RECV_BUFFER {
            // The kernel clamps the request: this host cannot hold the
            // burst whatever the loop asks for.
            return;
        }
        let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_millis(25)))
            .unwrap();
        // The loop sizes the buffer on entry; the burst is queued before
        // that, so size it here the same way.
        set_recv_buffer_size(&socket, SERVE_RECV_BUFFER).unwrap();
        let server = socket.local_addr().unwrap();
        let client = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        set_recv_buffer_size(&client, SERVE_RECV_BUFFER).unwrap();
        for i in 0..BURST {
            client.send_to(&(i as u32).to_be_bytes(), server).unwrap();
        }
        let shutdown = AtomicBool::new(false);
        let mut seen = vec![false; BURST];
        std::thread::scope(|scope| {
            scope.spawn(|| serve_datagrams(&socket, 64, &shutdown, &mut Echo));
            let mut buf = [0u8; 16];
            while let Ok((len, _)) = client.recv_from(&mut buf) {
                let i = u32::from_be_bytes(buf[..len].try_into().unwrap()) as usize;
                seen[i] = true;
                if seen.iter().all(|&s| s) {
                    break;
                }
            }
            shutdown.store(true, Ordering::Relaxed);
        });
        let answered = seen.iter().filter(|&&s| s).count();
        assert_eq!(answered, BURST, "replies lost from a queued burst");
    }

    #[test]
    fn resolves_txt_over_udp() {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("example.com"), "v=spf1 ip4:192.0.2.0/24 -all");
        let server = server_with(&store);
        let resolver = client_of(&server);
        let answers = resolver
            .query(&dom("example.com"), RecordType::Txt)
            .unwrap();
        assert_eq!(answers.len(), 1);
        match &answers[0].data {
            RecordData::Txt(t) => assert_eq!(t.joined(), "v=spf1 ip4:192.0.2.0/24 -all"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(server.answered() >= 1);
    }

    #[test]
    fn nxdomain_over_udp() {
        let store = Arc::new(ZoneStore::new());
        let server = server_with(&store);
        let resolver = client_of(&server);
        assert_eq!(
            resolver.query(&dom("missing.example"), RecordType::A),
            Err(DnsError::NxDomain)
        );
    }

    #[test]
    fn empty_answer_over_udp() {
        let store = Arc::new(ZoneStore::new());
        store.add_a(&dom("example.com"), Ipv4Addr::new(192, 0, 2, 1));
        let server = server_with(&store);
        let resolver = client_of(&server);
        assert_eq!(
            resolver.query(&dom("example.com"), RecordType::Txt),
            Ok(RrSet::EMPTY)
        );
    }

    #[test]
    fn timeout_fault_times_out() {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("slow.example"), "v=spf1 -all");
        store.set_fault(&dom("slow.example"), ZoneFault::Timeout);
        let server = server_with(&store);
        let resolver = WireResolver::new(vec![server.addr()], WireClientConfig::crawl());
        assert_eq!(
            resolver.query(&dom("slow.example"), RecordType::Txt),
            Err(DnsError::Timeout)
        );
    }

    #[test]
    fn servfail_over_udp() {
        let store = Arc::new(ZoneStore::new());
        store.set_fault(&dom("bad.example"), ZoneFault::ServFail);
        // set_fault alone is enough; lookup checks faults before existence.
        store.add_txt(&dom("bad.example"), "v=spf1 -all");
        let server = server_with(&store);
        let resolver = client_of(&server);
        assert_eq!(
            resolver.query(&dom("bad.example"), RecordType::Txt),
            Err(DnsError::ServFail)
        );
    }

    #[test]
    fn truncated_udp_response_falls_back_to_tcp() {
        let store = Arc::new(ZoneStore::new());
        let name = dom("huge.example");
        // Enough TXT data to exceed a 512-byte payload.
        let long = "v=spf1 ".to_string() + &"ip4:198.51.100.0/24 ".repeat(40) + "-all";
        store.add_txt(&name, &long);
        let server =
            UdpNameServer::spawn(Arc::clone(&store), ServerConfig { max_payload: 512 }).unwrap();
        let resolver = client_of(&server);
        // The UDP answer is truncated; RFC 7766 fallback fetches it whole.
        let answers = resolver.query(&name, RecordType::Txt).unwrap();
        match &answers[0].data {
            crate::record::RecordData::Txt(t) => assert_eq!(t.joined(), long),
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            server.tcp_answered() >= 1,
            "TCP path must have served the retry"
        );
    }

    #[test]
    fn tcp_fallback_preserves_rcode_semantics() {
        // NXDOMAIN over TCP after truncation is impossible (empty answers
        // never truncate), so probe the TCP path directly with a normal
        // record and confirm multiple sequential fallbacks work.
        let store = Arc::new(ZoneStore::new());
        for i in 0..5 {
            let long = "v=spf1 ".to_string() + &"ip4:203.0.113.0/24 ".repeat(40) + "-all";
            store.add_txt(&dom(&format!("big{i}.example")), &long);
        }
        let server =
            UdpNameServer::spawn(Arc::clone(&store), ServerConfig { max_payload: 512 }).unwrap();
        let resolver = client_of(&server);
        for i in 0..5 {
            let answers = resolver
                .query(&dom(&format!("big{i}.example")), RecordType::Txt)
                .unwrap();
            assert_eq!(answers.len(), 1);
        }
        assert_eq!(server.tcp_answered(), 5);
    }

    #[test]
    fn many_sequential_queries() {
        let store = Arc::new(ZoneStore::new());
        for i in 0..50 {
            store.add_txt(
                &dom(&format!("d{i}.example")),
                &format!("v=spf1 ip4:10.0.0.{i} -all"),
            );
        }
        let server = server_with(&store);
        let resolver = client_of(&server);
        for i in 0..50 {
            let rrs = resolver
                .query(&dom(&format!("d{i}.example")), RecordType::Txt)
                .unwrap();
            assert_eq!(rrs.len(), 1);
        }
        assert_eq!(server.answered(), 50);
    }

    #[test]
    fn deprecated_spf_rr_type_over_udp() {
        let store = Arc::new(ZoneStore::new());
        store.add_spf_type99(&dom("legacy.example"), "v=spf1 mx -all");
        let server = server_with(&store);
        let resolver = client_of(&server);
        let rrs = resolver
            .query(&dom("legacy.example"), RecordType::Spf)
            .unwrap();
        match &rrs[0].data {
            RecordData::Spf(t) => assert_eq!(t.joined(), "v=spf1 mx -all"),
            other => panic!("unexpected {other:?}"),
        }
    }
}

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
//! The UDP half runs on [`serve_datagrams`], the one `recvmmsg` /
//! `sendmmsg` loop in the workspace; the verdict service's UDP listener
//! runs on it too, with its own [`DatagramHandler`].

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, SocketAddrV4, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use nix::sys::socket::{
    recv_from_batch, send_to_batch, set_recv_buffer_size, RecvSlot, SendPacket,
};
use spf_types::DomainName;

use crate::record::{Question, RecordType, ResourceRecord};
use crate::resolver::DnsError;
use crate::wire::{self, Message, Rcode};
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
    handle: Option<JoinHandle<()>>,
    tcp_handle: Option<JoinHandle<()>>,
    answered: Arc<AtomicU64>,
    tcp_answered: Arc<AtomicU64>,
}

impl UdpNameServer {
    /// Bind to 127.0.0.1 on an ephemeral port and start serving.
    pub fn spawn(store: Arc<ZoneStore>, config: ServerConfig) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
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
        // RFC 7766 companion listener on the same port. TCP responses are
        // never truncated.
        let tcp_listener = TcpListener::bind(addr)?;
        tcp_listener.set_nonblocking(true)?;
        let tcp_shutdown = Arc::clone(&shutdown);
        let tcp_answered = Arc::new(AtomicU64::new(0));
        let tcp_counter = Arc::clone(&tcp_answered);
        let tcp_handle = std::thread::Builder::new()
            .name("tcp-nameserver".into())
            .spawn(move || {
                serve_tcp_loop(tcp_listener, store, tcp_shutdown, tcp_counter);
            })?;
        Ok(UdpNameServer {
            addr,
            shutdown,
            handle: Some(handle),
            tcp_handle: Some(tcp_handle),
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
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.tcp_handle.take() {
            let _ = h.join();
        }
    }
}

fn serve_tcp_loop(
    listener: TcpListener,
    store: Arc<ZoneStore>,
    shutdown: Arc<AtomicBool>,
    answered: Arc<AtomicU64>,
) {
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = serve_tcp_connection(stream, &store, &answered);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

fn serve_tcp_connection(
    mut stream: TcpStream,
    store: &Arc<ZoneStore>,
    answered: &Arc<AtomicU64>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    loop {
        let mut len_buf = [0u8; 2];
        if stream.read_exact(&mut len_buf).is_err() {
            return Ok(()); // connection closed or idle
        }
        let len = u16::from_be_bytes(len_buf) as usize;
        let mut buf = vec![0u8; len];
        stream.read_exact(&mut buf)?;
        let query = match wire::decode(&buf) {
            Ok(m) if !m.header.is_response && !m.questions.is_empty() => m,
            _ => return Ok(()),
        };
        let question = &query.questions[0];
        let (rcode, answers) = match store.lookup_question(question) {
            LookupOutcome::Records(rrs) => (Rcode::NoError, rrs),
            LookupOutcome::NoRecords => (Rcode::NoError, Vec::new()),
            LookupOutcome::NxDomain => (Rcode::NxDomain, Vec::new()),
            LookupOutcome::Fault(ZoneFault::Timeout) => return Ok(()), // silence
            LookupOutcome::Fault(ZoneFault::ServFail) => (Rcode::ServFail, Vec::new()),
            LookupOutcome::Fault(ZoneFault::Refused) => (Rcode::Refused, Vec::new()),
        };
        let response = Message::response(&query, rcode, answers);
        let encoded = match wire::encode(&response) {
            Ok(b) => b,
            Err(_) => return Ok(()),
        };
        let len: u16 = encoded
            .len()
            .try_into()
            .map_err(|_| std::io::Error::other("response exceeds TCP message size"))?;
        // Count before the reply leaves: otherwise a client that has
        // already received the response can observe a stale counter.
        answered.fetch_add(1, Ordering::Relaxed);
        stream.write_all(&len.to_be_bytes())?;
        stream.write_all(&encoded)?;
        stream.flush()?;
    }
}

/// Datagrams handled per `recvmmsg`/`sendmmsg` batch in [`serve_datagrams`].
const SERVE_BATCH: usize = 64;

/// The receive buffer [`serve_datagrams`] asks for. The default
/// (`net.core.rmem_default`, 208 KiB) holds about 256 small datagrams;
/// a sender that was held up and then sends its backlog in one go — an
/// open-loop client after a scheduling stall — overruns that, and the
/// kernel drops the rest before `recvmmsg` sees it. 1 MiB holds a burst
/// of a thousand.
const SERVE_RECV_BUFFER: usize = 1 << 20;

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
fn send_all(socket: &UdpSocket, pkts: &[SendPacket<'_>]) {
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

/// The name server's side of [`serve_datagrams`].
struct NameServerHandler {
    store: Arc<ZoneStore>,
    config: ServerConfig,
    answered: Arc<AtomicU64>,
}

impl DatagramHandler for NameServerHandler {
    /// Build the reply for one received datagram; the server stays
    /// silent on a malformed query (dropped like a hardened server
    /// would), a timeout fault, or an unencodable response.
    fn handle(&mut self, datagram: &[u8], _peer: SocketAddrV4, reply: &mut Vec<u8>) {
        let query = match wire::decode(datagram) {
            Ok(m) if !m.header.is_response && !m.questions.is_empty() => m,
            _ => return,
        };
        let question = &query.questions[0];
        let (rcode, answers) = match self.store.lookup_question(question) {
            LookupOutcome::Records(rrs) => (Rcode::NoError, rrs),
            LookupOutcome::NoRecords => (Rcode::NoError, Vec::new()),
            LookupOutcome::NxDomain => (Rcode::NxDomain, Vec::new()),
            LookupOutcome::Fault(ZoneFault::Timeout) => return, // silence = timeout
            LookupOutcome::Fault(ZoneFault::ServFail) => (Rcode::ServFail, Vec::new()),
            LookupOutcome::Fault(ZoneFault::Refused) => (Rcode::Refused, Vec::new()),
        };
        let mut response = Message::response(&query, rcode, answers);
        let Ok(mut encoded) = wire::encode(&response) else {
            return;
        };
        if encoded.len() > self.config.max_payload {
            response.header.truncated = true;
            response.answers.clear();
            match wire::encode(&response) {
                Ok(truncated) => encoded = truncated,
                Err(_) => return,
            }
        }
        // Count before the reply leaves: otherwise a client that has
        // already received a response can observe a stale counter.
        self.answered.fetch_add(1, Ordering::Relaxed);
        *reply = encoded;
    }
}

/// One length-prefixed RFC 7766 query over TCP — the truncation fallback
/// path of [`crate::fleet::WireResolver`].
pub(crate) fn tcp_query(
    server: SocketAddr,
    timeout: Duration,
    id: u16,
    name: &DomainName,
    rtype: RecordType,
) -> Result<Vec<ResourceRecord>, DnsError> {
    let to_net = |e: std::io::Error| DnsError::Network(format!("tcp: {e}"));
    let mut stream = TcpStream::connect(server).map_err(to_net)?;
    stream
        .set_read_timeout(Some(timeout.max(Duration::from_millis(250))))
        .map_err(to_net)?;
    let msg = Message::query(id, Question::new(name.clone(), rtype));
    let bytes = wire::encode(&msg).map_err(|e| DnsError::Network(e.to_string()))?;
    let len: u16 = bytes
        .len()
        .try_into()
        .map_err(|_| DnsError::Network("query exceeds TCP message size".into()))?;
    stream.write_all(&len.to_be_bytes()).map_err(to_net)?;
    stream.write_all(&bytes).map_err(to_net)?;
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
    let resp = wire::decode(&buf).map_err(|e| DnsError::Network(e.to_string()))?;
    if resp.header.id != id || !resp.header.is_response {
        return Err(DnsError::Network("mismatched TCP response".into()));
    }
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
    use crate::record::RecordData;
    use crate::resolver::Resolver;
    use std::net::Ipv4Addr;

    fn dom(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

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
    /// come so its own buffer does not overrun either.
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
            Ok(vec![])
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

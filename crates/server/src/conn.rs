//! Unix/TCP connection plumbing shared by the server and the client.
//!
//! [`Endpoint`] names a listening address (`unix:/path/to.sock` or
//! `tcp:host:port`). [`Conn`] wraps one accepted or dialed stream behind a
//! uniform `Read + Write` surface. [`FrameReader`] is the server-side frame
//! decoder: unlike the blocking [`mapreduce_lite::protocol::read_frame`] it
//! reads through short poll timeouts into an internal buffer, preserving
//! partial frames across polls, so the handler can
//!
//! * notice the drain flag between frames (graceful SIGTERM),
//! * kill a peer that stalls **mid-frame** past the idle timeout (a live
//!   client never stalls inside a frame: every message is written with a
//!   single `write_all`), and
//! * classify every failure with the transport's own
//!   [`ProtocolError`] taxonomy — `Torn` for mid-frame death, `Malformed`
//!   for garbage, `ChecksumMismatch` for corruption — so one bad
//!   connection dies alone without taking the server down.

use crate::proto::ServeMessage;
use mapreduce_lite::codec::checksum;
use mapreduce_lite::protocol::{ProtocolError, HEADER_LEN, MAX_FRAME_LEN, PROTO_MAGIC};
use std::io::Read as _;
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A serving address: `unix:/path.sock` or `tcp:host:port`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP host:port.
    Tcp(String),
}

impl Endpoint {
    /// Parse `unix:PATH` or `tcp:HOST:PORT`.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix endpoint has an empty path".into());
            }
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            if !addr.contains(':') {
                return Err(format!("tcp endpoint {addr:?} must be host:port"));
            }
            Ok(Endpoint::Tcp(addr.to_string()))
        } else {
            Err(format!("endpoint {s:?} must start with unix: or tcp:"))
        }
    }

    /// Dial the endpoint.
    pub fn connect(&self) -> std::io::Result<Conn> {
        match self {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Conn::Tcp),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// A bound listener for either endpoint flavor.
pub enum Listener {
    /// Listening Unix socket (the path is removed on drop).
    Unix(UnixListener, PathBuf),
    /// Listening TCP socket.
    Tcp(TcpListener),
}

impl Listener {
    /// Bind the endpoint, replacing a stale Unix socket file left by a
    /// crashed predecessor.
    pub fn bind(endpoint: &Endpoint) -> std::io::Result<Listener> {
        match endpoint {
            Endpoint::Unix(path) => {
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                Ok(Listener::Unix(UnixListener::bind(path)?, path.clone()))
            }
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr.as_str())?)),
        }
    }

    /// The endpoint actually bound (for TCP with port 0 this carries the
    /// assigned port, so tests can bind an ephemeral port and dial it).
    pub fn local_endpoint(&self) -> Endpoint {
        match self {
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
            Listener::Tcp(l) => {
                Endpoint::Tcp(l.local_addr().map_or_else(|_| "?:?".into(), |a| a.to_string()))
            }
        }
    }

    /// Switch the listener into non-blocking accept mode (the server's
    /// accept loop polls so it can observe the drain flag).
    pub fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Listener::Unix(l, _) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }

    /// Accept one connection (non-blocking when configured so;
    /// `WouldBlock` surfaces as `Err`).
    pub fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Conn::Unix(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Conn::Tcp(s))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One bidirectional stream to a peer.
#[derive(Debug)]
pub enum Conn {
    /// A Unix-domain stream.
    Unix(UnixStream),
    /// A TCP stream.
    Tcp(TcpStream),
}

impl Conn {
    /// Bound the blocking time of each `read` call (the frame reader's
    /// poll interval).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(t),
            Conn::Tcp(s) => s.set_read_timeout(t),
        }
    }

    /// Shut down both directions; the peer sees EOF.
    pub fn shutdown(&self) {
        match self {
            Conn::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl std::io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl std::io::Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// Why [`FrameReader::read_message`] gave up on a connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnError {
    /// A transport-level failure (torn frame, bad magic, checksum, I/O).
    Protocol(ProtocolError),
    /// The peer went silent mid-frame for longer than the idle timeout.
    Stalled {
        /// Bytes of the unfinished frame received before the stall.
        buffered: usize,
    },
}

impl std::fmt::Display for ConnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnError::Protocol(e) => write!(f, "{e}"),
            ConnError::Stalled { buffered } => {
                write!(f, "peer stalled mid-frame with {buffered} byte(s) buffered")
            }
        }
    }
}

/// The outcome of waiting for one message.
#[derive(Debug, PartialEq)]
pub enum ReadOutcome {
    /// A complete, verified message.
    Message(ServeMessage),
    /// The peer closed cleanly on a frame boundary.
    Closed,
    /// The drain flag was observed between frames; nothing was lost.
    Drained,
}

/// Incremental frame reader: polls the connection in short read-timeout
/// slices, accumulating bytes until a full checksummed frame is buffered.
pub struct FrameReader {
    conn: Conn,
    buf: Vec<u8>,
    /// Landing area of each socket read, reused for every message.
    chunk: Box<[u8]>,
    poll: Duration,
}

/// Size of [`FrameReader`]'s socket read buffer.
const READ_CHUNK_BYTES: usize = 64 * 1024;

impl FrameReader {
    /// Wrap `conn`, polling in `poll`-sized slices.
    pub fn new(conn: Conn, poll: Duration) -> std::io::Result<FrameReader> {
        conn.set_read_timeout(Some(poll))?;
        Ok(FrameReader {
            conn,
            buf: Vec::new(),
            chunk: vec![0u8; READ_CHUNK_BYTES].into_boxed_slice(),
            poll,
        })
    }

    /// The wrapped connection (for writing replies; the handler is the
    /// only writer, so replies never interleave).
    pub fn conn_mut(&mut self) -> &mut Conn {
        &mut self.conn
    }

    /// Shut the connection down.
    pub fn shutdown(&self) {
        self.conn.shutdown();
    }

    /// Try to carve one complete frame's payload off the front of `buf`.
    /// `Ok(None)` means "need more bytes".
    fn take_frame(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        if self.buf[..4] != PROTO_MAGIC {
            return Err(ProtocolError::Malformed);
        }
        let len = u64::from_le_bytes(self.buf[4..12].try_into().expect("fixed slice"));
        if len > MAX_FRAME_LEN {
            return Err(ProtocolError::TooLarge(len));
        }
        let expected = u64::from_le_bytes(self.buf[12..20].try_into().expect("fixed slice"));
        let total = HEADER_LEN + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = self.buf[HEADER_LEN..total].to_vec();
        self.buf.drain(..total);
        if checksum(&payload) != expected {
            return Err(ProtocolError::ChecksumMismatch);
        }
        Ok(Some(payload))
    }

    /// Wait for the next message. Returns [`ReadOutcome::Drained`] when
    /// `drain` flips while no frame is in progress, and kills the
    /// connection with [`ConnError::Stalled`] when a peer goes silent
    /// mid-frame for `idle_timeout`.
    pub fn read_message(
        &mut self,
        drain: &AtomicBool,
        idle_timeout: Duration,
    ) -> Result<ReadOutcome, ConnError> {
        let mut last_progress = Instant::now();
        loop {
            match self.take_frame() {
                Ok(Some(payload)) => {
                    return ServeMessage::from_payload(&payload)
                        .map(ReadOutcome::Message)
                        .map_err(ConnError::Protocol);
                }
                Ok(None) => {}
                Err(e) => return Err(ConnError::Protocol(e)),
            }
            // No early drain return here: bytes already in flight from the
            // peer deserve one read attempt, so a frame that raced the
            // drain flag is still served. The WouldBlock arm below declares
            // `Drained` once a poll tick passes with nothing buffered.
            match self.conn.read(&mut self.chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(ReadOutcome::Closed)
                    } else {
                        Err(ConnError::Protocol(ProtocolError::Torn))
                    };
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&self.chunk[..n]);
                    last_progress = Instant::now();
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // Poll tick with no data. Mid-frame silence is a stall;
                    // between frames the peer is just idle, which is fine —
                    // unless we are draining (handled above). During a
                    // drain, a mid-frame peer still gets `idle_timeout` to
                    // finish its write before the connection is dropped.
                    if !self.buf.is_empty() && last_progress.elapsed() >= idle_timeout {
                        return Err(ConnError::Stalled { buffered: self.buf.len() });
                    }
                    if drain.load(Ordering::Acquire)
                        && self.buf.is_empty()
                        && last_progress.elapsed() >= self.poll
                    {
                        return Ok(ReadOutcome::Drained);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ConnError::Protocol(ProtocolError::Io(e.to_string()))),
            }
        }
    }
}

/// A scratch Unix socket path unique to this process and call site (kept
/// short: `sun_path` is ~107 bytes).
#[cfg(test)]
pub(crate) fn scratch_endpoint(tag: &str) -> Endpoint {
    use std::sync::atomic::AtomicU64;
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    Endpoint::Unix(
        std::env::temp_dir().join(format!("ngssrv_{tag}_{}_{seq}.sock", std::process::id())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn pair(tag: &str) -> (Conn, FrameReader) {
        let ep = scratch_endpoint(tag);
        let listener = Listener::bind(&ep).expect("bind");
        let client = ep.connect().expect("connect");
        let server = listener.accept().expect("accept");
        let reader = FrameReader::new(server, Duration::from_millis(5)).expect("reader");
        (client, reader)
    }

    #[test]
    fn endpoints_parse_and_display() {
        assert_eq!(Endpoint::parse("unix:/tmp/x.sock"), Ok(Endpoint::Unix("/tmp/x.sock".into())));
        assert_eq!(Endpoint::parse("tcp:127.0.0.1:80"), Ok(Endpoint::Tcp("127.0.0.1:80".into())));
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("tcp:noport").is_err());
        assert!(Endpoint::parse("/tmp/x.sock").is_err());
        assert_eq!(Endpoint::parse("unix:/a.sock").unwrap().to_string(), "unix:/a.sock");
    }

    #[test]
    fn one_byte_at_a_time_writes_reassemble() {
        let (mut client, mut reader) = pair("bytewise");
        let msg = ServeMessage::Ping { request_id: 42 };
        let mut wire = Vec::new();
        msg.write_to(&mut wire).unwrap();
        let drain = AtomicBool::new(false);
        let writer = std::thread::spawn(move || {
            for b in wire {
                client.write_all(&[b]).unwrap();
                client.flush().unwrap();
            }
            client
        });
        let got = reader.read_message(&drain, Duration::from_secs(5)).unwrap();
        assert_eq!(got, ReadOutcome::Message(msg));
        writer.join().unwrap();
    }

    #[test]
    fn mid_frame_disconnect_is_torn_clean_close_is_closed() {
        let (mut client, mut reader) = pair("torn");
        let msg = ServeMessage::Ping { request_id: 1 };
        let mut wire = Vec::new();
        msg.write_to(&mut wire).unwrap();
        client.write_all(&wire[..wire.len() / 2]).unwrap();
        drop(client);
        let drain = AtomicBool::new(false);
        assert_eq!(
            reader.read_message(&drain, Duration::from_secs(5)),
            Err(ConnError::Protocol(ProtocolError::Torn))
        );

        let (client, mut reader) = pair("closed");
        drop(client);
        assert_eq!(reader.read_message(&drain, Duration::from_secs(5)), Ok(ReadOutcome::Closed));
    }

    #[test]
    fn stalled_mid_frame_peer_is_killed() {
        let (mut client, mut reader) = pair("stall");
        let msg = ServeMessage::Ping { request_id: 1 };
        let mut wire = Vec::new();
        msg.write_to(&mut wire).unwrap();
        client.write_all(&wire[..5]).unwrap();
        client.flush().unwrap();
        let drain = AtomicBool::new(false);
        // The peer is still connected but silent: only the idle timeout
        // can end this read.
        let got = reader.read_message(&drain, Duration::from_millis(30));
        assert_eq!(got, Err(ConnError::Stalled { buffered: 5 }));
    }

    #[test]
    fn drain_between_frames_is_clean_mid_frame_gets_grace() {
        let (mut client, mut reader) = pair("drain");
        let drain = AtomicBool::new(true);
        // No bytes in flight: drained immediately.
        assert_eq!(
            reader.read_message(&drain, Duration::from_millis(200)).unwrap(),
            ReadOutcome::Drained
        );
        // Half a frame in flight when the drain lands: the reader keeps
        // reading and delivers the message once the peer finishes.
        let msg = ServeMessage::Ping { request_id: 9 };
        let mut wire = Vec::new();
        msg.write_to(&mut wire).unwrap();
        client.write_all(&wire[..7]).unwrap();
        client.flush().unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let rest = wire[7..].to_vec();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            client.write_all(&rest).unwrap();
            client
        });
        let got = reader.read_message(&drain, Duration::from_millis(500)).unwrap();
        assert_eq!(got, ReadOutcome::Message(msg));
        writer.join().unwrap();
    }

    #[test]
    fn garbage_and_corruption_kill_only_that_read() {
        let (mut client, mut reader) = pair("garbage");
        client.write_all(b"this is not a frame at all....").unwrap();
        let drain = AtomicBool::new(false);
        assert_eq!(
            reader.read_message(&drain, Duration::from_secs(1)),
            Err(ConnError::Protocol(ProtocolError::Malformed))
        );

        let (mut client, mut reader) = pair("bitflip");
        let msg = ServeMessage::Ping { request_id: 5 };
        let mut wire = Vec::new();
        msg.write_to(&mut wire).unwrap();
        let n = wire.len();
        wire[n - 1] ^= 0x40; // flip a payload bit: checksum must catch it
        client.write_all(&wire).unwrap();
        assert_eq!(
            reader.read_message(&drain, Duration::from_secs(1)),
            Err(ConnError::Protocol(ProtocolError::ChecksumMismatch))
        );
    }

    #[test]
    fn interleaved_partial_frames_deliver_in_order() {
        let (mut client, mut reader) = pair("interleave");
        let msgs: Vec<ServeMessage> =
            (0..4).map(|i| ServeMessage::Ping { request_id: i }).collect();
        let mut wire = Vec::new();
        for m in &msgs {
            m.write_to(&mut wire).unwrap();
        }
        // Write in ragged chunks that straddle every frame boundary.
        let drain = AtomicBool::new(false);
        let writer = std::thread::spawn(move || {
            let mut off = 0;
            let sizes = [3usize, 11, 1, 29, 7, 13, 2, 64 * 1024];
            let mut i = 0;
            while off < wire.len() {
                let n = sizes[i % sizes.len()].min(wire.len() - off);
                client.write_all(&wire[off..off + n]).unwrap();
                client.flush().unwrap();
                off += n;
                i += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            client
        });
        for m in &msgs {
            let got = reader.read_message(&drain, Duration::from_secs(5)).unwrap();
            assert_eq!(got, ReadOutcome::Message(m.clone()));
        }
        let client = writer.join().unwrap();
        drop(client);
        assert_eq!(reader.read_message(&drain, Duration::from_secs(5)), Ok(ReadOutcome::Closed));
    }

    #[test]
    fn tcp_endpoint_round_trips_a_message() {
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind tcp");
        let ep = listener.local_endpoint();
        let mut client = ep.connect().expect("connect tcp");
        let server = listener.accept().expect("accept");
        let mut reader = FrameReader::new(server, Duration::from_millis(5)).unwrap();
        let msg = ServeMessage::Pong { request_id: 3, k: 15, distinct_kmers: 9 };
        msg.write_to(&mut client).unwrap();
        let drain = AtomicBool::new(false);
        assert_eq!(
            reader.read_message(&drain, Duration::from_secs(5)).unwrap(),
            ReadOutcome::Message(msg)
        );
    }
}

//! Unix-socket transport for the worker pool.
//!
//! A [`FrameConn`] wraps one `UnixStream` and speaks the outer frame
//! format of [`crate::protocol`]. Each `send` serializes the whole frame
//! into one buffer and hands it to a single `write_all`, so a *live*
//! writer never interleaves partial frames — only process death can tear
//! one, which is exactly what the reader's torn-frame detection is for.
//! [`FrameConn::send_torn`] deliberately writes half a frame and is the
//! hook behind [`crate::FaultKind::KillWorker`] injection.

use crate::protocol::{read_frame, Message, ProtocolError};
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One framed, checksummed connection end.
#[derive(Debug)]
pub struct FrameConn {
    stream: UnixStream,
}

impl FrameConn {
    /// Connect to a listening pool socket.
    pub fn connect(path: &Path) -> Result<FrameConn, ProtocolError> {
        UnixStream::connect(path)
            .map(FrameConn::from_stream)
            .map_err(|e| ProtocolError::Io(format!("connect {}: {e}", path.display())))
    }

    /// Wrap an accepted stream.
    pub fn from_stream(stream: UnixStream) -> FrameConn {
        FrameConn { stream }
    }

    /// Clone the connection (shared underlying socket) so one end can be
    /// read and written from different threads.
    pub fn try_clone(&self) -> Result<FrameConn, ProtocolError> {
        self.stream
            .try_clone()
            .map(FrameConn::from_stream)
            .map_err(|e| ProtocolError::Io(e.to_string()))
    }

    /// Send one message as one atomic frame.
    pub fn send(&mut self, msg: &Message) -> Result<(), ProtocolError> {
        self.send_frame(&msg.to_frame())
    }

    /// Write one already encoded outer frame ([`Message::to_frame`],
    /// [`crate::protocol::task_frame`]) with a single `write_all`.
    pub fn send_frame(&mut self, frame: &[u8]) -> Result<(), ProtocolError> {
        self.stream.write_all(frame).map_err(|e| ProtocolError::Io(e.to_string()))
    }

    /// Receive one message, blocking until a full frame arrives.
    pub fn recv(&mut self) -> Result<Message, ProtocolError> {
        Message::from_payload(&self.recv_payload()?)
    }

    /// Receive one frame and return its verified payload, undecoded; the
    /// frame took [`crate::protocol::HEADER_LEN`] more bytes on the wire.
    pub fn recv_payload(&mut self) -> Result<Vec<u8>, ProtocolError> {
        read_frame(&mut self.stream)
    }

    /// Write only the first half of the frame, then shut the write side —
    /// the wire image of a worker SIGKILLed mid-result. Fault injection
    /// only; the peer must observe [`ProtocolError::Torn`].
    pub fn send_torn(&mut self, msg: &Message) -> Result<(), ProtocolError> {
        let frame = msg.to_frame();
        self.send_frame(&frame[..frame.len() / 2])?;
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        Ok(())
    }

    /// Shut down both directions; subsequent reads on the peer see EOF.
    pub fn shutdown(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Bind the pool listener, replacing any stale socket file left by a
/// crashed earlier driver.
pub fn bind_socket(path: &Path) -> std::io::Result<UnixListener> {
    if path.exists() {
        let _ = std::fs::remove_file(path);
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    UnixListener::bind(path)
}

/// A socket path unique to this process and call site, under `dir` (or
/// the system temp dir). Kept short: `sun_path` is ~107 bytes.
pub fn scratch_socket_path(dir: Option<&Path>, tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let base = dir.map(Path::to_path_buf).unwrap_or_else(std::env::temp_dir);
    base.join(format!("mrpool_{tag}_{}_{seq}.sock", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::encode_frame;

    #[test]
    fn messages_cross_a_socket_both_ways() {
        let path = scratch_socket_path(None, "t1");
        let listener = bind_socket(&path).expect("bind");
        let srv = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut conn = FrameConn::from_stream(stream);
            let hello = conn.recv().expect("hello");
            assert_eq!(hello, Message::Hello { worker_id: 9, pid: 1, now_ns: 5 });
            conn.send(&Message::Drain).expect("drain");
            // Peer closes after Drain: clean EOF, not an error.
            assert_eq!(conn.recv(), Err(ProtocolError::Closed));
        });
        let mut conn = FrameConn::connect(&path).expect("connect");
        conn.send(&Message::Hello { worker_id: 9, pid: 1, now_ns: 5 }).expect("send");
        assert_eq!(conn.recv().expect("recv"), Message::Drain);
        conn.shutdown();
        srv.join().expect("server thread");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_send_surfaces_as_torn_on_the_peer() {
        let path = scratch_socket_path(None, "t2");
        let listener = bind_socket(&path).expect("bind");
        let srv = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut conn = FrameConn::from_stream(stream);
            conn.recv()
        });
        let mut conn = FrameConn::connect(&path).expect("connect");
        conn.send_torn(&Message::Failed {
            job: 0,
            stage: 0,
            task: 0,
            attempt: 0,
            error: "x".repeat(100),
            trace: vec![],
        })
        .expect("torn send");
        assert_eq!(srv.join().expect("server thread"), Err(ProtocolError::Torn));
        let _ = std::fs::remove_file(&path);
    }

    // ---- adversarial I/O: the reader must be correct for *any* byte
    // arrival pattern the kernel is allowed to produce, not just whole
    // frames. These tests drive the raw stream directly.

    /// A frame delivered one byte per write (worst-case fragmentation —
    /// the kernel may split a stream anywhere) must decode identically,
    /// including a second frame following immediately.
    #[test]
    fn one_byte_at_a_time_writes_still_frame_correctly() {
        let path = scratch_socket_path(None, "t4");
        let listener = bind_socket(&path).expect("bind");
        let srv = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut conn = FrameConn::from_stream(stream);
            (conn.recv(), conn.recv())
        });
        let first = Message::Failed {
            job: 0,
            stage: 1,
            task: 2,
            attempt: 3,
            error: "boom".into(),
            trace: vec![],
        };
        let second = Message::Heartbeat {
            worker_id: 7,
            rss_bytes: 1 << 20,
            peak_alloc_bytes: 0,
            alloc_count: 0,
        };
        let mut wire = encode_frame(&first.to_payload());
        wire.extend_from_slice(&encode_frame(&second.to_payload()));
        let mut raw = std::os::unix::net::UnixStream::connect(&path).expect("connect");
        for byte in wire {
            raw.write_all(&[byte]).expect("write one byte");
        }
        let (a, b) = srv.join().expect("server thread");
        assert_eq!(a, Ok(first));
        assert_eq!(b, Ok(second));
        let _ = std::fs::remove_file(&path);
    }

    /// A peer that dies after any strict prefix of a frame must surface
    /// as `Torn` (bytes seen, frame incomplete); dying cleanly between
    /// frames is `Closed`. Exercises cuts inside the magic, inside the
    /// header, at the payload boundary, and one byte short of complete.
    #[test]
    fn disconnect_at_every_interesting_offset_is_torn_never_garbage() {
        let msg = Message::Failed {
            job: 0,
            stage: 0,
            task: 9,
            attempt: 1,
            error: "x".repeat(64),
            trace: vec![],
        };
        let wire = encode_frame(&msg.to_payload());
        let header_len = 20; // magic + payload_len + checksum
        let cuts = [0usize, 1, 3, header_len - 1, header_len, header_len + 1, wire.len() - 1];
        for &cut in &cuts {
            let path = scratch_socket_path(None, "t5");
            let listener = bind_socket(&path).expect("bind");
            let srv = std::thread::spawn(move || {
                let (stream, _) = listener.accept().expect("accept");
                FrameConn::from_stream(stream).recv()
            });
            let mut raw = std::os::unix::net::UnixStream::connect(&path).expect("connect");
            raw.write_all(&wire[..cut]).expect("partial write");
            drop(raw); // disconnect mid-frame
            let got = srv.join().expect("server thread");
            let want = if cut == 0 { ProtocolError::Closed } else { ProtocolError::Torn };
            assert_eq!(got, Err(want), "cut at byte {cut} of {}", wire.len());
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Frames interleaved with arbitrary pauses and splits that straddle
    /// message boundaries — each burst ends mid-frame — must still decode
    /// in order. This is the wire image of a slow or bursty peer.
    #[test]
    fn interleaved_partial_frames_decode_in_order() {
        let path = scratch_socket_path(None, "t6");
        let listener = bind_socket(&path).expect("bind");
        let msgs = vec![
            Message::Hello { worker_id: 1, pid: 100, now_ns: 0 },
            Message::Heartbeat { worker_id: 1, rss_bytes: 42, peak_alloc_bytes: 0, alloc_count: 0 },
            Message::Failed {
                job: 0,
                stage: 2,
                task: 4,
                attempt: 0,
                error: "late".into(),
                trace: vec![],
            },
            Message::Drain,
        ];
        let expect = msgs.clone();
        let srv = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut conn = FrameConn::from_stream(stream);
            expect.iter().map(|_| conn.recv().expect("recv")).collect::<Vec<_>>()
        });
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&encode_frame(&m.to_payload()));
        }
        // Split points chosen to land inside headers and payloads of
        // different frames, never on a frame boundary.
        let mut raw = std::os::unix::net::UnixStream::connect(&path).expect("connect");
        let mut sent = 0;
        for frac in [3usize, 7, 11, 23, 31, 57] {
            let next = (wire.len() * frac / 64).clamp(sent, wire.len());
            raw.write_all(&wire[sent..next]).expect("burst");
            sent = next;
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        raw.write_all(&wire[sent..]).expect("final burst");
        assert_eq!(srv.join().expect("server thread"), msgs);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reader_and_writer_clones_share_one_socket() {
        let path = scratch_socket_path(None, "t3");
        let listener = bind_socket(&path).expect("bind");
        let srv = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut conn = FrameConn::from_stream(stream);
            let mut got = Vec::new();
            while let Ok(msg) = conn.recv() {
                got.push(msg);
            }
            got
        });
        let conn = FrameConn::connect(&path).expect("connect");
        let mut a = conn.try_clone().expect("clone");
        let mut b = conn.try_clone().expect("clone");
        a.send(&Message::Heartbeat {
            worker_id: 0,
            rss_bytes: 1,
            peak_alloc_bytes: 0,
            alloc_count: 0,
        })
        .expect("send a");
        b.send(&Message::Heartbeat {
            worker_id: 0,
            rss_bytes: 2,
            peak_alloc_bytes: 0,
            alloc_count: 0,
        })
        .expect("send b");
        drop((a, b));
        conn.shutdown();
        let got = srv.join().expect("server thread");
        assert_eq!(got.len(), 2);
        let _ = std::fs::remove_file(&path);
    }
}

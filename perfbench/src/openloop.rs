//! The open-loop generator: sends each line when it is due, whatever
//! the server is doing, and times every response from that due time.
//!
//! A closed loop waits for each reply before sending again, so a
//! stalled server simply receives less load and the stall is charged
//! to one request. Here the schedule runs on: requests due during a
//! stall queue up in the connection, and each is charged the wait it
//! spent behind the stall. One thread drives every connection (it
//! waits for responses until the next send is due), so the generator
//! takes as little of the machine as it can from the server it
//! measures. How late it sent each line is recorded, so a run whose
//! generator fell behind is visible.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::sys::readable_within;

/// One request to send.
#[derive(Debug, Clone)]
pub struct Send {
    /// When it is due, in seconds from the phase start.
    pub due: f64,
    /// Which connection carries it.
    pub conn: usize,
    /// The line, without its newline.
    pub line: String,
}

/// What became of one [`Send`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reply {
    /// When it was written, in seconds from the phase start (`None` if
    /// the phase was abandoned before it was due).
    pub sent: Option<f64>,
    /// When its response line arrived.
    pub done: Option<f64>,
    /// The response line, without its newline.
    pub response: Option<String>,
}

impl Reply {
    /// Latency from the due time, in milliseconds, if answered.
    pub fn latency_ms(&self, due: f64) -> Option<f64> {
        self.done.map(|done| (done - due) * 1e3)
    }
}

/// The generator's connections. They stay open from one phase to the
/// next, as a client's persistent connections would (a server thread
/// per phase would make the server's memory depend on how its
/// allocator reuses the arenas of threads gone), and are replaced only
/// after a phase that left them with a response unread.
pub struct Connections {
    addr: SocketAddr,
    streams: Vec<TcpStream>,
}

impl Connections {
    /// Opens `count` connections to `addr`.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn open(addr: SocketAddr, count: usize) -> io::Result<Connections> {
        let streams = (0..count)
            .map(|_| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(stream)
            })
            .collect::<io::Result<_>>()?;
        Ok(Connections { addr, streams })
    }
}

/// One connection's progress through its share of the plan.
struct Conn<'a> {
    stream: &'a TcpStream,
    /// Plan indices this connection carries, in due order.
    mine: Vec<usize>,
    /// How many of `mine` were sent.
    next: usize,
    /// Plan indices sent and not yet answered, oldest first.
    outstanding: VecDeque<usize>,
    /// Bytes of a response line not yet complete.
    pending: Vec<u8>,
    /// The connection stopped sending (backlog too old, or closed).
    stopped: bool,
    /// The server closed the connection.
    closed: bool,
}

impl Conn<'_> {
    fn sending(&self) -> bool {
        !self.stopped && self.next < self.mine.len()
    }
}

/// Sends `plan` over `connections` and collects one [`Reply`] per
/// entry, in plan order; an entry's `conn` indexes `connections`.
///
/// A connection stops sending once its oldest unanswered request is
/// older than `abandon_after` seconds (the backlog is then unbounded);
/// its later entries stay unsent. Responses still due once sending has
/// stopped are awaited for at most `drain` seconds.
///
/// # Errors
///
/// Connection and I/O failures, and a response nobody asked for. A
/// server closing a connection only leaves its remaining replies
/// unanswered. Connections left with a response unread are reopened
/// for the next phase.
pub fn run(
    connections: &mut Connections,
    plan: &[Send],
    abandon_after: Option<f64>,
    drain: f64,
) -> io::Result<Vec<Reply>> {
    let mut conns: Vec<Conn> = connections
        .streams
        .iter()
        .enumerate()
        .map(|(c, stream)| Conn {
            stream,
            mine: (0..plan.len()).filter(|&i| plan[i].conn == c).collect(),
            next: 0,
            outstanding: VecDeque::new(),
            pending: Vec::new(),
            stopped: false,
            closed: false,
        })
        .collect();
    let mut replies = vec![Reply::default(); plan.len()];
    let mut chunk = vec![0u8; 64 * 1024];
    let mut drain_deadline: Option<f64> = None;
    let start = Instant::now();
    loop {
        let now = start.elapsed().as_secs_f64();
        for conn in conns.iter_mut() {
            while conn.sending() && plan[conn.mine[conn.next]].due <= now {
                if let (Some(limit), Some(&oldest)) = (abandon_after, conn.outstanding.front()) {
                    if now - plan[oldest].due > limit {
                        conn.stopped = true;
                        break;
                    }
                }
                let i = conn.mine[conn.next];
                let mut bytes = Vec::with_capacity(plan[i].line.len() + 1);
                bytes.extend_from_slice(plan[i].line.as_bytes());
                bytes.push(b'\n');
                conn.stream.write_all(&bytes)?;
                replies[i].sent = Some(start.elapsed().as_secs_f64());
                conn.outstanding.push_back(i);
                conn.next += 1;
            }
        }
        let next_due = conns
            .iter()
            .filter(|c| c.sending())
            .map(|c| plan[c.mine[c.next]].due)
            .fold(f64::INFINITY, f64::min);
        let wait = if next_due.is_finite() {
            next_due - start.elapsed().as_secs_f64()
        } else {
            if conns.iter().all(|c| c.outstanding.is_empty()) {
                break;
            }
            let deadline = *drain_deadline.get_or_insert(now + drain);
            let left = deadline - start.elapsed().as_secs_f64();
            if left <= 0.0 {
                break;
            }
            left
        };
        let streams: Vec<&TcpStream> = conns.iter().map(|c| c.stream).collect();
        let ready = readable_within(&streams, Duration::from_secs_f64(wait.max(0.0)))?;
        for (conn, ready) in conns.iter_mut().zip(ready) {
            if ready {
                receive(conn, &mut chunk, &mut replies, &start)?;
            }
        }
    }
    let clean = conns
        .iter()
        .all(|c| !c.closed && c.outstanding.is_empty() && c.pending.is_empty());
    drop(conns);
    if !clean {
        *connections = Connections::open(connections.addr, connections.streams.len())?;
    }
    Ok(replies)
}

/// Reads what `conn` has and completes the replies of its full lines.
fn receive(
    conn: &mut Conn,
    chunk: &mut [u8],
    replies: &mut [Reply],
    start: &Instant,
) -> io::Result<()> {
    match conn.stream.read(chunk) {
        Ok(0) => {
            // The server closed the connection: nothing more will come.
            conn.stopped = true;
            conn.closed = true;
            conn.outstanding.clear();
        }
        Ok(n) => {
            let done = start.elapsed().as_secs_f64();
            conn.pending.extend_from_slice(&chunk[..n]);
            while let Some(pos) = conn.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = conn.pending.drain(..=pos).collect();
                let Some(i) = conn.outstanding.pop_front() else {
                    return Err(io::Error::new(
                        ErrorKind::InvalidData,
                        "response without a request",
                    ));
                };
                replies[i].done = Some(done);
                replies[i].response =
                    Some(String::from_utf8_lossy(&line[..line.len() - 1]).into_owned());
            }
        }
        Err(e) if e.kind() == ErrorKind::Interrupted => {}
        Err(e) => return Err(e),
    }
    Ok(())
}

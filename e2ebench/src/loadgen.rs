//! Open-loop load generator: one thread drives every connection through
//! non-blocking unix sockets. Each op has a scheduled send time; its
//! latency runs from that time (not from the actual send) to the arrival
//! of its reply, so a stall in the daemon also charges the requests it
//! delayed (coordinated omission is corrected). Replies on one
//! connection come back in request order, which pairs them with ops.

use crate::check::Checker;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Marks an op that failed (error line, refusal, timeout or a reply the
/// check rejected): it misses every latency limit.
pub const FAILED: u64 = u64::MAX;

/// How long after the last scheduled send a phase waits for replies.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// k=0 query over a node outside the hot set.
    Cold,
    /// k=0 query over the Zipf hot set.
    Hot,
    /// k=0 query over 2-3 nodes of one component.
    Multi,
    /// Top-k query (k > 0).
    TopK,
    /// The query on an update's endpoint that closes a fresh read.
    Fresh,
}

#[derive(Debug, Clone)]
pub enum Kind {
    Query {
        nodes: Vec<u64>,
        k: usize,
        class: Class,
    },
    Update {
        add: bool,
        u: u64,
        v: u64,
    },
    Repin,
}

#[derive(Debug, Clone)]
pub struct Op {
    pub conn: usize,
    /// Scheduled send time, nanoseconds from the phase start.
    pub at_ns: u64,
    pub kind: Kind,
}

impl Op {
    pub fn query(conn: usize, at_ns: u64, nodes: Vec<u64>, k: usize, class: Class) -> Op {
        Op {
            conn,
            at_ns,
            kind: Kind::Query { nodes, k, class },
        }
    }

    pub fn class(&self) -> Option<Class> {
        match &self.kind {
            Kind::Query { class, .. } => Some(*class),
            _ => None,
        }
    }

    /// The request line sent as line `line_no` of its connection.
    pub fn wire(&self, line_no: u64) -> String {
        match &self.kind {
            Kind::Query { nodes, k, .. } => {
                let ids: Vec<String> = nodes.iter().map(u64::to_string).collect();
                let k = if *k > 0 {
                    format!(",\"k\":{k}")
                } else {
                    String::new()
                };
                format!(
                    "{{\"op\":\"query\",\"nodes\":[{}],\"tag\":\"t{line_no}\"{k}}}\n",
                    ids.join(",")
                )
            }
            Kind::Update { add, u, v } => {
                let action = if *add { "add" } else { "del" };
                format!("{{\"op\":\"update\",\"action\":\"{action}\",\"u\":{u},\"v\":{v}}}\n")
            }
            Kind::Repin => "{\"op\":\"repin\"}\n".to_string(),
        }
    }
}

/// One client connection, kept across phases (the daemon numbers lines
/// per connection).
pub struct Conn {
    stream: UnixStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    /// Ops sent and not yet answered: (op index, line number).
    waiting: VecDeque<(usize, u64)>,
    lines_sent: u64,
    /// Snapshot version this connection is pinned to (from repin replies).
    pub pinned: u64,
}

impl Conn {
    /// Connect and make one blocking `repin` round trip, so the daemon's
    /// connection thread is running (its accept loop polls) and the
    /// connection knows the epoch it is pinned to before timing starts.
    pub fn open(path: &std::path::Path) -> Result<Conn, String> {
        let mut stream = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(DRAIN_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream
            .write_all(b"{\"op\":\"repin\"}\n")
            .map_err(|e| format!("repin: {e}"))?;
        let mut inbuf = Vec::new();
        let mut byte = [0u8; 1];
        while byte[0] != b'\n' {
            stream
                .read_exact(&mut byte)
                .map_err(|e| format!("repin reply: {e}"))?;
            inbuf.push(byte[0]);
        }
        let reply = dmcs_engine::output::Json::parse(String::from_utf8_lossy(&inbuf).trim())
            .map_err(|e| format!("repin reply: {e}"))?;
        let pinned = reply
            .get("version")
            .and_then(|v| v.as_u64())
            .ok_or("repin reply without a version")?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            waiting: VecDeque::new(),
            lines_sent: 1,
            pinned,
        })
    }

    /// Half-close and read the rest (the daemon's per-connection summary
    /// line), blocking for at most `timeout`.
    pub fn finish(mut self, timeout: Duration) -> Option<String> {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        let _ = self.stream.set_nonblocking(false);
        let _ = self.stream.set_read_timeout(Some(timeout));
        let mut rest = String::new();
        let _ = self.stream.read_to_string(&mut rest);
        let text = String::from_utf8_lossy(&self.inbuf).into_owned() + &rest;
        text.lines().last().map(str::to_string)
    }
}

/// What one phase measured.
pub struct PhaseResult {
    /// Per-op latency in ns from its scheduled send ([`FAILED`] on failure).
    pub latency_ns: Vec<u64>,
    /// Arrival time of each op's reply, ns from the phase start.
    pub recv_ns: Vec<u64>,
    /// How late the generator sent each op, ns.
    pub lateness_ns: Vec<u64>,
    /// Most ops outstanding at once.
    pub backlog_max: usize,
    /// Time from the last scheduled send to the last reply, ns.
    pub drain_ns: u64,
}

impl PhaseResult {
    pub fn failed(&self) -> usize {
        self.latency_ns.iter().filter(|&&l| l == FAILED).count()
    }
}

/// Run `ops` (sorted by `at_ns`) open-loop over `conns`, checking every
/// reply with `checker`.
fn drive(conns: &mut [Conn], ops: &[Op], checker: &mut Checker) -> PhaseResult {
    let n = ops.len();
    let mut res = PhaseResult {
        latency_ns: vec![FAILED; n],
        recv_ns: vec![0; n],
        lateness_ns: Vec::with_capacity(n),
        backlog_max: 0,
        drain_ns: 0,
    };
    let last_due = ops.last().map_or(0, |o| o.at_ns);
    let mut replies: Vec<(usize, u64, String)> = Vec::with_capacity(n);
    let mut next = 0usize;
    let mut outstanding = 0usize;
    let mut dead = vec![false; conns.len()];
    let start = Instant::now();
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let now = start.elapsed().as_nanos() as u64;
        let mut progressed = false;
        while next < n && ops[next].at_ns <= now {
            let op = &ops[next];
            let c = &mut conns[op.conn];
            c.lines_sent += 1;
            c.out.extend_from_slice(op.wire(c.lines_sent).as_bytes());
            c.waiting.push_back((next, c.lines_sent));
            res.lateness_ns.push(now - op.at_ns);
            outstanding += 1;
            next += 1;
            progressed = true;
        }
        res.backlog_max = res.backlog_max.max(outstanding);
        for (ci, c) in conns.iter_mut().enumerate() {
            if dead[ci] {
                continue;
            }
            if !c.out.is_empty() {
                match c.stream.write(&c.out) {
                    Ok(w) => {
                        c.out.drain(..w);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => dead[ci] = true,
                }
            }
            match c.stream.read(&mut buf) {
                Ok(0) => dead[ci] = true,
                Ok(got) => {
                    let t = start.elapsed().as_nanos() as u64;
                    c.inbuf.extend_from_slice(&buf[..got]);
                    let mut consumed = 0;
                    while let Some(p) = c.inbuf[consumed..].iter().position(|&b| b == b'\n') {
                        let line =
                            String::from_utf8_lossy(&c.inbuf[consumed..consumed + p]).into_owned();
                        consumed += p + 1;
                        if let Some((idx, line_no)) = c.waiting.pop_front() {
                            res.recv_ns[idx] = t;
                            res.latency_ns[idx] = t.saturating_sub(ops[idx].at_ns);
                            outstanding -= 1;
                            replies.push((idx, line_no, line));
                        }
                    }
                    c.inbuf.drain(..consumed);
                    progressed = true;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(_) => dead[ci] = true,
            }
            if dead[ci] {
                // Everything still waiting on a dead connection fails.
                while let Some((idx, _)) = c.waiting.pop_front() {
                    res.latency_ns[idx] = FAILED;
                    outstanding -= 1;
                }
            }
        }
        if next == n && outstanding == 0 {
            break;
        }
        if next == n && now > last_due + DRAIN_TIMEOUT.as_nanos() as u64 {
            for c in conns.iter_mut() {
                c.waiting.clear();
            }
            break; // the unanswered ops keep their FAILED latency
        }
        if !progressed {
            // Idle: hand the core over for a moment. The generator never
            // sleeps: a sleeping thread wakes late on a VM, and its
            // lateness would be charged to the daemon.
            std::thread::yield_now();
        }
    }
    let last_recv = res.recv_ns.iter().copied().max().unwrap_or(0);
    res.drain_ns = last_recv.saturating_sub(last_due);
    // Replies are checked once the phase is over, so checking never
    // makes the generator the bottleneck or late.
    for r in replies {
        check_one(conns, ops, checker, &mut res, r);
    }
    res
}

fn check_one(
    conns: &mut [Conn],
    ops: &[Op],
    checker: &mut Checker,
    res: &mut PhaseResult,
    (idx, line_no, line): (usize, u64, String),
) {
    let op = &ops[idx];
    let conn = &mut conns[op.conn];
    if let Err(why) = checker.check(op, line_no, &line, &mut conn.pinned) {
        checker.reject(idx, &why, &line);
        res.latency_ns[idx] = FAILED;
    }
}

/// [`drive`] on a thread of its own at the lowest CPU priority. The
/// generator polls without sleeping; at low priority it never delays a
/// daemon thread that wants a core, so the daemon gets both cores when
/// it needs them (the churn workload does) and the generator runs in
/// the gaps. On Linux the nice value is per thread, so the calling
/// thread, and the `dmcs` processes it spawns, keep their priority.
pub fn drive_low_priority(conns: &mut [Conn], ops: &[Op], checker: &mut Checker) -> PhaseResult {
    extern "C" {
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    const PRIO_PROCESS: i32 = 0;
    std::thread::scope(|s| {
        s.spawn(|| {
            // SAFETY: plain integer arguments; `who` 0 names the calling
            // thread.
            unsafe {
                setpriority(PRIO_PROCESS, 0, 19);
            }
            drive(conns, ops, checker)
        })
        .join()
        .expect("the load generator thread does not panic")
    })
}

/// Evenly spaced arrivals: `count` ops at `rate` per second.
pub fn schedule(count: usize, rate: f64) -> impl Iterator<Item = u64> {
    let gap = 1e9 / rate;
    (0..count).map(move |i| (i as f64 * gap) as u64)
}

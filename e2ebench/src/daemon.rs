//! Starting, timing and stopping `dmcs` processes.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest wait for a daemon to answer its first query or to exit.
const PATIENCE: Duration = Duration::from_secs(60);

/// A running `dmcs serve`, stopped (and waited for) on drop.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

/// Wait for `child` to exit, killing it after `PATIENCE`.
fn reap(child: &mut Child) -> std::io::Result<std::process::ExitStatus> {
    let deadline = Instant::now() + PATIENCE;
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(status);
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            return child.wait();
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

impl Daemon {
    /// Spawn `dmcs serve <args> --unix <socket>` and wait for the correct
    /// reply to a first query on `probe`. Returns the daemon and the
    /// seconds from spawn to that reply.
    pub fn start(
        dmcs: &Path,
        args: &[String],
        socket: &Path,
        probe: u64,
    ) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_file(socket);
        let started = Instant::now();
        let child = Command::new(dmcs)
            .arg("serve")
            .args(args)
            .arg("--unix")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", dmcs.display()))?;
        let mut daemon = Daemon {
            child,
            socket: socket.to_path_buf(),
        };
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(_) if started.elapsed() < PATIENCE => {
                    if let Ok(Some(status)) = daemon.child.try_wait() {
                        return Err(format!("dmcs serve exited early: {status}"));
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
                Err(e) => return Err(format!("dmcs serve never listened: {e}")),
            }
        };
        stream
            .set_read_timeout(Some(PATIENCE))
            .map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        writeln!(reader.get_mut(), "{{\"op\":\"query\",\"nodes\":[{probe}]}}")
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("first reply: {e}"))?;
        let setup = started.elapsed().as_secs_f64();
        let reply = dmcs_engine::output::Json::parse(line.trim())
            .map_err(|e| format!("first reply: {e}"))?;
        let holds_probe = reply
            .get("community")
            .and_then(|c| c.as_arr())
            .is_some_and(|c| c.iter().any(|v| v.as_u64() == Some(probe)));
        if !holds_probe {
            return Err(format!(
                "first reply is not a community of {probe}: {}",
                line.trim()
            ));
        }
        Ok((daemon, setup))
    }

    /// The daemon's peak resident set so far, in MB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| e.to_string())?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok(kb / 1024.0)
    }

    /// Ask the daemon to drain and wait for it to exit cleanly.
    pub fn stop(mut self) -> Result<(), String> {
        let sent = UnixStream::connect(&self.socket)
            .and_then(|mut s| s.write_all(b"{\"op\":\"shutdown\"}\n"))
            .is_ok();
        let status = reap(&mut self.child).map_err(|e| e.to_string())?;
        if !sent || !status.success() {
            return Err(format!("dmcs serve did not drain cleanly: {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Run `dmcs <args>` to completion, returning its wall seconds and stdout.
pub fn run_batch(dmcs: &Path, args: &[String]) -> Result<(f64, String), String> {
    let started = Instant::now();
    let mut child = Command::new(dmcs)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", dmcs.display()))?;
    let mut out = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        std::io::Read::read_to_string(&mut pipe, &mut out).map_err(|e| e.to_string())?;
    }
    let status = reap(&mut child).map_err(|e| e.to_string())?;
    let wall = started.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("dmcs {} failed: {status}", args.join(" ")));
    }
    Ok((wall, out))
}

/// Peak resident set, in MB, of the largest child this process has
/// waited for (`getrusage(RUSAGE_CHILDREN)`; Linux reports KiB).
pub fn children_peak_rss_mb() -> f64 {
    // struct rusage on 64-bit Linux: two timevals, then fourteen longs,
    // the first of which is ru_maxrss.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        fields: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        fields: [0; 14],
    };
    // SAFETY: `usage` is a live, writable struct with the kernel's
    // 64-bit `struct rusage` layout, and getrusage writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    usage.fields[0] as f64 / 1024.0
}

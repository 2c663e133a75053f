//! Child processes under test: timing, peak memory, clean shutdown.

use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::Instant;

/// What one finished child process did.
#[derive(Debug, Clone)]
pub struct Finished {
    /// How it exited.
    pub status: ExitStatus,
    /// Wall time from spawn to exit, in seconds.
    pub wall_s: f64,
    /// Its standard output.
    pub stdout: String,
    /// Its peak resident set, in KiB (`ru_maxrss`).
    pub max_rss_kib: u64,
}

/// Runs `program args…` in `dir` to completion, capturing stdout.
///
/// # Errors
///
/// Spawn and wait failures.
pub fn run_timed(program: &Path, args: &[&str], dir: &Path) -> io::Result<Finished> {
    let started = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let (status, max_rss_kib) = crate::sys::wait_with_rusage(&child)?;
    let wall_s = started.elapsed().as_secs_f64();
    read?;
    Ok(Finished {
        status,
        wall_s,
        stdout,
        max_rss_kib,
    })
}

/// A running `diversim serve --tcp` process, killed and reaped on drop.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// Keeps the pipe open, so the server never writes into a closed
    /// stdout.
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `diversim serve` on an ephemeral loopback port and waits
    /// for it to announce its address.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a server that exits or prints no address.
    pub fn spawn(diversim: &Path, threads: usize, cache: usize) -> io::Result<Server> {
        let mut child = Command::new(diversim)
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .args(["--threads", &threads.to_string()])
            .args(["--cache", &cache.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let parsed = stdout.read_line(&mut line).and_then(|_| {
            line.trim()
                .rsplit(' ')
                .next()
                .and_then(|addr| addr.parse().ok())
                .ok_or_else(|| io::Error::other(format!("no listen address in {line:?}")))
        });
        match parsed {
            Ok(addr) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// The server's peak resident set so far, in KiB (`VmHWM`).
    ///
    /// # Errors
    ///
    /// When `/proc` has no such process or no `VmHWM` line.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

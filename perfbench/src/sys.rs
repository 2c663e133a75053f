//! The two system calls the standard library does not expose: `wait4`
//! (a child's exit status together with its peak memory) and `ppoll`
//! (waiting for a socket with a nanosecond timeout; socket read
//! timeouts are rounded to the kernel's tick, which would add
//! milliseconds to every scheduled send).

use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::process::{Child, ExitStatus};
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench uses the system-call layouts of 64-bit Linux");

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which `ru_maxrss` is the first.
#[repr(C)]
struct Rusage {
    _times: [i64; 4],
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `child` and returns its exit status with its peak RSS.
pub fn wait_with_rusage(child: &Child) -> io::Result<(ExitStatus, u64)> {
    use std::os::unix::process::ExitStatusExt;
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut usage = Rusage {
        _times: [0; 4],
        maxrss: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (`Child` never waited
        // on it), and both out-pointers are to live, correctly sized
        // locals of the layout the kernel writes.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            return Ok((
                ExitStatus::from_raw(status),
                u64::try_from(usage.maxrss).unwrap_or(0),
            ));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits at most `wait` for any of `streams` to have data (or an end
/// or error) to read, and returns which do; all `false` on timeout or
/// interruption.
pub fn readable_within(streams: &[&TcpStream], wait: Duration) -> io::Result<Vec<bool>> {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let timeout = Timespec {
        tv_sec: i64::try_from(wait.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fds` is a live array of `fds.len()` `pollfd`s for open
    // descriptors `streams` owns, `timeout` a live `timespec`, and the
    // signal mask null (keep the current one), as `ppoll(2)` requires.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as u64,
            &timeout,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let err = io::Error::last_os_error();
        return if err.kind() == io::ErrorKind::Interrupted {
            Ok(vec![false; streams.len()])
        } else {
            Err(err)
        };
    }
    Ok(fds.iter().map(|fd| fd.revents != 0).collect())
}

//! A safe wrapper over `poll(2)`: block until one of a set of descriptors
//! is ready, with no periodic tick.
//!
//! `cache-server` forbids `unsafe`, std exposes no readiness wait, and the
//! workspace has no `libc` crate — but std already links the C library, so
//! the one foreign declaration lives here, next to the workspace's other
//! `unsafe`, behind a slice-typed function that cannot be misused into
//! undefined behaviour.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Readable data (or end of stream) is waiting.
pub const POLLIN: i16 = 0x001;
/// A write would not block.
pub const POLLOUT: i16 = 0x004;

/// One entry of a wait set, laid out as the kernel's `struct pollfd`.
#[repr(C)]
#[derive(Debug)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Waits on `fd` for `events` (`POLLIN | POLLOUT`, either or neither;
    /// errors and hang-ups are always reported).
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd { fd, events, revents: 0 }
    }

    /// What the last [`poll`] found on this descriptor; 0 when nothing.
    pub fn revents(&self) -> i16 {
        self.revents
    }
}

#[cfg(any(target_os = "linux", target_os = "android"))]
type NFds = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NFds = std::ffi::c_uint;

extern "C" {
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: NFds, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

/// Blocks until a descriptor in `fds` is ready, `timeout` passes (`None`:
/// wait for ever), or a signal arrives; returns how many entries have a
/// non-zero [`PollFd::revents`]. A timeout is rounded up to a millisecond.
///
/// # Errors
///
/// `Interrupted` on a signal, otherwise what the kernel reported (`EINVAL`
/// for more entries than the process may hold open, `ENOMEM`).
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms = timeout.map_or(-1, |t| {
        let ms = t.as_nanos().div_ceil(1_000_000);
        std::ffi::c_int::try_from(ms).unwrap_or(std::ffi::c_int::MAX)
    });
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // `PollFd`, field for field the kernel's `struct pollfd`, and the kernel
    // reads and writes only `fds.len() * size_of::<PollFd>()` bytes from its
    // start (it writes `revents` alone, for which every bit pattern is a
    // valid `i16`). A descriptor that is closed or was never open is
    // reported as `POLLNVAL` in its entry; it is not undefined behaviour.
    // `fds.len()` fits `NFds`: the slice cannot outgrow the address space.
    let n = unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) };
    usize::try_from(n).map_err(|_| io::Error::last_os_error())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    /// The peer hung up; reported whether or not it was asked for.
    const POLLHUP: i16 = 0x010;
    /// The descriptor is not open; reported whether or not it was asked for.
    const POLLNVAL: i16 = 0x020;

    #[test]
    fn not_ready_times_out() {
        let (a, _b) = UnixStream::pair().expect("pair");
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let t = Instant::now();
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(20))).expect("poll"), 0);
        assert!(t.elapsed() >= Duration::from_millis(20));
        assert_eq!(fds[0].revents(), 0);
        // A timeout under a millisecond still waits rather than spinning.
        assert_eq!(poll(&mut fds, Some(Duration::from_nanos(1))).expect("poll"), 0);
        assert_eq!(poll(&mut [], Some(Duration::ZERO)).expect("poll"), 0);
    }

    #[test]
    fn ready_sets_revents_on_that_entry_only() {
        let (a, mut b) = UnixStream::pair().expect("pair");
        let (c, _d) = UnixStream::pair().expect("pair");
        b.write_all(b"x").expect("write");
        let mut fds = [
            PollFd::new(c.as_raw_fd(), POLLIN),
            PollFd::new(a.as_raw_fd(), POLLIN),
            PollFd::new(a.as_raw_fd(), POLLOUT),
        ];
        assert_eq!(poll(&mut fds, None).expect("poll"), 2);
        assert_eq!(fds[0].revents(), 0);
        assert_eq!(fds[1].revents(), POLLIN);
        assert_eq!(fds[2].revents(), POLLOUT);
        // Level-triggered: the unread byte is reported again, and `revents`
        // left over from the last call is overwritten.
        fds.swap(0, 1);
        assert_eq!(poll(&mut fds[..1], None).expect("poll"), 1);
        assert_eq!(fds[0].revents(), POLLIN);
    }

    #[test]
    fn closed_peer_reports_hangup_and_an_unopened_fd_nval() {
        let (a, b) = UnixStream::pair().expect("pair");
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), 0)];
        assert_eq!(poll(&mut fds, None).expect("poll"), 1);
        assert_ne!(fds[0].revents() & POLLHUP, 0);
        // No process holds this many descriptors open.
        let mut fds = [PollFd::new(RawFd::MAX, POLLIN)];
        assert_eq!(poll(&mut fds, None).expect("poll"), 1);
        assert_eq!(fds[0].revents(), POLLNVAL);
    }
}

//! The one `poll(2)` declaration the reactor blocks in. std already links
//! the C library, so this is a declaration, not a dependency, and it is
//! the only `unsafe` code in the workspace.

use std::io;
use std::os::fd::AsRawFd;
use std::os::raw::c_int;
use std::time::Duration;

/// Readable data, or a pending connection on a listener.
pub(crate) const POLLIN: i16 = 0x001;
/// Room in the send buffer.
pub(crate) const POLLOUT: i16 = 0x004;

/// `struct pollfd`, field for field.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: i16,
    /// Written by the kernel; the reactor re-services every connection
    /// after a wake, so it never reads this.
    #[allow(dead_code)]
    revents: i16,
}

impl PollFd {
    pub(crate) fn new(fd: &impl AsRawFd, events: i16) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }
}

#[cfg(any(target_os = "linux", target_os = "android"))]
type NFds = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NFds = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
}

/// Blocks until one of `fds` is ready or `timeout` (rounded up to whole
/// milliseconds; `None` waits forever) passes. A signal that interrupts
/// the wait counts as a wake: the caller re-checks its state.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let timeout_ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // `pollfd` records and `nfds` is its exact length, so the kernel reads
    // and writes only inside it; poll(2) keeps no pointer after returning.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

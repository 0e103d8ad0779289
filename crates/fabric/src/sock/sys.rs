//! The one system call the sockets backend needs that `std` does not
//! offer: a receive that is non-blocking *for this call only*.
//!
//! `UdpSocket::set_nonblocking` flips the whole socket, and the same
//! socket must stay blocking for the armed reactor's wait (see
//! [`super::reactor`]); `MSG_DONTWAIT` asks for one non-blocking receive
//! and leaves the socket alone. The workspace has no `libc` crate (every
//! dependency is an offline shim), so the symbol is declared by hand, the
//! way `benchmark/src/host.rs` declares `sched_setaffinity`. This is the
//! only `unsafe` in `crates/` outside tests.

use std::io;
use std::net::UdpSocket;
use std::os::fd::AsRawFd;

/// `MSG_DONTWAIT` from `<sys/socket.h>`.
#[cfg(any(target_os = "linux", target_os = "android"))]
const MSG_DONTWAIT: i32 = 0x40;
/// `MSG_DONTWAIT` from `<sys/socket.h>`.
#[cfg(not(any(target_os = "linux", target_os = "android")))]
const MSG_DONTWAIT: i32 = 0x80;

extern "C" {
    /// `ssize_t recv(int sockfd, void *buf, size_t len, int flags)`.
    fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
}

/// Receive one datagram into `buf` if one is queued; `WouldBlock` if the
/// socket is empty. A datagram longer than `buf` is cut to fit, as with
/// [`UdpSocket::recv`].
pub(super) fn recv_nonblocking(sock: &UdpSocket, buf: &mut [u8]) -> io::Result<usize> {
    // SAFETY: `buf` is a live, exclusively borrowed byte slice, and the
    // kernel writes at most `buf.len()` bytes into it; any bit pattern is a
    // valid `u8`. The descriptor is open for as long as `sock` is borrowed.
    // `recv` retains neither pointer past the call.
    let n = unsafe { recv(sock.as_raw_fd(), buf.as_mut_ptr(), buf.len(), MSG_DONTWAIT) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    #[test]
    fn empty_socket_would_block_and_a_queued_datagram_arrives_whole() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut buf = [0u8; 64];
        assert_eq!(recv_nonblocking(&rx, &mut buf).unwrap_err().kind(), ErrorKind::WouldBlock);
        tx.send_to(b"doorbell", rx.local_addr().unwrap()).unwrap();
        // Loopback delivery is synchronous with the send.
        assert_eq!(recv_nonblocking(&rx, &mut buf).unwrap(), 8);
        assert_eq!(&buf[..8], b"doorbell");
        assert_eq!(recv_nonblocking(&rx, &mut buf).unwrap_err().kind(), ErrorKind::WouldBlock);
        // The socket itself is still blocking: the flag was per call.
        rx.set_read_timeout(Some(std::time::Duration::from_millis(5))).unwrap();
        let err = rx.recv(&mut buf).unwrap_err().kind();
        assert!(matches!(err, ErrorKind::WouldBlock | ErrorKind::TimedOut));
    }
}

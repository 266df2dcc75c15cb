//! The few operating-system facts the benchmark needs that `std` does not
//! expose: anonymous tmpfs files for the WAL and checkpoints, the
//! filesystem type behind a file, process CPU time and peak RSS (Linux).

use std::fs::File;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd};
use std::time::Duration;

extern "C" {
    fn memfd_create(name: *const std::ffi::c_char, flags: std::ffi::c_uint) -> std::ffi::c_int;
    fn fstatfs(fd: std::ffi::c_int, buf: *mut u64) -> std::ffi::c_int;
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut [i64; 2]) -> std::ffi::c_int;
}

const MFD_CLOEXEC: std::ffi::c_uint = 1;
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
const TMPFS_MAGIC: u64 = 0x0102_1994;

/// A new anonymous file backed by tmpfs shared memory. It has no path, so
/// writing it touches no directory, and it disappears when its last handle
/// closes. Its `sync_data` is the tmpfs barrier: a real syscall that
/// returns without waiting for a disk.
pub fn tmpfs_file(name: &str) -> io::Result<File> {
    let cname = std::ffi::CString::new(name).expect("memfd names carry no NUL byte");
    // SAFETY: `cname` is a valid NUL-terminated string that outlives the
    // call; the flags are a documented constant.
    let fd = unsafe { memfd_create(cname.as_ptr(), MFD_CLOEXEC) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` was just returned by memfd_create, is open, and nothing
    // else owns it; the `File` takes sole ownership and closes it on drop.
    Ok(unsafe { File::from_raw_fd(fd) })
}

/// The filesystem type of `file` as a name ("tmpfs", or the magic number
/// in hex for anything else).
pub fn fs_type(file: &File) -> io::Result<String> {
    // `struct statfs` is 120 bytes on 64-bit Linux and starts with the
    // `f_type` word; the buffer is larger than the struct on purpose.
    let mut buf = [0u64; 32];
    // SAFETY: `buf` is writable, 8-byte aligned and larger than
    // `struct statfs`; the descriptor is open for the duration of the call.
    let rc = unsafe { fstatfs(file.as_raw_fd(), buf.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(if buf[0] == TMPFS_MAGIC {
        "tmpfs".to_string()
    } else {
        format!("0x{:x}", buf[0])
    })
}

/// CPU time consumed by every thread of this process so far.
pub fn process_cpu() -> Duration {
    let mut ts = [0i64; 2];
    // SAFETY: `ts` has the layout of `struct timespec` on 64-bit Linux
    // (two 64-bit words) and is writable for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    Duration::new(ts[0] as u64, ts[1] as u32)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}

/// Read a whole file from offset 0 without moving any shared offset.
pub fn read_all(file: &File) -> io::Result<Vec<u8>> {
    use std::os::unix::fs::FileExt;
    let len = file.metadata()?.len() as usize;
    let mut buf = vec![0u8; len];
    file.read_exact_at(&mut buf, 0)?;
    Ok(buf)
}

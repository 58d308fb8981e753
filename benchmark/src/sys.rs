//! Process measurement: wall time, CPU time and peak memory of child
//! processes, and the same for long-lived daemons through `/proc`.
//! Linux only.

use std::io::{self, Read};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One finished child process.
#[derive(Clone, Debug)]
pub struct Finished {
    /// Spawn to reap.
    pub wall: Duration,
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size in KiB (`ru_maxrss`).
    pub maxrss_kb: u64,
    /// Exit code, or `None` when killed by a signal.
    pub code: Option<i32>,
    /// Everything the child wrote to standard output.
    pub stdout: String,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs
/// starting with `ru_maxrss`.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

/// `cpu_set_t`: a bit per CPU, 1024 in all.
type CpuSet = [u64; 16];

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, in increasing order; empty
/// when they cannot be read.
pub fn thread_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable `cpu_set_t` of the size passed; pid 0
    // is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..set.len() * 64)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Lets the calling thread run only on `cpus`; threads and processes it
/// starts afterwards inherit the set. Returns whether that succeeded.
pub fn pin_thread(cpus: &[usize]) -> bool {
    let mut set: CpuSet = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 16 * 64) {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a readable `cpu_set_t` of the size passed; pid 0
    // is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

fn timeval(t: &Timeval) -> Duration {
    Duration::from_secs(t.tv_sec.max(0) as u64) + Duration::from_micros(t.tv_usec.max(0) as u64)
}

/// Runs `cmd` to completion, capturing its standard output, and reaps it
/// with `wait4(2)` to read its own CPU time and peak RSS.
///
/// # Errors
///
/// Fails when the process cannot be spawned or reaped.
pub fn run(cmd: &mut Command) -> io::Result<Finished> {
    let start = Instant::now();
    let mut child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).spawn()?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child; `status` and `usage`
        // are valid, writable and laid out as the kernel's `int` and
        // `struct rusage` on 64-bit Linux.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall = start.elapsed();
    read?;
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Finished {
        wall,
        cpu: timeval(&usage.ru_utime) + timeval(&usage.ru_stime),
        maxrss_kb: usage.ru_maxrss.max(0) as u64,
        code,
        stdout,
    })
}

/// Peak resident set size of a live process in KiB (`VmHWM`).
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Clock ticks per second of `/proc/<pid>/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time a live process has used so far, over all
/// its threads, including ones that have exited.
pub fn cpu_time(pid: u32) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_secs_f64((utime + stime) as f64 / USER_HZ))
}

/// Number of CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_child() {
        let done = run(Command::new("sh").args(["-c", "echo hi; exit 3"])).unwrap();
        assert_eq!(done.stdout, "hi\n");
        assert_eq!(done.code, Some(3));
        assert!(done.maxrss_kb > 0);
    }

    #[test]
    fn reads_own_proc_entries() {
        let pid = std::process::id();
        assert!(vm_hwm_kb(pid).unwrap() > 0);
        assert!(cpu_time(pid).is_some());
        assert!(nproc() >= 1);
    }

    #[test]
    fn pins_and_restores_the_thread() {
        // On a thread of its own, so other tests keep every CPU.
        std::thread::spawn(|| {
            let all = thread_cpus();
            assert!(!all.is_empty());
            assert!(pin_thread(&all[..1]));
            assert_eq!(thread_cpus(), &all[..1]);
            assert!(pin_thread(&all));
            assert_eq!(thread_cpus(), all);
        })
        .join()
        .unwrap();
    }
}

//! Host and process readings from `/proc`, CPU placement, and the
//! loopback reference path.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use crate::stats;

/// Aggregate CPU counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    pub fn now() -> CpuTimes {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice],
        // where guest time is already counted in user.
        CpuTimes {
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of CPU time the hypervisor took between two readings.
    pub fn steal_frac_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// A `kB` field of `/proc/<pid>/status`, in bytes.
fn status_kb(path: &str, key: &str) -> u64 {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Resident set size in MB.
pub fn rss_mb(pid: u32) -> f64 {
    status_kb(&format!("/proc/{pid}/status"), "VmRSS:") as f64 / 1024.0
}

/// Voluntary plus involuntary context switches over all live threads.
pub fn ctx_switches(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .map(|t| {
            let status = t.path().join("status").display().to_string();
            status_kb(&status, "voluntary_ctxt_switches:")
                + status_kb(&status, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

/// CPU nanoseconds the process's live threads have run
/// (`/proc/<pid>/task/*/schedstat`, first field).
pub fn cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// `cpu_set_t` is 1024 bits.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: the kernel writes at most `size` bytes into `mask`.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread, and every thread or process it starts
/// afterwards, to one CPU. Async-signal-safe, so a child may call it
/// between fork and exec.
pub fn pin_to(cpu: usize) -> std::io::Result<()> {
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes from `mask`.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// A loopback echo thread pinned to the server's CPU, and a connection
/// to it from the load generator's: the kernel path every wire request
/// takes, without the server. Its round trip says how fast the host runs
/// at the moment of sampling (NOTES.md, "Reference path").
pub struct RefPath {
    conn: TcpStream,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RefPath {
    pub fn start(cpu: Option<usize>) -> std::io::Result<RefPath> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = std::thread::spawn(move || {
            if let Some(c) = cpu {
                let _ = pin_to(c);
            }
            let Ok((mut s, _)) = listener.accept() else {
                return;
            };
            let _ = s.set_nodelay(true);
            let mut buf = [0u8; 48];
            while s.read_exact(&mut buf).is_ok() && s.write_all(&buf).is_ok() {}
        });
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        Ok(RefPath {
            conn,
            thread: Some(thread),
        })
    }

    /// Median round trip of a 48-byte message over `trips` trips, in
    /// microseconds.
    pub fn rtt_us(&mut self, trips: usize) -> std::io::Result<f64> {
        let mut buf = [7u8; 48];
        let mut samples = Vec::with_capacity(trips);
        for _ in 0..trips {
            let t = Instant::now();
            self.conn.write_all(&buf)?;
            self.conn.read_exact(&mut buf)?;
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(stats::median(&mut samples))
    }
}

impl Drop for RefPath {
    fn drop(&mut self) {
        let _ = self.conn.shutdown(std::net::Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

//! What the benchmark reads from `/proc`: the server's CPU time and
//! peak RSS, and the environment and transport record printed with
//! every run.

use std::fs;

/// CPU time of every thread of `pid`, in nanoseconds, from
/// `/proc/<pid>/task/*/schedstat` (user + system, nanosecond
/// resolution). `/proc/<pid>/stat`'s utime+stime count 10 ms clock
/// ticks, too coarse for a workload whose server uses under a second
/// of CPU per run; the server's threads all live for the whole run, so
/// the per-thread sum loses nothing. Falls back to the tick counters
/// where schedstat is unavailable.
pub fn cpu_ns(pid: u32) -> Option<u64> {
    let mut total = 0u64;
    let mut any = false;
    if let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) {
        for t in tasks.flatten() {
            let path = t.path().join("schedstat");
            if let Some(ns) = fs::read_to_string(path)
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            {
                total += ns;
                any = true;
            }
        }
    }
    if any {
        return Some(total);
    }
    let (user, sys) = user_sys_ms(pid)?;
    Some((user + sys) * 1_000_000)
}

/// User and system CPU time of `pid` in milliseconds, from the 10 ms
/// tick counters of `/proc/<pid>/stat` (for the run record only).
pub fn user_sys_ms(pid: u32) -> Option<(u64, u64)> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 overall.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i)?.parse::<u64>().ok().map(|t| t * 10);
    Some((tick(11)?, tick(12)?))
}

/// CPU time of the calling thread, in nanoseconds.
#[cfg(target_os = "linux")]
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, exclusively borrowed timespec.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    (ts.sec as u64) * 1_000_000_000 + ts.nsec as u64
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> u64 {
    0
}

/// Microseconds of thread CPU time one fixed piece of work takes on
/// this host right now: 5 000 steps of a pointer chase through a
/// 16 MiB random cycle, four times a core's L2, so nearly every step
/// waits on the shared cache or memory that the host's other guests
/// load. Among the probes tried (this one, the same chase through a
/// cached 256 KiB table, a hash-map build) it tracked the server's
/// slow minutes best: elasticity about 1, correlation 0.75 with the
/// server's CPU per request across `admit_unique` runs. It runs in the
/// benchmark, not the server, so no change to the program under test
/// can move it, and it is timed on the thread's own CPU clock, so time
/// spent preempted by the server's threads does not count.
pub fn host_probe_us() -> f64 {
    const SLOTS: usize = 1 << 22;
    thread_local! {
        // One cycle through every slot (Sattolo's shuffle, fixed seed).
        static NEXT: Vec<u32> = {
            let mut next: Vec<u32> = (0..SLOTS as u32).collect();
            let mut x = 0x5ecd_eb0a_u64;
            for i in (1..SLOTS).rev() {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                next.swap(i, (x >> 33) as usize % i);
            }
            next
        };
    }
    NEXT.with(|next| {
        let t0 = thread_cpu_ns();
        let mut at = 0u32;
        for _ in 0..5_000 {
            at = next[at as usize];
        }
        std::hint::black_box(at);
        (thread_cpu_ns() - t0) as f64 / 1e3
    })
}

/// Peak resident set size (`VmHWM`) of `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time the hypervisor gave other guests while this one wanted to
/// run (`steal` in `/proc/stat`), in milliseconds since boot, summed
/// over CPUs; 0 where unavailable.
pub fn steal_ms() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |ticks| ticks * 10)
}

/// Sockets in TIME_WAIT on this host (IPv4 + IPv6).
pub fn time_wait_count() -> usize {
    ["/proc/net/tcp", "/proc/net/tcp6"]
        .iter()
        .filter_map(|p| fs::read_to_string(p).ok())
        .map(|s| {
            s.lines()
                .skip(1)
                .filter(|l| l.split_whitespace().nth(3) == Some("06"))
                .count()
        })
        .sum()
}

fn read_trim(path: &str) -> String {
    fs::read_to_string(path)
        .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The environment record: `nproc`, kernel, CPU model and the TCP
/// settings that decide whether fresh-connection workloads can reuse
/// ports, as `key=value` pairs.
pub fn environment() -> Vec<(&'static str, String)> {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc().to_string()),
        ("kernel", read_trim("/proc/sys/kernel/osrelease")),
        ("cpu", cpu),
        ("tcp_tw_reuse", read_trim("/proc/sys/net/ipv4/tcp_tw_reuse")),
        (
            "ip_local_port_range",
            read_trim("/proc/sys/net/ipv4/ip_local_port_range"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        let a = cpu_ns(pid).expect("cpu time");
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_ns(pid).expect("cpu time") >= a);
        assert!(peak_rss_mb(pid).expect("VmHWM") > 0.0);
        assert!(host_probe_us() > 0.0);
        assert!(environment().iter().any(|(k, _)| *k == "nproc"));
    }
}

//! The untraced run: the release `serve` binary in its own process,
//! driven closed-loop, measured from the client and from `/proc`.

use crate::drive::{closed_loop, closed_loop_counted, encode_all, Outcome, Plan};
use crate::gen::{Req, Workload};
use crate::stats::{median, quantile};
use crate::{sys, wire, Metric};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// `server_rss_mb` is read once this many requests have completed (or
/// at the end of a shorter run), so on `admit_unique`, where every
/// answer inserts a cache entry, it does not scale with throughput.
const RSS_MARK: usize = 10_000;
/// Length of the windows latency and throughput are taken over; each
/// metric is the median across windows.
const WINDOW: Duration = Duration::from_millis(500);
/// The host probe's time ([`sys::host_probe_us`]) on the reference
/// host. A shared virtual machine runs the same instructions up to 55%
/// slower in some minutes than in others (its neighbours load the
/// shared cache and memory). The CPU-bound metrics are therefore
/// reported as they would read on the reference host: multiplied by this over the
/// run's median probe (rates divided by it). The probe runs between
/// start-ups and at every window boundary, on the same two cores as
/// the server; the unscaled values are printed with every run.
const PROBE_REF_US: f64 = 1000.0;

/// A `serve` child process, killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns `serve --addr 127.0.0.1:0 --workers N` and waits for its
    /// first `GET /v1/health` 200.
    pub fn start(bin: &Path, workers: usize) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        die_with_parent(&mut cmd);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut line = String::new();
        if let Some(out) = child.stdout.take() {
            let _ = BufReader::new(out).read_line(&mut line);
        }
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        let mut proc = ServerProc {
            child,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
        };
        if addr.is_none() {
            return Err(format!("server did not report its address: {line:?}"));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while !wire::health(proc.addr) {
            if Instant::now() > deadline || proc.child.try_wait().ok().flatten().is_some() {
                return Err("server never answered /v1/health".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(proc)
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// Has the child killed if this process dies first (even by SIGKILL,
/// when no destructor runs), so no server outlives the benchmark.
#[cfg(target_os = "linux")]
fn die_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: runs in the forked child before exec; `prctl` is
    // async-signal-safe and touches no memory of ours.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
            Ok(())
        });
    }
}

#[cfg(not(target_os = "linux"))]
fn die_with_parent(_: &mut Command) {}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sends the fixed warm-up pass over fresh connections, split across
/// `threads` clients so every worker sees it.
pub fn warm(addr: SocketAddr, warmup: &[Req], threads: usize) -> Result<(), String> {
    let wire = encode_all(warmup, false);
    let plan = Plan {
        threads,
        keep_alive: false,
        unique: true,
        duration: Duration::from_secs(60),
    };
    let out = closed_loop(addr, warmup, &wire, plan);
    if out.failed() > 0 || out.samples.len() != warmup.len() {
        return Err(format!("warm-up failed: {:?}", out.first_errors));
    }
    Ok(())
}

/// The result of one untraced run.
pub struct Run {
    /// The closed-loop outcome.
    pub outcome: Outcome,
    /// The end-to-end metrics.
    pub metrics: Vec<Metric>,
}

/// A measured start-up: the server that survived it, the start-up
/// times and the host probes taken between start-ups.
pub struct Started {
    server: ServerProc,
    setups: Vec<f64>,
    probes: Vec<f64>,
    time_wait_before: usize,
}

/// Starts the server [`SETUPS`] times — spawn with `min(nproc, 2)`
/// workers, first health 200, the fixed warm-up from as many clients —
/// keeping the last one. Runs before the workload's pool is generated,
/// so start-up is timed on a quiet machine, and is the same for every
/// workload.
pub fn start(bin: &Path, warmup: &[Req]) -> Result<Started, String> {
    let workers = sys::nproc().min(2);
    let time_wait_before = sys::time_wait_count();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut healthy = Vec::with_capacity(SETUPS);
    let mut probes = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        probes.push(sys::host_probe_us());
        let t0 = Instant::now();
        let s = ServerProc::start(bin, workers)?;
        healthy.push(t0.elapsed().as_secs_f64() * 1e3);
        warm(s.addr, warmup, workers)?;
        setups.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let each: Vec<String> = setups.iter().map(|t| format!("{:.1}", t * 1e3)).collect();
    eprintln!(
        "setup: median {:.2} ms to first health 200, {:.2} ms with warm-up [{}]; host probe {:.1} us",
        median(&healthy),
        median(&setups) * 1e3,
        each.join(" "),
        median(&probes)
    );
    Ok(Started {
        server: server.ok_or("no server")?,
        setups,
        probes,
        time_wait_before,
    })
}

/// Runs `workload` for `seconds` against a started server.
pub fn run(
    started: Started,
    workload: Workload,
    reqs: &[Req],
    seconds: f64,
) -> Result<Run, String> {
    let Started {
        server,
        setups,
        mut probes,
        time_wait_before: tw_before,
    } = started;
    // Keep-alive connections on the mix; one connection at a time on
    // the fresh-connection workloads, where two client threads next to
    // two busy workers oversubscribe a two-core host and the scheduling
    // noise swamps the server's own variation.
    let threads = if workload.keep_alive() {
        sys::nproc().min(2)
    } else {
        1
    };
    let wire = encode_all(reqs, workload.keep_alive());
    let pid = server.pid();
    let steal_before = sys::steal_ms();
    let user_sys_before = sys::user_sys_ms(pid).unwrap_or_default();

    let plan = Plan {
        threads,
        keep_alive: workload.keep_alive(),
        unique: workload.unique(),
        duration: Duration::from_secs_f64(seconds),
    };
    // CPU snapshots at window boundaries, taken while the clients run.
    let mut cpu_marks: Vec<(u64, u64)> = Vec::new();
    let mut rss = None;
    let completed = AtomicUsize::new(0);
    let start = Instant::now();
    let outcome = std::thread::scope(|s| {
        let clients = s.spawn(|| closed_loop_counted(server.addr, reqs, &wire, plan, &completed));
        let mut k = 0u32;
        while !clients.is_finished() {
            if rss.is_none() && completed.load(Ordering::Relaxed) >= RSS_MARK {
                rss = sys::peak_rss_mb(pid);
            }
            let at = start + WINDOW * k;
            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait.min(Duration::from_millis(20)));
                continue;
            }
            let t = start.elapsed().as_nanos() as u64;
            if let Some(cpu) = sys::cpu_ns(pid) {
                cpu_marks.push((t, cpu));
            }
            probes.push(sys::host_probe_us());
            k += 1;
        }
        clients
            .join()
            .map_err(|_| "client thread panicked".to_string())
    })?;
    let rss = rss.or_else(|| sys::peak_rss_mb(pid)).unwrap_or(0.0);
    let user_sys = sys::user_sys_ms(pid).unwrap_or_default();
    drop(server);
    let tw_after = sys::time_wait_count();
    eprintln!(
        "transport: time_wait_before={tw_before} time_wait_after={tw_after} connect_failures={} io_failures={} steal_ms={} server_user_ms={} server_sys_ms={}",
        outcome.connect_failures,
        outcome.io_failures,
        sys::steal_ms().saturating_sub(steal_before),
        user_sys.0.saturating_sub(user_sys_before.0),
        user_sys.1.saturating_sub(user_sys_before.1),
    );

    // Latency and throughput are taken per half-second window and
    // reported as the median across windows, so a burst of outside
    // load that covers a minority of the run does not move them. The
    // closed loop started a moment after `start`, which is close enough
    // for half-second windows.
    let (mut rps, mut p50, mut p90) = (vec![], vec![], vec![]);
    for w in cpu_marks.windows(2) {
        let ((t0, _), (t1, _)) = (w[0], w[1]);
        let lat: Vec<f64> = outcome
            .samples
            .iter()
            .filter(|s| s.done_ns >= t0 && s.done_ns < t1)
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect();
        if t1 > t0 && !lat.is_empty() && t1 <= outcome.wall.as_nanos() as u64 {
            rps.push(lat.len() as f64 / ((t1 - t0) as f64 / 1e9));
            p50.extend(quantile(&lat, 0.5));
            p90.extend(quantile(&lat, 0.9));
        }
    }
    let windows = rps.len() as u64;
    // Server CPU per request over the whole run, for the run record
    // only: on the mix, where the server idles on the stall between
    // requests, it moved by a quarter from run to run with nothing
    // else changing, too much for a bounded metric.
    let cpu = match (cpu_marks.first(), cpu_marks.last()) {
        (Some(&(t0, c0)), Some(&(t1, c1))) if t1 > t0 => {
            let n = outcome
                .samples
                .iter()
                .filter(|s| s.done_ns >= t0 && s.done_ns < t1)
                .count();
            (c1 - c0) as f64 / 1e3 / n.max(1) as f64
        }
        _ => 0.0,
    };
    let raw = [median(&setups), median(&p50), median(&p90), median(&rps)];
    // Host-speed scaling (see PROBE_REF_US): set-up time is multiplied
    // by `scale`, and so are latency and throughput (divided) where the
    // server is kept busy rather than idling on a timer.
    let probe = median(&probes);
    let scale = PROBE_REF_US / probe;
    let busy_scale = if workload.cpu_bound() { scale } else { 1.0 };
    eprintln!(
        "host: probe median {probe:.1} us over {} probes, scale {scale:.4}; unscaled setup_s={:.6} latency_p50_ms={:.6} latency_p90_ms={:.6} throughput_rps={:.3}; server_cpu_us_per_req={cpu:.3}",
        probes.len(),
        raw[0], raw[1], raw[2], raw[3]
    );
    let metrics = vec![
        Metric::new("setup_s", raw[0] * scale, "s", SETUPS as u64),
        Metric::new("latency_p50_ms", raw[1] * busy_scale, "ms", windows),
        Metric::new("latency_p90_ms", raw[2] * busy_scale, "ms", windows),
        Metric::new("throughput_rps", raw[3] / busy_scale, "1/s", windows),
        Metric::new("server_rss_mb", rss, "MiB", 1),
    ];
    Ok(Run { outcome, metrics })
}

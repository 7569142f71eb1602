//! Workers accept their own connections: a connection that arrives
//! while every worker is busy waits in the kernel's listen backlog,
//! not in the process, and shutdown still joins when its wake-up
//! connection has to wait there too.
//!
//! The recorder slot is process-global, so the tests in this binary
//! take a file-local serial lock.

use recdb_obs::InMemoryRecorder;
use recdb_serve::client::Conn;
use recdb_serve::{ServeConfig, Server};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::Duration;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn one_worker(read_timeout_ms: u64) -> Server {
    Server::start(ServeConfig {
        workers: 1,
        read_timeout_ms,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

#[test]
fn a_busy_pool_leaves_new_connections_in_the_backlog() {
    let _g = serial();
    let rec = InMemoryRecorder::shared();
    recdb_obs::install(rec.clone());
    // The timeout only bounds a failing run: A never idles that long.
    let s = one_worker(10_000);
    let mut a = Conn::connect(s.addr()).expect("connect A");
    assert_eq!(a.get("/v1/health").unwrap().status, 200);
    // The only worker is driving A; B's request waits with B.
    let mut b = Conn::connect(s.addr()).expect("connect B");
    b.send_raw(b"GET /v1/health HTTP/1.1\r\nconnection: close\r\n\r\n")
        .expect("send B");
    assert_eq!(a.get("/v1/health").unwrap().status, 200);
    assert_eq!(
        rec.counter_value("serve.connections"),
        1,
        "B was accepted while the only worker was still driving A"
    );
    drop(a);
    let r = b.read_response().expect("B is served once A closes");
    assert_eq!((r.status, r.body.as_str()), (200, "{\"status\":\"ok\"}"));
    s.shutdown();
    recdb_obs::uninstall();
    assert_eq!(rec.counter_value("serve.connections"), 2);
}

#[test]
fn shutdown_joins_when_the_only_worker_is_pinned_by_an_idle_connection() {
    let _g = serial();
    let s = one_worker(100);
    let mut idle = Conn::connect(s.addr()).expect("connect");
    assert_eq!(idle.get("/v1/health").unwrap().status, 200);
    // `idle` stays open: the wake-up connection waits in the backlog
    // until the worker's read timeout releases it from `idle`.
    let (done, joined) = mpsc::channel();
    let t = std::thread::spawn(move || {
        s.shutdown();
        let _ = done.send(());
    });
    assert!(
        joined.recv_timeout(Duration::from_secs(30)).is_ok(),
        "shutdown did not join"
    );
    t.join().expect("shutdown thread");
    drop(idle);
}

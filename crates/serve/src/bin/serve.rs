//! The `serve` binary: starts the analyzer-gated query service and
//! runs until killed.
//!
//! ```text
//! serve [--addr 127.0.0.1:7171] [--workers N] [--fuel-default N]
//!       [--fuel-max N] [--no-cache] [--verify-hits]
//! ```

use recdb_serve::{ServeConfig, Server};

fn main() {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:7171".to_string(),
        ..ServeConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--addr" => cfg.addr = take("--addr"),
            "--workers" => cfg.workers = parse(&take("--workers"), "--workers"),
            "--fuel-default" => cfg.fuel_default = parse(&take("--fuel-default"), "--fuel-default"),
            "--fuel-max" => cfg.fuel_max = parse(&take("--fuel-max"), "--fuel-max"),
            "--no-cache" => cfg.cache = false,
            "--verify-hits" => cfg.verify_hits = true,
            "--help" | "-h" => {
                println!(
                    "serve — analyzer-gated query service\n\
                     options: --addr A --workers N --fuel-default N --fuel-max N --no-cache --verify-hits"
                );
                return;
            }
            other => {
                eprintln!("unknown option {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    match Server::start(cfg) {
        Ok(server) => {
            println!("listening on {}", server.addr());
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("bind failed: {e}");
            std::process::exit(1);
        }
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{what}: cannot parse {s:?}");
        std::process::exit(2);
    })
}

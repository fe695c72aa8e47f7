//! The `fmm-serve` binary: start the evaluation service and run until a
//! shutdown request arrives on either front door.
//!
//! ```text
//! fmm-serve [--addr 127.0.0.1:7331] [--max-batch 64] [--conn-threads 4]
//!           [--exec-threads 2] [--registry-capacity 64]
//! ```

use fmm_serve::{ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: fmm-serve [--addr HOST:PORT] [--max-batch N] [--conn-threads N]\n\
         \x20                [--exec-threads N] [--registry-capacity N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:7331".into(),
        ..ServeConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut grab = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => cfg.addr = grab(),
            "--max-batch" => cfg.max_batch = grab().parse().unwrap_or_else(|_| usage()),
            "--conn-threads" => cfg.conn_threads = grab().parse().unwrap_or_else(|_| usage()),
            "--exec-threads" => cfg.exec_threads = grab().parse().unwrap_or_else(|_| usage()),
            "--registry-capacity" => {
                cfg.registry_capacity = grab().parse().unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }

    let server = match Server::start(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fmm-serve: cannot bind {}: {}", cfg.addr, e);
            std::process::exit(1);
        }
    };
    println!(
        "fmm-serve listening on {} (max batch {}, {} conn / {} exec threads)",
        server.local_addr(),
        cfg.max_batch,
        cfg.conn_threads,
        cfg.exec_threads
    );
    server.join();
    println!("fmm-serve: drained, bye");
}

//! `cerberus-serve` — run the UB-oracle HTTP service, or smoke-test a
//! running one.
//!
//! ```text
//! cerberus-serve [--addr HOST:PORT] [--workers N]   serve until interrupted
//! cerberus-serve --smoke HOST:PORT [--timeout-s N]  drive a live server once
//! ```

use std::time::Duration;

use cerberus_server::{client, serve, ServerConfig};

fn main() {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => {}
        Err(message) => {
            eprintln!("cerberus-serve: {message}");
            std::process::exit(1);
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut addr = "127.0.0.1:8080".to_owned();
    let mut config = ServerConfig::default();
    let mut smoke_target: Option<String> = None;
    let mut timeout = Duration::from_secs(60);

    let mut words = args.into_iter();
    while let Some(word) = words.next() {
        let mut value = |flag: &str| {
            words
                .next()
                .ok_or_else(|| format!("{flag} needs a value (see --help)"))
        };
        match word.as_str() {
            "--addr" => addr = value("--addr")?,
            "--workers" => {
                config.workers = value("--workers")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--workers needs a positive integer")?;
            }
            "--smoke" => smoke_target = Some(value("--smoke")?),
            "--timeout-s" => {
                timeout = Duration::from_secs(
                    value("--timeout-s")?
                        .parse::<u64>()
                        .map_err(|_| "--timeout-s needs an integer")?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: cerberus-serve [--addr HOST:PORT] [--workers N]\n       cerberus-serve --smoke HOST:PORT [--timeout-s N]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument {other:?} (see --help)")),
        }
    }

    if let Some(target) = smoke_target {
        let transcript = client::smoke(&target, timeout).map_err(|e| e.to_string())?;
        print!("{transcript}");
        println!("smoke: ok");
        return Ok(());
    }

    let server = serve(&addr, config).map_err(|e| format!("cannot serve on {addr}: {e}"))?;
    println!(
        "cerberus-serve: listening on {} ({} workers); POST /api/v0/submit",
        server.local_addr(),
        server.queue().worker_count()
    );
    // Serve until the process is killed; the accept and handler threads run
    // on their own, so just park this one.
    loop {
        std::thread::park();
    }
}

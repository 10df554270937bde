//! `ptrng-loadgen` — concurrency load generation against a running entropy server.
//!
//! ```text
//! # 512 simultaneous keep-alive clients, 2 requests each:
//! ptrng-loadgen --target 127.0.0.1:7878 --path "/random?bytes=4096" --connections 512
//! ```
//!
//! Prints one JSON report to stdout and exits 0 only when the run passed: every
//! connection connected, no transport errors, and no 5xx responses — so a CI load
//! smoke is just this bin's exit code.

use std::process::ExitCode;

use ptrng_serve::loadgen::{run, LoadgenConfig};

const USAGE: &str = "\
ptrng-loadgen — concurrency load generation against a running entropy server

USAGE:
  ptrng-loadgen --target HOST:PORT [OPTIONS]

OPTIONS:
  --target HOST:PORT   server address (required)
  --path PATH          request path+query        [default: /random?bytes=4096]
  --connections N      concurrent connections    [default: 256]
  --requests N         keep-alive requests per connection
                                                 [default: 2]
  -h, --help           this help

EXIT STATUS:
  0  the run passed (all connected, no errors, no 5xx)
  1  the run failed (the JSON report says why)
  2  bad usage
";

fn parse(argv: &[String]) -> Result<LoadgenConfig, String> {
    let mut target: Option<String> = None;
    let mut path = "/random?bytes=4096".to_string();
    let mut connections = 256usize;
    let mut requests = 2usize;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--target" => target = Some(value("--target")?.clone()),
            "--path" => path = value("--path")?.clone(),
            "--connections" => {
                connections = value("--connections")?
                    .parse()
                    .map_err(|_| "--connections must be a positive integer".to_string())?;
            }
            "--requests" => {
                requests = value("--requests")?
                    .parse()
                    .map_err(|_| "--requests must be a positive integer".to_string())?;
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    let target = target.ok_or_else(|| "--target is required".to_string())?;
    if connections == 0 || requests == 0 {
        return Err("--connections and --requests must be at least 1".to_string());
    }
    Ok(LoadgenConfig {
        target,
        path,
        connections,
        requests_per_conn: requests,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&argv) {
        Ok(config) => config,
        Err(message) if message.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("ptrng-loadgen: {message}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&config);
    println!("{}", report.to_json());
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

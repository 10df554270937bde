//! The deployment every workload runs against and the four traffic mixes.

use ptrng_engine::audit::DEFAULT_AUDIT_WINDOW_BITS;

/// `ptrng-serve` flags of the one deployment; each run adds
/// `--listen 127.0.0.1:0` and `--seed <workload seed>`.  The FIPS startup
/// battery is on (the default) and no rate limit is set.
pub const DEPLOYMENT: [&str; 11] = [
    "--source",
    "ero:16:strong",
    "--shards",
    "2",
    "--conditioner",
    "sha256",
    "--min-h",
    "0.997",
    "--drbg",
    "--threads",
    "2",
];

/// The accounted min-entropy per output bit the deployment promises (`--min-h`).
pub const MIN_H: f64 = 0.997;

/// Bytes of one `/selftest` window (the default 2^17-bit audit window).
pub const WINDOW_BYTES: usize = DEFAULT_AUDIT_WINDOW_BITS / 8;

/// The product tier a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `/entropy`: accounted full-entropy bytes.
    Entropy,
    /// `/random`: ledger-funded Hash_DRBG bytes.
    Random,
    /// `/selftest`: one audited window of conditioned output.
    Selftest,
}

/// How requests arrive.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// `clients` keep-alive clients, each sending its next request as soon
    /// as the previous response is complete.
    Closed { clients: usize },
    /// Open-loop arrivals over two keep-alive connections: first
    /// `reference_requests` at the `reference` rate (requests per second),
    /// where `p50_ms` and `tail_ms` are read, then each rate of `rates` for
    /// an equal share of the remaining time.  `limit_ms` is the latency
    /// limit on each rung's tail.
    Ladder {
        reference: f64,
        reference_requests: u32,
        rates: &'static [f64],
        limit_ms: f64,
    },
}

/// One traffic mix.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub tier: Tier,
    /// Body bytes per request (`/selftest`: the audited window).
    pub bytes: u64,
    pub traffic: Traffic,
    /// The fixed percentile `tail_ms` reports: the highest with at least ten
    /// samples beyond it at the workload's request count.
    pub tail_q: f64,
    /// Untimed traffic before the measured phase, seconds.
    pub warmup_s: f64,
}

/// Open-loop rates of `random-small` above its reference rate, requests per
/// second: steps of 1000 across the knee (about 12 000 requests per second
/// with two keep-alive connections on a 2-CPU machine).
const RANDOM_SMALL_RATES: [f64; 9] = [
    8000.0, 9000.0, 10000.0, 11000.0, 12000.0, 13000.0, 14000.0, 15000.0, 16000.0,
];

pub static WORKLOADS: [Workload; 4] = [
    // The eRO walk does most of the work and the DRBG none: the paper's product.
    Workload {
        name: "entropy",
        tier: Tier::Entropy,
        bytes: 4096,
        traffic: Traffic::Closed { clients: 2 },
        tail_q: 0.99,
        // The first draws after spawn run at about half speed.
        warmup_s: 2.0,
    },
    // Per-request serving dominates: event loop, parsing, head rendering,
    // the expansion tier's lock.  The source sits idle.
    Workload {
        name: "random-small",
        tier: Tier::Random,
        bytes: 4096,
        // 9000 reference requests make nine tail windows of 1000, where p99
        // is the highest percentile with ten samples beyond it.
        traffic: Traffic::Ladder {
            reference: 2000.0,
            reference_requests: 9000,
            rates: &RANDOM_SMALL_RATES,
            limit_ms: 25.0,
        },
        tail_q: 0.99,
        warmup_s: 1.0,
    },
    // The same DRBG and serving layers the other way round: SHA-256 and
    // chunk framing dominate, per-request cost is under 1 %.
    Workload {
        name: "random-bulk",
        tier: Tier::Random,
        bytes: 1 << 20,
        traffic: Traffic::Closed { clients: 2 },
        tail_q: 0.99,
        warmup_s: 1.0,
    },
    // The only mix where the SP 800-90B battery does most of the work.
    Workload {
        name: "selftest",
        tier: Tier::Selftest,
        bytes: WINDOW_BYTES as u64,
        traffic: Traffic::Closed { clients: 1 },
        tail_q: 0.9,
        warmup_s: 1.0,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })
}

/// The request target serving `bytes` of `tier`.
pub fn path(tier: Tier, bytes: u64) -> String {
    match tier {
        Tier::Entropy => format!("/entropy?bytes={bytes}"),
        Tier::Random => format!("/random?bytes={bytes}"),
        Tier::Selftest => "/selftest".to_string(),
    }
}

/// A complete `GET` request head for `path`.
pub fn request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

impl Workload {
    pub fn path(&self) -> String {
        path(self.tier, self.bytes)
    }

    pub fn request(&self) -> Vec<u8> {
        request(&self.path())
    }
}

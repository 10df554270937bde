//! Golden digests of the served byte stream.
//!
//! Each case runs a one-shard engine configured as
//! `ptrngd --shards 1 --seed S --source SRC --conditioner C --batch-bits N --budget B`
//! and compares the SHA-256 of its output with a pinned value, so a change to the
//! walk, the health tests, the conditioning stages or the bit packing that moves one
//! served byte fails here.  The batch size 1001 is odd on purpose: it carries partial
//! bytes and partial conditioning groups across batches.  A pair whose startup battery
//! fails is pinned to its alarm instead.
//!
//! With two shards the merge order depends on thread timing, so the two-shard case
//! compares each shard's own stream.  The `σ²_N` thermal test reads the walk's own
//! edge counter and draws nothing, so with it on the anchors serve the same bytes.
//!
//! The eRO walks draw their Gaussians through the platform's `ln`; the digests were
//! recorded on x86-64 Linux with glibc.

use std::time::{Duration, Instant};

use ptrng::engine::health::HealthConfig;
use ptrng::engine::pool::{ConditionerSpec, Engine, EngineConfig};
use ptrng::engine::source::{JitterProfile, SourceSpec};
use ptrng::trng::online::OnlineTestConfig;
use ptrng::trng::sha256::Sha256;

/// Base seeds of the matrix cases.
const SEEDS: [u64; 2] = [7, 2014];

/// Batch sizes of the matrix cases: the default and an odd one.
const BATCH_BITS: [usize; 2] = [8192, 1001];

/// Output budget of every matrix case.
const BUDGET: u64 = 4096;

/// `ptrngd --shards 1 --seed 7 --source SRC --conditioner C --batch-bits N --budget B
/// | sha256sum`, as the command line prints it.
const ANCHORS: [(&str, &str, usize, u64, &str); 5] = [
    (
        "ero:16:strong",
        "sha256",
        8192,
        262_144,
        "b65ddd90146b1c0fdbaa90dc4d69fc846bf25ca27bdef8ae3ce8f765f83b665f",
    ),
    (
        "ero:16:strong",
        "sha256",
        1001,
        65_536,
        "d6c4f294e5aac3a113a41c74152ca9c1d98892026082a98086a9afa2e491e6a5",
    ),
    (
        "ero:64:date14",
        "sha256",
        8192,
        4096,
        "ea64836489fdc50e6307959c95f43f2b6bc32b25589d9d80ef5c6014988980e2",
    ),
    (
        "pool:ero:16+model:0.6",
        "sha256",
        8192,
        65_536,
        "d5a27e9c6eb60886844523874563786f661ab4311ef8bf18e78688bd67d69139",
    ),
    // `xor:2` is `pool:ero:8+ero:8`: the digest is that pool's served stream.
    (
        "xor:2",
        "xor:2,sha256",
        8192,
        65_536,
        "51df71c917913b9901580d2bef54286d83a64ca89c628dc8416f33d7ef1deb0b",
    ),
];

/// What a source/conditioner pair serves over the four seed × batch-size runs.
enum Expect {
    /// The first 16 hex digits of each run's digest, in the order seed 7 at 8192 and
    /// 1001 bits, then seed 2014 at 8192 and 1001 bits.
    Digests([&'static str; 4]),
    /// Every run ends with this alarm before it serves a byte.
    Alarm(&'static str),
}

use Expect::{Alarm, Digests};

const FIPS_ALARM: &str =
    "health alarm on shard 0: startup battery failed: FIPS monobit, FIPS poker, FIPS runs";

/// The sources whose walks are cheap enough to run unoptimised, every conditioner.
#[rustfmt::skip]
const MATRIX: [(&str, &str, Expect); 24] = [
    ("ero:16:strong", "none", Digests(["3448fa9d780bddd3", "3448fa9d780bddd3", "fefc5366a7d717b0", "fefc5366a7d717b0"])),
    ("ero:16:strong", "sha256", Digests(["00a26d5695aa1150", "00a26d5695aa1150", "8e0c434ec4d919b3", "8e0c434ec4d919b3"])),
    ("ero:16:strong", "sha256:3", Digests(["bb4cb16fdc1cd386", "bb4cb16fdc1cd386", "5ab4e89a2a141c57", "5ab4e89a2a141c57"])),
    ("ero:16:strong", "xor:2", Digests(["8efe67c92f86498f", "8efe67c92f86498f", "8cf30ac1af9acc50", "8cf30ac1af9acc50"])),
    ("ero:16:strong", "vn", Digests(["b0693055e83175cc", "b0693055e83175cc", "f751f1f33e8ce5bc", "f751f1f33e8ce5bc"])),
    ("ero:16:strong", "xor:2,sha256", Digests(["1bb80d1b4f556440", "1bb80d1b4f556440", "f685a14a5a64b0b0", "f685a14a5a64b0b0"])),
    // `xor:2` parses to `pool:ero:8+ero:8`, and these rows are that pool's digests as
    // `ptrngd --shards 1 --seed S --source pool:ero:8+ero:8 --conditioner C
    // --batch-bits N --budget 4096 | sha256sum` printed them.
    ("xor:2", "none", Digests(["08ded8664a293bec", "08ded8664a293bec", "79e5d9f4a835e3ab", "79e5d9f4a835e3ab"])),
    ("xor:2", "sha256", Digests(["b82e329103ba2220", "b82e329103ba2220", "f23795fa31c17971", "f23795fa31c17971"])),
    ("xor:2", "sha256:3", Digests(["38c4ecd57fabd781", "38c4ecd57fabd781", "541dbfcbde8deab4", "541dbfcbde8deab4"])),
    ("xor:2", "xor:2", Digests(["b95fbd457e4a1e88", "b95fbd457e4a1e88", "f3c822657db8c4e9", "f3c822657db8c4e9"])),
    ("xor:2", "vn", Digests(["66b8b6a352454a9b", "66b8b6a352454a9b", "cc1dd780e437e676", "cc1dd780e437e676"])),
    ("xor:2", "xor:2,sha256", Digests(["2cd14d76e905d82f", "2cd14d76e905d82f", "6e70fac2dfbbe912", "6e70fac2dfbbe912"])),
    ("model:0.7", "none", Alarm(FIPS_ALARM)),
    ("model:0.7", "sha256", Digests(["41a6b03dbb06d93a", "41a6b03dbb06d93a", "63fa3b65069a9e97", "63fa3b65069a9e97"])),
    ("model:0.7", "sha256:3", Digests(["2ecc287936d7475d", "2ecc287936d7475d", "81ed1f951bc81125", "81ed1f951bc81125"])),
    ("model:0.7", "xor:2", Alarm(FIPS_ALARM)),
    ("model:0.7", "vn", Digests(["33d0861b7666b3a3", "33d0861b7666b3a3", "4216086d1db3fcba", "4216086d1db3fcba"])),
    ("model:0.7", "xor:2,sha256", Digests(["94f8f3ebc82a376a", "94f8f3ebc82a376a", "eb5aaac353dab838", "eb5aaac353dab838"])),
    ("pool:ero:16+model:0.6", "none", Digests(["b59cc841f70ddf95", "b59cc841f70ddf95", "02eec2af670c09e1", "02eec2af670c09e1"])),
    ("pool:ero:16+model:0.6", "sha256", Digests(["3381ba508ad5233e", "3381ba508ad5233e", "fd9ccb0ff37fedd8", "fd9ccb0ff37fedd8"])),
    ("pool:ero:16+model:0.6", "sha256:3", Digests(["fec61da63c385428", "fec61da63c385428", "c433a55d62af25da", "c433a55d62af25da"])),
    ("pool:ero:16+model:0.6", "xor:2", Digests(["e6b670e068e0e900", "e6b670e068e0e900", "454a4288ce5e3846", "454a4288ce5e3846"])),
    ("pool:ero:16+model:0.6", "vn", Digests(["2cac60edd0b10994", "2cac60edd0b10994", "a9a6d6fe7a161006", "a9a6d6fe7a161006"])),
    ("pool:ero:16+model:0.6", "xor:2,sha256", Digests(["25441de93342f551", "25441de93342f551", "0d7a3a1a15f22374", "0d7a3a1a15f22374"])),
];

/// The record walk (`ero:64:date14`) on the conditioners it streams through; the
/// raw, `xor:2` and `vn` pairs fail the startup battery.
#[rustfmt::skip]
const RECORD_WALK: [(&str, &str, Expect); 3] = [
    ("ero:64:date14", "sha256", Digests(["ea64836489fdc50e", "6f31e745dc9c421c", "a87883259914dd3d", "e8353e6c2be5e7a8"])),
    ("ero:64:date14", "sha256:3", Digests(["e5b421dc0af1a04b", "4c895ce60fcdddfa", "8a17bc700425bd04", "aec3b6291f119e26"])),
    ("ero:64:date14", "xor:2,sha256", Digests(["26c9b3245de99e39", "c1fbe4fb0b759e2c", "6ea46b78fd80ed0e", "70e08bc9f6e351a8"])),
];

/// The first 16 hex digits of each shard's first [`BUDGET`] bytes in a two-shard
/// `ero:16:strong` + `sha256` engine at seed 7.
const TWO_SHARDS: [&str; 2] = ["00a26d5695aa1150", "a729ae44236f6772"];

fn config(source: &str, conditioner: &str, seed: u64, batch_bits: usize) -> EngineConfig {
    EngineConfig::new(SourceSpec::parse(source).unwrap())
        .seed(seed)
        .batch_bits(batch_bits)
        .conditioner(ConditionerSpec::parse(conditioner).unwrap())
        .health(HealthConfig::default())
}

/// The hex SHA-256 of a one-shard run's output, or the alarm that ended it.
fn run(source: &str, conditioner: &str, seed: u64, batch_bits: usize, budget: u64) -> String {
    serve(
        config(source, conditioner, seed, batch_bits)
            .shards(1)
            .budget_bytes(Some(budget)),
    )
}

/// The hex SHA-256 of an engine's output, or the alarm that ended it.
fn serve(config: EngineConfig) -> String {
    let mut engine = Engine::spawn(config).unwrap();
    let outcome = engine.read_to_end();
    engine.join().unwrap();
    match outcome {
        Ok(bytes) => hex(&Sha256::digest(&bytes)),
        Err(alarm) => alarm.to_string(),
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Runs every pair of `table` at both seeds and batch sizes and lists the mismatches.
fn check(table: &[(&str, &str, Expect)]) {
    let mut mismatches = Vec::new();
    for (source, conditioner, expect) in table {
        let runs = SEEDS
            .iter()
            .flat_map(|&seed| BATCH_BITS.map(|batch_bits| (seed, batch_bits)));
        for (index, (seed, batch_bits)) in runs.enumerate() {
            let got = run(source, conditioner, seed, batch_bits, BUDGET);
            let matches = match expect {
                Digests(digests) => got.starts_with(digests[index]),
                Alarm(alarm) => got == *alarm,
            };
            if !matches {
                mismatches.push(format!(
                    "{source} + {conditioner}, seed {seed}, {batch_bits}-bit batches: {got}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn ptrngd_anchor_digests() {
    for (source, conditioner, batch_bits, budget, digest) in ANCHORS {
        assert_eq!(
            run(source, conditioner, 7, batch_bits, budget),
            digest,
            "{source} + {conditioner}, {batch_bits}-bit batches, {budget} bytes"
        );
    }
}

#[test]
fn ptrngd_anchor_digests_with_the_thermal_lane_on() {
    // Every batch sweeps, against the rings' own thermal jitter.
    let rings = JitterProfile::Strong.ero_config(16).unwrap();
    let relative = rings.sampled.relative_to(&rings.sampling).unwrap();
    let thermal =
        OnlineTestConfig::new(relative.frequency(), relative.thermal_period_jitter(), 0.5).unwrap();
    let anchors = ANCHORS.iter().filter(|anchor| anchor.0 == "ero:16:strong");
    for &(source, conditioner, batch_bits, budget, digest) in anchors {
        let mut config = config(source, conditioner, 7, batch_bits)
            .shards(1)
            .budget_bytes(Some(budget))
            .health(HealthConfig::default().with_thermal(thermal.clone()));
        config.thermal_check_batches = 1;
        assert_eq!(
            serve(config),
            digest,
            "{source} + {conditioner}, {batch_bits}-bit batches, {budget} bytes"
        );
    }
}

#[test]
fn every_pair_serves_its_pinned_bytes() {
    check(&MATRIX);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the record walk simulates every ring period (about 2 min unoptimised); \
              run with --release"
)]
fn record_walk_pairs_serve_their_pinned_bytes() {
    check(&RECORD_WALK);
}

#[test]
fn two_shards_serve_their_pinned_bytes_per_shard() {
    // Unbudgeted: a shared budget splits by timing, so draw until each shard has
    // published BUDGET bytes, then shut down.
    let mut engine = Engine::spawn(config("ero:16:strong", "sha256", 7, 8192).shards(2)).unwrap();
    let mut per_shard = vec![Vec::new(); 2];
    let deadline = Instant::now() + Duration::from_secs(120);
    while per_shard.iter().any(|shard| shard.len() < BUDGET as usize) {
        assert!(Instant::now() < deadline, "a shard starved");
        let batch = engine.stream_mut().next().unwrap().unwrap();
        per_shard[batch.shard].extend_from_slice(&batch.bytes);
    }
    engine.join().unwrap();
    for (shard, (bytes, digest)) in per_shard.iter().zip(TWO_SHARDS).enumerate() {
        let got = hex(&Sha256::digest(&bytes[..BUDGET as usize]));
        assert!(got.starts_with(digest), "shard {shard}: {got}");
    }
}

//! Concurrency properties of the multi-consumer [`ptrng_engine::tap::EntropyTap`]:
//! bytes drawn by any number of racing threads are exactly the engine's stream —
//! nothing duplicated, nothing lost — including across a shard-alarm event.
//!
//! Identity is checked at 64-bit-word granularity: every draw holds the tap lock
//! for its whole fill, so each draw removes one *contiguous* multiple-of-8 segment
//! of the global stream, and batches are multiples of 8 bytes — so 8-byte words
//! never straddle a consumer boundary and the multiset of drawn words must embed
//! into the multiset of words of the per-shard reference streams.  Words are 64
//! bits of model-source output, so cross-shard word collisions are (deterministic
//! seed aside) a 2⁻⁶⁴-scale event — any duplication or loss by the tap moves whole
//! kilobyte batches and is caught immediately.

use std::collections::HashMap;

use ptrng_engine::fault::FaultPlan;
use ptrng_engine::health::HealthConfig;
use ptrng_engine::metrics::AlarmKind;
use ptrng_engine::pool::{Engine, EngineConfig};
use ptrng_engine::pooled::PoolOptions;
use ptrng_engine::source::{derive_seed, SourceSpec};
use ptrng_engine::stream::BitPacker;
use ptrng_engine::tap::EntropyTap;

const SEED: u64 = 29;

/// Rebuilds shard `shard`'s published byte stream from first principles: the same
/// derived-seed source, the same bit-packing, no engine in between.
fn reference_shard_stream(spec: &SourceSpec, seed: u64, shard: usize, bytes: usize) -> Vec<u8> {
    let mut source = spec
        .build(derive_seed(seed, shard as u64))
        .expect("source builds");
    let mut packer = BitPacker::new();
    let mut bits = vec![0u8; 8192];
    let mut out = Vec::new();
    while out.len() < bytes {
        source.fill_bits(&mut bits).expect("bits flow");
        packer.push_bits(&bits);
        out.extend_from_slice(&packer.drain_bytes());
    }
    out.truncate(bytes);
    out
}

fn words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks_exact(8).map(|w| {
        let mut array = [0u8; 8];
        array.copy_from_slice(w);
        u64::from_be_bytes(array)
    })
}

/// Drains the tap from `threads` racing consumers with varied multiple-of-8 draw
/// sizes; returns every thread's concatenated draws.
fn drain_concurrently(tap: &EntropyTap, threads: usize) -> Vec<Vec<u8>> {
    let draw_sizes = [4096usize, 1024, 256, 2048];
    let handles: Vec<_> = (0..threads)
        .map(|thread| {
            let tap = tap.clone();
            let size = draw_sizes[thread % draw_sizes.len()];
            std::thread::spawn(move || {
                let mut collected = Vec::new();
                loop {
                    let mut out = vec![0u8; size];
                    let drawn = tap.draw(&mut out);
                    collected.extend_from_slice(&out[..drawn]);
                    if drawn == 0 {
                        return collected;
                    }
                }
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|handle| handle.join().expect("consumer thread joins"))
        .collect()
}

/// Multiset-subtracts `drawn` from `expected`; panics on any word the reference
/// streams cannot supply (duplication or corruption).
fn check_embedding(expected: &mut HashMap<u64, i64>, drawn: &[Vec<u8>]) {
    for (thread, bytes) in drawn.iter().enumerate() {
        assert_eq!(bytes.len() % 8, 0, "thread {thread} drew a ragged length");
        for word in words(bytes) {
            let count = expected
                .entry(word)
                .or_insert_with(|| panic!("thread {thread} drew {word:#018x}, never generated"));
            *count -= 1;
            assert!(
                *count >= 0,
                "word {word:#018x} drawn more often than generated (duplication)"
            );
        }
    }
}

#[test]
fn concurrent_draws_partition_the_stream_exactly() {
    let spec = SourceSpec::model(0.5).unwrap();
    const BUDGET: usize = 24 * 1024; // 24 whole 1024-byte batches.
    let config = EngineConfig::new(spec.clone())
        .shards(3)
        .seed(SEED)
        .budget_bytes(Some(BUDGET as u64))
        .health(HealthConfig::default().without_startup_battery());
    let tap = Engine::spawn(config).unwrap().into_tap();

    let drawn = drain_concurrently(&tap, 4);
    tap.shutdown().unwrap();

    // No loss: the union of all draws is exactly the budget.
    let total: usize = drawn.iter().map(Vec::len).sum();
    assert_eq!(total, BUDGET);

    // No duplication / corruption: every drawn word embeds into the per-shard
    // reference streams (each shard can have produced at most the whole budget).
    let mut expected: HashMap<u64, i64> = HashMap::new();
    for shard in 0..3 {
        for word in words(&reference_shard_stream(&spec, SEED, shard, BUDGET)) {
            *expected.entry(word).or_insert(0) += 1;
        }
    }
    check_embedding(&mut expected, &drawn);
}

/// Racing consumers across a full pool quarantine/reinstatement cycle: the
/// non-terminal lifecycle events must not perturb the tap's exactly-once
/// delivery.  The reference run (single-threaded) and the concurrent run share
/// one deterministic config, so the drawn multiset must equal the reference
/// stream to the word — no loss while the child is quarantined, no replay
/// around the reinstatement.
#[test]
fn concurrent_draws_survive_a_quarantine_and_reinstatement_without_loss_or_replay() {
    const BUDGET: usize = 32 * 1024;
    let spec = match SourceSpec::parse("pool:model:0.6+model:0.6+model:0.6").unwrap() {
        SourceSpec::Pool { children, .. } => SourceSpec::Pool {
            children,
            options: PoolOptions {
                quarantine_draws: 2,
                probation_draws: 4,
                // Deterministic drills only: no wall-clock watchdog.
                stall_ms: None,
                ..PoolOptions::default()
            },
        },
        other => panic!("expected a pool spec, parsed {other:?}"),
    };
    let config = || {
        EngineConfig::new(spec.clone())
            .seed(61)
            .budget_bytes(Some(BUDGET as u64))
            .health(HealthConfig::default().without_startup_battery())
            .fault(Some(
                FaultPlan::parse("child=1,kind=stuck,at=2KiB,for=1KiB").unwrap(),
            ))
    };

    // Reference run: the deterministic published stream across the whole cycle.
    let mut reference = Engine::spawn(config()).unwrap();
    let mut published = Vec::new();
    for batch in reference.stream_mut() {
        published.extend_from_slice(&batch.expect("the drill is non-terminal").bytes);
    }
    reference.join().unwrap();
    assert_eq!(published.len(), BUDGET);

    // Concurrent run: racing consumers across the quarantine and reinstatement.
    let tap = Engine::spawn(config()).unwrap().into_tap();
    let drawn = drain_concurrently(&tap, 4);

    // The lifecycle is on the alarm trail, but the shard never terminally
    // alarmed and kept serving throughout.
    let kinds: Vec<AlarmKind> = tap.alarms().iter().map(|a| a.kind).collect();
    assert!(
        kinds.contains(&AlarmKind::SourceQuarantined),
        "no quarantine on the trail: {kinds:?}"
    );
    assert!(
        kinds.contains(&AlarmKind::SourceReinstated),
        "no reinstatement on the trail: {kinds:?}"
    );
    assert!(
        kinds.iter().all(|kind| !kind.is_terminal()),
        "the drill must stay non-terminal: {kinds:?}"
    );
    assert_eq!(tap.alarm_count(), kinds.len(), "trail and counter agree");
    tap.shutdown().unwrap();

    // Exactly-once delivery: the union of the racing draws is the reference
    // stream, word for word.
    let total: usize = drawn.iter().map(Vec::len).sum();
    assert_eq!(total, BUDGET);
    let mut expected: HashMap<u64, i64> = HashMap::new();
    for word in words(&published) {
        *expected.entry(word).or_insert(0) += 1;
    }
    check_embedding(&mut expected, &drawn);
    assert!(
        expected.values().all(|&count| count == 0),
        "bytes published across the cycle never reached any consumer (loss)"
    );
}

#[test]
fn concurrent_draws_survive_a_shard_alarm_without_loss_or_replay() {
    // A stuck source: every shard trips the repetition-count test after a
    // deterministic number of batches.  What was published *before* each alarm
    // must still reach consumers exactly once; afterwards draws return short.
    let spec = SourceSpec::model(0.9999).unwrap();
    let config = || {
        EngineConfig::new(spec.clone())
            .shards(2)
            .seed(3)
            .health(HealthConfig::default().without_startup_battery())
    };

    // Reference run, drained single-threaded with shard attribution: per-shard
    // pre-alarm output is deterministic even though interleaving is not.
    let mut reference = Engine::spawn(config()).unwrap();
    let mut per_shard: Vec<Vec<u8>> = vec![Vec::new(); 2];
    let mut alarms = 0usize;
    for batch in reference.stream_mut() {
        match batch {
            Ok(batch) => per_shard[batch.shard].extend_from_slice(&batch.bytes),
            Err(_) => alarms += 1,
        }
    }
    reference.join().unwrap();
    assert_eq!(alarms, 2, "both shards alarm in the reference run");
    let reference_total: usize = per_shard.iter().map(Vec::len).sum();

    // Concurrent run: racing consumers across the alarm events.
    let tap = Engine::spawn(config()).unwrap().into_tap();
    let drawn = drain_concurrently(&tap, 4);
    assert_eq!(tap.live_shards(), 0, "every shard has alarmed");
    assert_eq!(tap.alarm_count(), 2);
    let mut final_draw = [0u8; 64];
    assert_eq!(tap.draw(&mut final_draw), 0, "a dead stream yields nothing");
    tap.shutdown().unwrap();

    // Exactly the reference bytes: pre-alarm output is neither lost nor replayed.
    let total: usize = drawn.iter().map(Vec::len).sum();
    assert_eq!(total, reference_total);
    let mut expected: HashMap<u64, i64> = HashMap::new();
    for shard in &per_shard {
        for word in words(shard) {
            *expected.entry(word).or_insert(0) += 1;
        }
    }
    check_embedding(&mut expected, &drawn);
    assert!(
        expected.values().all(|&count| count == 0),
        "bytes published before the alarms never reached any consumer (loss)"
    );
}

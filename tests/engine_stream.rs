//! Integration tests of the generation runtime: sharded streaming, budget accounting,
//! shard independence, statistical quality of the emitted bytes, and the health layer's
//! reaction to a frequency-injection-style jitter collapse.

use ptrng::ais::fips;
use ptrng::engine::audit::AuditConfig;
use ptrng::engine::fault::FaultPlan;
use ptrng::engine::health::{AlarmReason, HealthConfig, HealthMonitor, HealthState};
use ptrng::engine::metrics::AlarmKind;
use ptrng::engine::pool::{ConditionerSpec, Engine, EngineConfig};
use ptrng::engine::pooled::PoolOptions;
use ptrng::engine::source::{JitterProfile, SourceSpec};
use ptrng::engine::stream::unpack_bits;
use ptrng::engine::EngineError;
use ptrng::obs::EventKind;
use ptrng::osc::model::AccumulationModel;
use ptrng::osc::phase::PhaseNoiseModel;
use ptrng::trng::online::OnlineTestConfig;

const MEBIBYTE: u64 = 1 << 20;

/// The acceptance scenario: a 4-shard engine streams a full mebibyte; distinct shards
/// emit distinct streams (independent seeding) and the aggregate passes the FIPS
/// 140-2 battery.
#[test]
fn four_shards_stream_a_mebibyte_that_passes_fips() {
    let config = EngineConfig::new(SourceSpec::model(0.5).unwrap())
        .shards(4)
        .seed(2014)
        .budget_bytes(Some(MEBIBYTE));
    let mut engine = Engine::spawn(config).unwrap();

    let mut total = Vec::with_capacity(MEBIBYTE as usize);
    let mut per_shard: Vec<Vec<u8>> = vec![Vec::new(); 4];
    for batch in engine.stream_mut() {
        let batch = batch.expect("no alarm expected from an unbiased source");
        per_shard[batch.shard].extend_from_slice(&batch.bytes);
        total.extend_from_slice(&batch.bytes);
    }
    engine.join().unwrap();

    // Budget exact to the byte, across all shards.
    assert_eq!(total.len() as u64, MEBIBYTE);

    // Every shard contributed, and no two shards emitted the same prefix.
    for (i, shard) in per_shard.iter().enumerate() {
        assert!(
            shard.len() > 1024,
            "shard {i} starved ({} bytes)",
            shard.len()
        );
    }
    for a in 0..per_shard.len() {
        for b in (a + 1)..per_shard.len() {
            let len = per_shard[a].len().min(per_shard[b].len());
            assert_ne!(
                per_shard[a][..len],
                per_shard[b][..len],
                "shards {a}/{b} identical"
            );
        }
    }

    // FIPS 140-2 battery over consecutive 20 000-bit blocks of the aggregate stream.
    let bits = unpack_bits(&total[..(5 * fips::FIPS_BLOCK_BITS) / 8]);
    for (block_idx, block) in bits.chunks_exact(fips::FIPS_BLOCK_BITS).enumerate() {
        for result in fips::run_all(block).unwrap() {
            assert!(
                result.passed,
                "block {block_idx}: {} failed with statistic {}",
                result.name, result.statistic
            );
        }
    }
}

/// The physically-simulated source also streams through the full pipeline: XOR
/// post-processing cleans the residual bias of a small-division eRO-TRNG far enough to
/// pass the startup battery and the continuous tests.
#[test]
fn simulated_ero_shards_survive_health_monitoring() {
    let spec = SourceSpec::ero(8, JitterProfile::Strong).unwrap();
    let config = EngineConfig::new(spec)
        .shards(2)
        .seed(7)
        .batch_bits(8192)
        // Factor 4: adjacent-bit XOR (factor 2) would convert the raw stream's ~1%
        // lag-1 correlation into output bias near the FIPS monobit boundary.
        .conditioner(ConditionerSpec::xor(4))
        // Startup battery on: the first 20 000 output bits are vetted before publishing.
        .budget_bytes(Some(8 * 1024));
    let mut engine = Engine::spawn(config).unwrap();
    let bytes = engine.read_to_end().expect("healthy source must not alarm");
    let snapshot = engine.metrics().snapshot();
    engine.join().unwrap();

    assert_eq!(bytes.len(), 8 * 1024);
    assert!(
        snapshot.total_raw_bits >= 2 * 20_000,
        "startup battery was skipped"
    );
    let bits = unpack_bits(&bytes);
    let ones: usize = bits.iter().map(|&b| b as usize).sum();
    let p = ones as f64 / bits.len() as f64;
    assert!(
        (p - 0.5).abs() < 0.02,
        "post-processed bias too large: p(1) = {p}"
    );
}

/// The acceptance scenario for the conditioning pipeline: the physically-simulated
/// eRO-TRNG streamed through the SHA-256 vetted conditioner under a strict emission
/// policy (`--min-h 0.997`) produces zero alarms, full-entropy accounting and
/// FIPS-clean output.
#[test]
fn sha256_conditioned_ero_streams_under_a_strict_emission_policy() {
    let spec = SourceSpec::ero(16, JitterProfile::Strong).unwrap();
    let config = EngineConfig::new(spec)
        .shards(2)
        .seed(9)
        .batch_bits(8192)
        .conditioner(ConditionerSpec::parse("sha256").unwrap())
        .min_output_entropy(Some(0.997))
        .budget_bytes(Some(8 * 1024));
    let mut engine = Engine::spawn(config).expect("the accounted entropy meets the policy");
    let bytes = engine.read_to_end().expect("no alarm expected");
    let snapshot = engine.metrics().snapshot();
    engine.join().unwrap();

    assert_eq!(bytes.len(), 8 * 1024);
    assert_eq!(snapshot.alarms, 0);
    for shard in &snapshot.per_shard {
        assert!(
            shard.entropy_per_output_bit >= 0.997,
            "shard {} accounted only {} bits/bit",
            shard.shard,
            shard.entropy_per_output_bit
        );
    }
    assert!(snapshot.total_accounted_entropy_bits >= 0.997 * 8.0 * 8.0 * 1024.0);

    // The conditioned stream is FIPS-clean.
    let bits = unpack_bits(&bytes[..fips::FIPS_BLOCK_BITS / 8]);
    for result in fips::run_all(&bits).unwrap() {
        assert!(result.passed, "{} failed", result.name);
    }
}

/// The emission-refusal path: a thermally-collapsed (degraded stochastic-model)
/// source cannot account 0.997 bits per conditioned bit even through the vetted
/// conditioner, so the engine refuses to emit instead of overclaiming.
#[test]
fn degraded_model_source_is_refused_under_the_emission_policy() {
    let config = EngineConfig::new(SourceSpec::model(0.95).unwrap())
        .seed(4)
        .conditioner(ConditionerSpec::parse("sha256").unwrap())
        .min_output_entropy(Some(0.997))
        .budget_bytes(Some(4096));
    match Engine::spawn(config) {
        Err(EngineError::EntropyDeficit {
            accounted,
            required,
            ledger,
            ..
        }) => {
            assert!(accounted < required);
            // The typed ledger renders the refusal for humans (Display) and
            // machines (canonical JSON) alike.
            assert!(
                ledger.to_string().contains("model(p_one=0.95)"),
                "ledger must name the source: {ledger}"
            );
            assert!(ledger.to_json().contains("model(p_one=0.95)"));
        }
        Err(other) => panic!("expected an entropy deficit, got {other}"),
        Ok(_) => panic!("expected an entropy deficit, engine spawned"),
    }
}

/// A heavily biased source is rejected by the engine's continuous tests and surfaces
/// as a stream error, not silent bad output.
#[test]
fn biased_source_alarms_instead_of_streaming() {
    let config = EngineConfig::new(SourceSpec::model(0.95).unwrap())
        .seed(1)
        .budget_bytes(Some(MEBIBYTE))
        .health(
            HealthConfig::default()
                .without_startup_battery()
                .with_min_entropy(0.999),
        );
    let mut engine = Engine::spawn(config).unwrap();
    let result = engine.read_to_end();
    engine.join().unwrap();
    assert!(
        matches!(result, Err(EngineError::HealthAlarm { shard: 0, .. })),
        "expected a health alarm, got {result:?}"
    );
}

/// The thermal online test is wired through the engine itself: shard workers
/// periodically read `σ²_N` sweeps off the walk's own edge counter.  With
/// a commissioning reference matching the design, the stream flows; with a reference
/// ten times the actual jitter (i.e. the deployed rings accumulate 100× less jitter
/// variance than commissioned — a locked/injected device), the shard alarms; and a
/// batch too short to resolve two sweep depths fails the shard closed.
#[test]
fn engine_runs_the_thermal_online_test_against_its_sources() {
    let sampled = PhaseNoiseModel::new(1.2e6, 0.0, 103.0e6).unwrap();
    let sampling = PhaseNoiseModel::new(1.2e6, 0.0, 102.3e6).unwrap();
    let relative = sampled.relative_to(&sampling).unwrap();
    let spec = SourceSpec::ero(2, JitterProfile::Strong).unwrap();

    let run = |reference: f64, batch_bits: usize| {
        let thermal = OnlineTestConfig::new(relative.frequency(), reference, 0.5).unwrap();
        let mut config = EngineConfig::new(spec.clone())
            .seed(11)
            .batch_bits(batch_bits)
            .budget_bytes(Some(2048))
            .health(
                HealthConfig::default()
                    .without_startup_battery()
                    .with_thermal(thermal),
            );
        config.thermal_check_batches = 1;
        let mut engine = Engine::spawn(config).unwrap();
        let result = engine.read_to_end();
        let obs = std::sync::Arc::clone(engine.observatory());
        engine.join().unwrap();
        (result, obs)
    };

    let (healthy, obs) = run(relative.thermal_period_jitter(), 4096);
    assert_eq!(healthy.unwrap().len(), 2048);
    assert!(obs.postmortems().is_empty(), "no alarm, no postmortem");

    let (short, _) = run(relative.thermal_period_jitter(), 256);
    match short {
        Err(EngineError::HealthAlarm { kind, reason, .. }) => {
            assert_eq!(kind, AlarmKind::SourceFailure, "{reason}");
            assert!(reason.contains("thermal fit failed"), "{reason}");
        }
        other => panic!("expected a failed thermal fit, got {other:?}"),
    }

    let (attacked, obs) = run(relative.thermal_period_jitter() * 10.0, 4096);
    match attacked {
        Err(EngineError::HealthAlarm { kind, reason, .. }) => {
            assert_eq!(kind, AlarmKind::Thermal, "unexpected alarm: {reason}");
            assert!(reason.contains("thermal"), "unexpected alarm: {reason}");
        }
        other => panic!("expected a thermal alarm, got {other:?}"),
    }
    // The alarm left a postmortem carrying the shard's pre-alarm flight-recorder
    // timeline (the debounced thermal test needs two strikes, so at least one
    // batch was generated and recorded before the alarm latched).
    let postmortems = obs.postmortems().snapshot();
    let postmortem = postmortems
        .iter()
        .find(|p| p.kind == "thermal")
        .unwrap_or_else(|| panic!("no thermal postmortem in {postmortems:?}"));
    assert!(postmortem.reason.contains("thermal"), "{postmortem:?}");
    assert!(
        postmortem
            .events
            .iter()
            .any(|e| e.kind == EventKind::BatchGenerated && e.t_ns <= postmortem.t_ns),
        "no pre-alarm batch event: {:?}",
        postmortem.events
    );
    assert!(
        postmortem
            .events
            .iter()
            .any(|e| e.kind == EventKind::Alarm && e.value == AlarmKind::Thermal as u64),
        "{:?}",
        postmortem.events
    );
}

/// Rebuilds a parsed pool spec with drill-friendly quarantine tuning (short
/// cooldown and probation so a full quarantine → probation → reinstatement
/// cycle fits in a few dozen batches).
fn fast_pool_spec(text: &str) -> SourceSpec {
    match SourceSpec::parse(text).unwrap() {
        SourceSpec::Pool { children, .. } => SourceSpec::Pool {
            children,
            options: PoolOptions {
                quarantine_draws: 2,
                probation_draws: 4,
                stall_ms: None,
                ..PoolOptions::default()
            },
        },
        other => panic!("expected a pool spec, parsed {other:?}"),
    }
}

/// The full fault drill through the engine: a three-child pool with a scripted
/// stuck window on child 1 keeps streaming (fault absorbed, no stream error),
/// the quarantine and the reinstatement surface as non-terminal postmortems,
/// the accounted per-output-bit entropy dips while the child is out of the mix
/// and recovers once it is reinstated.
#[test]
fn pool_stuck_fault_drill_quarantines_reaccounts_and_reinstates() {
    // Three equally-biased children: each claims −log₂(0.6) ≈ 0.737 bits/bit,
    // the three-way XOR mix ≈ 0.9885, the two-way mix (one child out) ≈ 0.9434.
    let spec = fast_pool_spec("pool:model:0.6+model:0.6+model:0.6");
    let mut config = EngineConfig::new(spec)
        .seed(41)
        .batch_bits(8192)
        .budget_bytes(Some(48 * 1024))
        .health(HealthConfig::default().without_startup_battery())
        .fault(Some(
            FaultPlan::parse("child=1,kind=stuck,at=2KiB,for=1KiB").unwrap(),
        ));
    // Tight queue: the worker runs at most two batches ahead of the consumer,
    // so sampling the shard metrics between batches reliably observes the
    // several-batch claim dip.
    config.queue_batches = 1;
    let mut engine = Engine::spawn(config).unwrap();

    let mut total = 0u64;
    let mut lowest_claim = f64::INFINITY;
    while let Some(batch) = engine.stream_mut().next() {
        let batch = batch.expect("the drill must not kill the stream");
        total += batch.bytes.len() as u64;
        let claim = engine.metrics().snapshot().per_shard[0].entropy_per_output_bit;
        lowest_claim = lowest_claim.min(claim);
    }
    let snapshot = engine.metrics().snapshot();
    let obs = std::sync::Arc::clone(engine.observatory());
    engine.join().unwrap();

    // The stream delivered the full budget despite the fault.
    assert_eq!(total, 48 * 1024);

    // Quarantine and reinstatement both left typed postmortems, in order.
    let postmortems = obs.postmortems().snapshot();
    let quarantined = postmortems
        .iter()
        .position(|p| p.kind == "source-quarantined")
        .expect("the stuck child must be quarantined");
    let reinstated = postmortems
        .iter()
        .position(|p| p.kind == "source-reinstated")
        .expect("the recovered child must be reinstated");
    assert!(
        quarantined < reinstated,
        "quarantine precedes reinstatement"
    );
    assert!(
        postmortems[quarantined].reason.contains("child 1"),
        "postmortem names the child: {}",
        postmortems[quarantined].reason
    );

    // The ledger followed the pool honestly: while child 1 was out of the mix
    // the claim dropped to the two-child combination, and it recovered after
    // the reinstatement.
    assert!(
        lowest_claim < 0.96,
        "claim never dipped during quarantine: {lowest_claim}"
    );
    let final_claim = snapshot.per_shard[0].entropy_per_output_bit;
    assert!(
        final_claim > 0.98,
        "claim did not recover after reinstatement: {final_claim}"
    );

    // The metrics carry the per-child trajectory: one quarantine, one
    // reinstatement, back to serving.
    let child = snapshot
        .pool_children
        .iter()
        .find(|c| c.status.child == 1)
        .expect("child 1 is published in the snapshot");
    assert_eq!(child.status.state, "serving");
    assert_eq!(child.status.quarantines, 1);
    assert_eq!(child.status.reinstatements, 1);
}

/// The dead-ring drill: `xor:3` is a pool of three rings, so a ring that goes
/// stuck for good is quarantined alone (and relapses on every probation) while
/// the other two keep the stream going at the reduced credit.
#[test]
fn xor_rings_quarantine_a_dead_ring_and_keep_serving() {
    let config = EngineConfig::new(SourceSpec::parse("xor:3").unwrap())
        .seed(1)
        .budget_bytes(Some(64 * 1024))
        .fault(Some(
            FaultPlan::parse("child=1,at=16KiB,kind=stuck").unwrap(),
        ));
    let mut engine = Engine::spawn(config).unwrap();
    let bytes = engine
        .read_to_end()
        .expect("a dead ring must not end the stream");
    assert_eq!(bytes.len(), 64 * 1024);

    let snapshot = engine.metrics().snapshot();
    let ring = snapshot
        .pool_children
        .iter()
        .find(|c| c.status.child == 1)
        .expect("ring 1 is published in the snapshot");
    assert_ne!(ring.status.state, "serving", "{ring:?}");
    assert!(ring.status.quarantines >= 1, "{ring:?}");
    assert_eq!(ring.status.credited_entropy_per_bit, 0.0);

    let trail = engine.metrics().alarm_reasons();
    let quarantines: Vec<_> = trail
        .iter()
        .filter(|alarm| alarm.kind == AlarmKind::SourceQuarantined)
        .collect();
    assert!(!quarantines.is_empty(), "no quarantine in {trail:?}");
    for alarm in &quarantines {
        assert!(alarm.reason.starts_with("child 1 "), "{alarm:?}");
    }
    // `ptrng_alarms_total` counts every trail entry, non-terminal ones included.
    assert_eq!(engine.metrics().alarms(), trail.len() as u64);
    engine.join().unwrap();
}

/// Fail-closed: when every child is out of the mix (a scripted permanent fault
/// on one child, a natural health alarm on the other) the pool refuses to
/// fabricate output and the shard surfaces a terminal source failure instead of
/// silently streaming from nothing.
#[test]
fn pool_with_all_children_faulted_fails_closed_through_the_engine() {
    let spec = match SourceSpec::parse("pool:model:0.5+model:0.9999").unwrap() {
        SourceSpec::Pool { children, .. } => SourceSpec::Pool {
            children,
            options: PoolOptions {
                // Long cooldown: neither child comes back within the drill.
                quarantine_draws: 10_000,
                stall_ms: None,
                ..PoolOptions::default()
            },
        },
        other => panic!("expected a pool spec, parsed {other:?}"),
    };
    let config = EngineConfig::new(spec)
        .seed(5)
        .batch_bits(8192)
        .budget_bytes(Some(MEBIBYTE))
        .health(HealthConfig::default().without_startup_battery())
        .fault(Some(FaultPlan::parse("child=0,kind=stuck").unwrap()));
    let mut engine = Engine::spawn(config).unwrap();
    let result = engine.read_to_end();
    engine.join().unwrap();
    match result {
        Err(EngineError::HealthAlarm { kind, reason, .. }) => {
            assert_eq!(kind, AlarmKind::SourceFailure, "unexpected alarm: {reason}");
            // Both fail-closed paths name the quarantine: "no serving children
            // left" (drained over several batches) or "every serving child …
            // was quarantined within one batch".
            assert!(
                reason.contains("quarantined"),
                "unexpected reason: {reason}"
            );
        }
        other => panic!("expected a terminal source failure, got {other:?}"),
    }
}

/// `--audit-every-lane`: with the flag set, every shard runs its own pair of audit
/// lanes (`shardN/raw` / `shardN/conditioned`) and publishes both in the metrics
/// snapshot, instead of the default shard-0-only coverage.
#[test]
fn audit_every_lane_publishes_both_lanes_for_every_shard() {
    const SHARDS: usize = 4;
    let audit = AuditConfig::default().window_bits(1 << 15).margin(0.4);
    let config = EngineConfig::new(SourceSpec::model(0.5).unwrap())
        .shards(SHARDS)
        .seed(2014)
        // Non-identity chain so the conditioned lanes exist alongside the raw ones.
        .conditioner(ConditionerSpec::xor(2))
        .audit(Some(audit))
        .audit_every_lane(true)
        .budget_bytes(Some(64 * 1024))
        // The lane coverage is the point here, not the startup battery.
        .health(HealthConfig::default().without_startup_battery());
    let mut engine = Engine::spawn(config).unwrap();
    let bytes = engine
        .read_to_end()
        .expect("an honest claim must not alarm");
    let snap = engine.metrics().snapshot();
    let obs = std::sync::Arc::clone(engine.observatory());
    engine.join().unwrap();

    assert_eq!(bytes.len(), 64 * 1024);
    assert_eq!(snap.alarms, 0);
    // Every shard reports both of its lanes, each with at least one completed window.
    for shard in 0..SHARDS {
        for lane in [
            format!("shard{shard}/raw"),
            format!("shard{shard}/conditioned"),
        ] {
            let audit = snap
                .audits
                .iter()
                .find(|a| a.lane == lane)
                .unwrap_or_else(|| panic!("lane {lane} missing: {:?}", snap.audits));
            assert!(audit.windows >= 1, "lane {lane} completed no window");
            assert_eq!(audit.overclaims, 0, "lane {lane} overclaimed: {audit:?}");
            assert!(audit.last_estimate > 0.0, "lane {lane}: {audit:?}");
        }
    }
    // The per-estimator decomposition saw the windows too.
    assert!(
        obs.estimator_histograms()
            .iter()
            .any(|(name, histogram)| name == "compression" && histogram.count() > 0),
        "no per-estimator timings recorded"
    );
}

/// `--audit-every-lane` on a pool: every child's `pool-child-K` lane records its
/// windows through the shard's one audit hookup, under `shardN/pool-child-K`, so
/// the children's windows reach the metrics and the battery histogram.
#[test]
fn audit_every_lane_publishes_every_pool_child_lane() {
    let audit = AuditConfig::default().window_bits(1 << 15).margin(0.4);
    let config = EngineConfig::new(SourceSpec::parse("pool:model+model").unwrap())
        .seed(1)
        .audit(Some(audit))
        .audit_every_lane(true)
        .budget_bytes(Some(16 * 1024))
        .health(HealthConfig::default().without_startup_battery());
    let mut engine = Engine::spawn(config).unwrap();
    let bytes = engine
        .read_to_end()
        .expect("an honest claim must not alarm");
    let snap = engine.metrics().snapshot();
    let obs = std::sync::Arc::clone(engine.observatory());
    engine.join().unwrap();

    assert_eq!(bytes.len(), 16 * 1024);
    for lane in ["shard0/raw", "shard0/pool-child-0", "shard0/pool-child-1"] {
        let audit = snap
            .audits
            .iter()
            .find(|a| a.lane == lane)
            .unwrap_or_else(|| panic!("lane {lane} missing: {:?}", snap.audits));
        assert!(audit.windows >= 1, "lane {lane} completed no window");
        assert_eq!(audit.overclaims, 0, "lane {lane} overclaimed: {audit:?}");
    }
    // One battery sample per completed window, children included.
    let windows: u64 = snap.audits.iter().map(|a| a.windows).sum();
    assert_eq!(obs.audit_histogram().count(), windows, "{:?}", snap.audits);
}

/// `--audit-every-lane` closes the blind spot the default coverage leaves: an
/// overclaim occurring on a non-zero shard now trips that shard's own audit lane.
/// Without the flag only shard 0 is audited and shards 1..N stream unchecked.
#[test]
fn audit_every_lane_catches_an_overclaim_on_a_non_zero_shard() {
    let audit = AuditConfig::default().window_bits(1 << 14).claim(Some(0.9));
    let config = EngineConfig::new(SourceSpec::model(0.95).unwrap())
        .shards(4)
        .seed(17)
        .audit(Some(audit))
        .audit_every_lane(true)
        .budget_bytes(Some(MEBIBYTE))
        .health(HealthConfig::default().without_startup_battery());
    let mut engine = Engine::spawn(config).unwrap();
    let result = engine.read_to_end();
    assert!(
        matches!(result,
            Err(EngineError::HealthAlarm { kind: AlarmKind::AuditOverclaim, ref reason, .. })
                if reason.contains("entropy audit")),
        "expected an audit-overclaim alarm, got {result:?}"
    );

    // Every shard audits its own lane, so every shard alarms independently —
    // including the non-zero shards the default shard-0-only audit cannot see.
    // Alarms are recorded by the workers at alarm time; wait for the laggards.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let reasons = engine.metrics().alarm_reasons();
        if reasons
            .iter()
            .any(|a| a.shard != 0 && a.kind == AlarmKind::AuditOverclaim)
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no non-zero shard raised an audit-overclaim alarm: {reasons:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let snap = engine.metrics().snapshot();
    engine.join().unwrap();
    let overclaimed_shards: Vec<&str> = snap
        .audits
        .iter()
        .filter(|a| a.overclaims >= 1)
        .map(|a| a.lane.as_str())
        .collect();
    assert!(
        overclaimed_shards
            .iter()
            .any(|lane| !lane.starts_with("shard0/")),
        "only shard 0 flagged the overclaim: {overclaimed_shards:?}"
    );
}

/// A thermal test on a source without an edge counter is rejected up front instead of
/// being silently ignored.
#[test]
fn thermal_test_on_model_source_fails_fast() {
    let model = PhaseNoiseModel::date14_experiment();
    let thermal =
        OnlineTestConfig::new(model.frequency(), model.thermal_period_jitter(), 0.5).unwrap();
    // A pool, `xor:K` included, has no sweep of its own either, and the record walk of
    // a flicker profile does not count edges.
    for spec in ["model", "xor:2", "ero:64:date14"] {
        let config = EngineConfig::new(SourceSpec::parse(spec).unwrap())
            .health(HealthConfig::default().with_thermal(thermal.clone()));
        match Engine::spawn(config) {
            Err(EngineError::InvalidParameter { name, .. }) => assert_eq!(name, "health.thermal"),
            Err(other) => panic!("{spec}: unexpected error: {other}"),
            Ok(_) => panic!("thermal test on a `{spec}` source must be rejected"),
        }
    }
}

/// The paper's attack scenario: frequency injection locks the rings, collapsing the
/// thermal component of the relative jitter.  Feeding the monitor `σ²_N` sweeps scaled
/// down 100× must trip the (debounced) thermal alarm.
#[test]
fn frequency_injection_style_jitter_collapse_trips_the_alarm() {
    let model = PhaseNoiseModel::date14_experiment();
    let reference = model.thermal_period_jitter();
    let thermal = OnlineTestConfig::new(model.frequency(), reference, 0.5).unwrap();
    let config = HealthConfig::default()
        .without_startup_battery()
        .with_thermal(thermal);
    let ledger = ptrng::trng::conditioning::EntropyLedger::source("monitor test", 1.0).unwrap();
    let mut monitor = HealthMonitor::new(&config, &ledger).unwrap();

    let acc = AccumulationModel::new(model);
    let depths: Vec<f64> = vec![1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0];
    let healthy: Vec<f64> = depths.iter().map(|&n| acc.sigma2_n(n as usize)).collect();
    let attacked: Vec<f64> = healthy.iter().map(|v| v * 0.01).collect();

    monitor.observe_sigma2_points(&depths, &healthy).unwrap();
    assert_eq!(monitor.state(), &HealthState::Healthy);

    // The attack persists across evaluations → suspect, then latched alarm.
    monitor.observe_sigma2_points(&depths, &attacked).unwrap();
    assert_eq!(monitor.state(), &HealthState::Suspect { strikes: 1 });
    monitor.observe_sigma2_points(&depths, &attacked).unwrap();
    match monitor.state() {
        HealthState::Alarmed(AlarmReason::ThermalCollapse { ratio }) => {
            assert!(
                *ratio < 0.2,
                "collapsed ratio should be far below threshold: {ratio}"
            );
        }
        other => panic!("expected a latched thermal alarm, got {other:?}"),
    }
    assert!(!monitor.may_publish());
}

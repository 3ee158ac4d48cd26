//! The chaos scenarios end to end: a node dies under a mixed workload
//! (`kill_node`), or the fabric is transiently cut in two and must
//! re-converge (`partition`) — in both cases the capacity harness's own
//! SLO gates deliver the verdict.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pm2::Machine;
use pm2_workload::{
    register_services, run_kill_node, run_partition, RampConfig, Verdict, CHAOS_RESIDENTS,
};

fn scratch_dir(name: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pm2-chaos-{name}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn kill_node_under_load_passes_the_slo_gates() {
    let dir = scratch_dir("kill");
    let mut m = Machine::builder(4)
        .test_profile()
        .reply_deadline(Duration::from_secs(5))
        .spill_dir(&dir)
        .launch()
        .unwrap();
    register_services(&m);

    // A modest fixed rate: the gate should judge fault handling, not
    // saturation.  Generous drain/quiet windows keep CI machines honest.
    let cfg = RampConfig {
        round_duration: Duration::from_millis(300),
        drain_grace: Duration::from_secs(2),
        quiet_timeout: Duration::from_secs(10),
        ..RampConfig::default()
    };
    let rep = run_kill_node(&mut m, 1, &cfg, 50, 2).unwrap();

    assert!(rep.slo_ok(), "chaos drill broke an SLO: {}", rep.summary());
    assert_eq!(rep.baseline.verdict, Verdict::Pass, "{}", rep.summary());
    assert_eq!(rep.aftermath.verdict, Verdict::Pass, "{}", rep.summary());
    assert_eq!(rep.recovery.dead_node, 1);
    assert_eq!(
        rep.residents_recovered,
        CHAOS_RESIDENTS,
        "every checkpointed resident must survive the node: {}",
        rep.summary()
    );
    assert!(
        rep.checkpointed >= CHAOS_RESIDENTS as u32,
        "the checkpoint must at least cover the residents"
    );
    assert!(
        rep.recovery.slots_reclaimed > 0,
        "the corpse's slots must be reclaimed: {}",
        rep.summary()
    );

    // The ownership partition is whole again after the drill.
    m.audit().unwrap().check_partition().unwrap();
    m.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_partition_heals_and_reconverges_under_load() {
    // Detector armed with a timeout well beyond the cut window: the
    // drill must ride the partition out without declaring anyone dead.
    let mut m = Machine::builder(4)
        .test_profile()
        .reply_deadline(Duration::from_secs(5))
        .failure_timeout(Duration::from_secs(30))
        .heartbeat_every(Duration::from_millis(25))
        .launch()
        .unwrap();
    register_services(&m);

    let cfg = RampConfig {
        round_duration: Duration::from_millis(300),
        drain_grace: Duration::from_secs(2),
        quiet_timeout: Duration::from_secs(10),
        ..RampConfig::default()
    };
    let rep = run_partition(
        &mut m,
        &[0, 1],
        &[2, 3],
        Duration::from_millis(300),
        &cfg,
        50,
        2,
    )
    .unwrap();

    assert!(
        rep.slo_ok(),
        "partition drill broke an SLO: {}",
        rep.summary()
    );
    assert_eq!(rep.baseline.verdict, Verdict::Pass, "{}", rep.summary());
    assert_eq!(rep.aftermath.verdict, Verdict::Pass, "{}", rep.summary());
    assert_eq!(rep.false_deaths, 0, "{}", rep.summary());
    assert!(rep.wealth_converged, "{}", rep.summary());
    assert!(
        rep.messages_stalled > 0,
        "the cut must actually have stalled traffic: {}",
        rep.summary()
    );
    assert_eq!(
        rep.residents_recovered,
        CHAOS_RESIDENTS,
        "{}",
        rep.summary()
    );

    // The ownership partition (of slots, not links) is whole afterwards.
    m.audit().unwrap().check_partition().unwrap();
    m.shutdown();
}

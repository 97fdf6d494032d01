//! Fault-injection layer tests: transport faults must be *masked*
//! (bit-identical results, identical logical comm stats), and scheduled
//! crashes must tear the world down into a diagnosable
//! [`RunOutcome::Crashed`] instead of deadlocking or corrupting state.

use louvain_runtime::{
    run_with_config, run_with_config_faulted, CollectiveKind, FaultPlan, RankCtx, RunOutcome,
    RuntimeConfig,
};

/// An irregular all-to-all workload with enough packets for 1-in-N fault
/// rates to fire: every rank scatters tagged messages and folds what it
/// receives order-insensitively (sum), like the solver's sort-before-fold
/// phases.
fn scatter_workload(ctx: &mut RankCtx<'_, u64>) -> (u64, u64, f64) {
    let p = ctx.num_ranks() as u64;
    let rank = ctx.rank() as u64;
    let mut total = 0u64;
    let mut count = 0u64;
    for round in 0..4u64 {
        let mut ex = ctx.exchange();
        for i in 0..200u64 {
            ex.send(((rank + i + round) % p) as usize, rank * 10_000 + i);
        }
        ex.finish(|m| {
            total = total.wrapping_add(m);
            count += 1;
        });
    }
    let clock = ctx.sim_time_units();
    (total, count, clock)
}

fn cfg(ranks: usize) -> RuntimeConfig {
    RuntimeConfig {
        coalesce_capacity: 16,
        check_protocol: true,
        ..RuntimeConfig::new(ranks)
    }
}

#[test]
fn transport_faults_are_masked_bit_identically() {
    let (clean, clean_stats) = run_with_config::<u64, _, _>(cfg(4), scatter_workload);
    let plan = FaultPlan {
        seed: 42,
        drop_one_in: 3,
        duplicate_one_in: 3,
        delay_one_in: 3,
        ..FaultPlan::default()
    };
    match run_with_config_faulted::<u64, _, _>(cfg(4), &plan, scatter_workload) {
        RunOutcome::Completed {
            results,
            stats,
            faults,
            ..
        } => {
            assert_eq!(results, clean, "masked faults must not change results");
            assert_eq!(
                stats, clean_stats,
                "faults live on the wire, not in the logical comm stats"
            );
            assert!(
                faults.packets_dropped > 0
                    && faults.packets_duplicated > 0
                    && faults.packets_delayed > 0,
                "1-in-3 rates over hundreds of packets must fire: {faults:?}"
            );
            assert_eq!(faults.crashes, 0);
        }
        RunOutcome::Crashed { .. } => panic!("no crash was scheduled"),
    }
}

#[test]
fn transport_faults_replay_identically_per_seed() {
    let run = |seed: u64| match run_with_config_faulted::<u64, _, _>(
        cfg(4),
        &FaultPlan {
            seed,
            drop_one_in: 5,
            duplicate_one_in: 7,
            delay_one_in: 9,
            ..FaultPlan::default()
        },
        scatter_workload,
    ) {
        RunOutcome::Completed { faults, .. } => faults,
        RunOutcome::Crashed { .. } => panic!("no crash was scheduled"),
    };
    assert_eq!(run(11), run(11), "same seed must inject the same faults");
    assert_ne!(run(11), run(12), "different seeds must decorrelate");
}

#[test]
fn scheduled_crash_is_detected_and_reported() {
    // The workload's first sync lands well past clock 1.0, so the crash
    // fires at the first completed superstep.
    let plan = FaultPlan::crash(2, 1.0);
    match run_with_config_faulted::<u64, _, _>(cfg(4), &plan, scatter_workload) {
        RunOutcome::Crashed {
            rank,
            at_clock,
            faults,
        } => {
            assert_eq!(rank, 2);
            assert_eq!(at_clock.to_bits(), 1.0f64.to_bits());
            assert_eq!(faults.crashes, 1);
        }
        RunOutcome::Completed { .. } => panic!("scheduled crash never fired"),
    }
}

#[test]
fn disarmed_crash_completes_the_rerun() {
    let mut plan = FaultPlan::crash(1, 1.0);
    let RunOutcome::Crashed { rank, at_clock, .. } =
        run_with_config_faulted::<u64, _, _>(cfg(2), &plan, scatter_workload)
    else {
        panic!("scheduled crash never fired");
    };
    plan.disarm_crash(rank, at_clock);
    let (clean, _) = run_with_config::<u64, _, _>(cfg(2), scatter_workload);
    match run_with_config_faulted::<u64, _, _>(cfg(2), &plan, scatter_workload) {
        RunOutcome::Completed { results, .. } => {
            assert_eq!(results, clean, "rerun after disarm must be clean");
        }
        RunOutcome::Crashed { .. } => panic!("disarmed crash fired again"),
    }
}

#[test]
fn crash_at_the_final_sync_is_still_reported() {
    // The victim dies at the program's last sim_sync; survivors reach
    // their Shutdown entry normally, the victim joins it from its
    // unwind path, and the run still reports Crashed (results void).
    let work = |ctx: &mut RankCtx<'_, u64>| {
        ctx.charge(10.0);
        ctx.sim_time_units()
    };
    let plan = FaultPlan::crash(0, 1.0);
    match run_with_config_faulted::<u64, _, _>(cfg(3), &plan, work) {
        RunOutcome::Crashed { rank, .. } => assert_eq!(rank, 0),
        RunOutcome::Completed { .. } => panic!("crash at final sync lost"),
    }
}

#[test]
fn crash_on_a_single_rank_world_is_reported() {
    let work = |ctx: &mut RankCtx<'_, u64>| {
        ctx.charge(10.0);
        ctx.sim_time_units()
    };
    let plan = FaultPlan::crash(0, 1.0);
    match run_with_config_faulted::<u64, _, _>(cfg(1), &plan, work) {
        RunOutcome::Crashed { rank, .. } => assert_eq!(rank, 0),
        RunOutcome::Completed { .. } => panic!("crash lost on p=1"),
    }
}

#[test]
fn recorded_protocol_log_is_seedable() {
    // seed_protocol_log splices a checkpointed prefix under the freshly
    // recorded suffix — the mechanism checkpoint restore uses to keep
    // recovered protocol logs bit-identical to fault-free ones.
    let cfg = RuntimeConfig {
        record_protocol: true,
        ..RuntimeConfig::new(2)
    };
    let outcome = run_with_config_faulted::<u64, _, _>(cfg, &FaultPlan::default(), |ctx| {
        ctx.seed_protocol_log(&[CollectiveKind::Barrier, CollectiveKind::SimSync]);
        ctx.barrier();
        assert_eq!(
            ctx.protocol_log_snapshot(),
            vec![
                CollectiveKind::Barrier,
                CollectiveKind::SimSync,
                CollectiveKind::Barrier
            ]
        );
    });
    let RunOutcome::Completed { logs, .. } = outcome else {
        panic!("the empty plan schedules no crash");
    };
    for log in logs {
        assert_eq!(
            log,
            vec![
                CollectiveKind::Barrier,
                CollectiveKind::SimSync,
                CollectiveKind::Barrier,
                CollectiveKind::Shutdown
            ]
        );
    }
}

#[test]
fn collective_kind_names_round_trip() {
    for kind in [
        CollectiveKind::Idle,
        CollectiveKind::Barrier,
        CollectiveKind::ReduceF64,
        CollectiveKind::ReduceU64,
        CollectiveKind::AllreduceSumVec,
        CollectiveKind::AllgatherF64,
        CollectiveKind::SimSync,
        CollectiveKind::Exchange,
        CollectiveKind::Shutdown,
    ] {
        assert_eq!(CollectiveKind::parse(kind.name()), Some(kind));
    }
    assert_eq!(CollectiveKind::parse("NotACollective"), None);
}

//! Platform-level tests: session behaviour across policies, determinism,
//! the trace/observer layer, and calendar FIFO stability for platform
//! events.

use super::*;
use crate::config::{RewardKind, VariableParams};
use scan_cloud::tier::TierId;
use scan_cloud::vm::VmId;
use scan_sched::scaling::ScalingPolicy;
use scan_sim::{JsonlWriter, NullObserver, Observer, RingBuffer, TraceEvent};
use scan_workload::job::JobId;
use std::cell::RefCell;
use std::rc::Rc;

fn short_config(scaling: ScalingPolicy, interval: f64) -> ScanConfig {
    let mut cfg = ScanConfig::new(VariableParams::fig4(scaling, interval), 99);
    cfg.fixed.sim_time_tu = 300.0;
    cfg
}

fn run(cfg: ScanConfig) -> SessionMetrics {
    Platform::new(cfg, 0).run()
}

#[test]
fn session_completes_jobs() {
    let m = run(short_config(ScalingPolicy::Predictive, 2.5));
    assert!(m.jobs_submitted > 200, "submitted {}", m.jobs_submitted);
    assert!(m.jobs_completed > 0, "completed {}", m.jobs_completed);
    assert!(m.completion_rate() > 0.5, "completion {}", m.completion_rate());
    assert!(m.total_cost > 0.0);
    assert!(m.mean_latency > 0.0);
    assert!(m.events > 1000);
}

#[test]
fn sessions_are_deterministic() {
    let a = run(short_config(ScalingPolicy::Predictive, 2.5));
    let b = run(short_config(ScalingPolicy::Predictive, 2.5));
    assert_eq!(a, b, "same seed must give bit-identical metrics");
}

#[test]
fn repetitions_differ() {
    let cfg = short_config(ScalingPolicy::Predictive, 2.5);
    let a = Platform::new(cfg.clone(), 0).run();
    let b = Platform::new(cfg, 1).run();
    assert_ne!(a, b);
}

/// The one event loop stops at its horizon: events at the horizon fire,
/// later ones do not, and the run ends at the horizon. Cut anywhere past
/// the first arrival, a session narrates exactly the prefix of a longer
/// run up to and including the cut.
#[test]
fn horizon_stops_the_run() {
    let traced = |horizon: SimTime| {
        let mut p = Platform::new(short_config(ScalingPolicy::Predictive, 2.5), 0);
        let ring = Rc::new(RefCell::new(RingBuffer::new(1 << 20)));
        p.add_observer(ring.clone());
        let mut solo = [p];
        let (ended_at, _) = run_tenants(&mut solo, None, horizon);
        drop(solo);
        // Debug text, so a NaN (an unpriced decision's cost) equals itself.
        let seen: Vec<(SimTime, String)> =
            ring.borrow().events().map(|(at, e)| (*at, format!("{e:?}"))).collect();
        (ended_at, seen)
    };
    let (_, full) = traced(SimTime::new(300.0));
    let horizon = full[full.len() / 2].0;
    let (ended_at, cut) = traced(horizon);
    assert_eq!(ended_at, horizon);
    assert_eq!(cut.last().map(|e| e.0), Some(horizon), "events at the horizon fire");
    let prefix = full.iter().take_while(|e| e.0 <= horizon).count();
    assert!(prefix < full.len(), "the longer run goes on past the cut");
    assert_eq!(cut, full[..prefix], "nothing past the horizon fires");
}

#[test]
fn never_scale_uses_no_public_cores() {
    let m = run(short_config(ScalingPolicy::NeverScale, 2.0));
    assert_eq!(m.public_core_tu_share, 0.0);
}

#[test]
fn always_scale_buys_public_under_load() {
    let mut cfg = short_config(ScalingPolicy::AlwaysScale, 2.0);
    // Shrink the private tier so bursts spill over.
    cfg.fixed.private_capacity_cores = 64;
    let m = run(cfg);
    assert!(m.public_core_tu_share > 0.0, "share {}", m.public_core_tu_share);
}

#[test]
fn latency_grows_when_capacity_is_starved() {
    let mut quiet = short_config(ScalingPolicy::NeverScale, 3.0);
    quiet.fixed.private_capacity_cores = 624;
    let mut starved = short_config(ScalingPolicy::NeverScale, 2.0);
    starved.fixed.private_capacity_cores = 160;
    let mq = run(quiet);
    let ms = run(starved);
    assert!(
        ms.completion_rate() < mq.completion_rate(),
        "starved completion {} vs quiet {}",
        ms.completion_rate(),
        mq.completion_rate()
    );
    assert!(
        ms.jobs_completed == 0 || ms.mean_latency > mq.mean_latency,
        "starved latency {} vs quiet {}",
        ms.mean_latency,
        mq.mean_latency
    );
}

#[test]
fn forced_plan_is_respected() {
    let mut cfg = short_config(ScalingPolicy::AlwaysScale, 2.5);
    let plan = vec![(1u32, 2u32), (4, 1), (1, 2), (2, 2), (1, 4), (1, 1), (1, 1)];
    cfg.forced_plan = Some(plan.clone());
    let m = run(cfg);
    let expect: u32 = plan.iter().map(|&(s, t)| s * t).sum();
    assert!((m.mean_core_stages - expect as f64).abs() < 1e-9);
}

#[test]
fn reshape_config_reshapes() {
    let mut cfg = short_config(ScalingPolicy::NeverScale, 2.3);
    cfg.allow_reshape = true;
    // Greedy allocation varies plans, creating shape mismatches that
    // reshaping serves by converting surplus idle workers.
    cfg.variable.allocation = AllocationPolicy::Greedy;
    let m = run(cfg);
    assert!(m.reshapes > 0, "expected reshapes, got {}", m.reshapes);
}

#[test]
fn throughput_reward_sessions_work() {
    let mut cfg = short_config(ScalingPolicy::Predictive, 2.5);
    cfg.variable.reward = RewardKind::ThroughputBased;
    let m = run(cfg);
    assert!(m.total_reward > 0.0);
    assert!(m.reward_to_cost > 0.0);
}

#[test]
fn deadline_and_plateau_reward_sessions_work() {
    // Beyond the smoke assertion, these sessions drive the debug-build
    // Eq. 1 oracle through the two remaining ETT-dependent reward
    // schemes, checking the queue's cached Eq. 1 terms bit-for-bit against
    // the full-walk pricing on every scaling decision.
    for reward in [RewardKind::Deadline, RewardKind::Plateau] {
        let mut cfg = short_config(ScalingPolicy::Predictive, 2.5);
        cfg.variable.reward = reward;
        let m = run(cfg);
        assert!(m.jobs_completed > 0, "{reward:?} completed nothing");
    }
}

#[test]
fn adaptive_policy_runs_and_ingests() {
    let mut cfg = short_config(ScalingPolicy::Predictive, 2.5);
    cfg.variable.allocation = AllocationPolicy::LongTermAdaptive;
    let m = run(cfg);
    assert!(m.jobs_completed > 0);
}

#[test]
fn all_allocation_policies_run() {
    for alloc in AllocationPolicy::all() {
        let mut cfg = short_config(ScalingPolicy::Predictive, 2.6);
        cfg.variable.allocation = alloc;
        let m = run(cfg);
        assert!(m.jobs_completed > 0, "{:?} completed nothing", alloc);
    }
}

#[test]
fn utilisation_and_shares_are_fractions() {
    let m = run(short_config(ScalingPolicy::AlwaysScale, 2.2));
    assert!((0.0..=1.0).contains(&m.worker_utilisation));
    assert!((0.0..=1.0).contains(&m.public_core_tu_share));
}

// ----------------------------------------------------------------------
// Trace / observer layer
// ----------------------------------------------------------------------

/// Counts events by kind, for cross-checking against the session metrics.
#[derive(Default)]
struct KindCounts {
    arrived: u64,
    completed: u64,
    dispatched: u64,
    hired: u64,
    booted: u64,
    released: u64,
    decisions: u64,
    settled: u64,
    run_ended: u64,
    last_at: f64,
}

impl Observer for KindCounts {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        assert!(
            at.as_tu() >= self.last_at,
            "trace times must be monotone: {} after {}",
            at.as_tu(),
            self.last_at
        );
        self.last_at = at.as_tu();
        match event {
            TraceEvent::JobArrived { .. } => self.arrived += 1,
            TraceEvent::JobCompleted { .. } => self.completed += 1,
            TraceEvent::SubtaskDispatched { .. } => self.dispatched += 1,
            TraceEvent::VmHired { .. } => self.hired += 1,
            TraceEvent::VmBooted { .. } => self.booted += 1,
            TraceEvent::VmReleased { .. } => self.released += 1,
            TraceEvent::ScalingDecision { .. } => self.decisions += 1,
            TraceEvent::TierSettled { .. } => self.settled += 1,
            TraceEvent::RunEnded { .. } => self.run_ended += 1,
            _ => {}
        }
    }
}

#[test]
fn trace_stream_is_consistent_with_metrics() {
    let counts = Rc::new(RefCell::new(KindCounts::default()));
    let mut p = Platform::new(short_config(ScalingPolicy::Predictive, 2.5), 0);
    p.add_observer(counts.clone());
    let m = p.run();
    let c = counts.borrow();
    assert_eq!(c.arrived, m.jobs_submitted);
    assert_eq!(c.completed, m.jobs_completed);
    assert_eq!(c.hired, m.vms_hired);
    assert!(c.dispatched > 0 && c.booted > 0 && c.decisions > 0);
    assert_eq!(c.settled, 2, "one settlement per tier");
    assert_eq!(c.run_ended, 1);
}

/// A stalled class priced by `try_grow` is narrated as one
/// `ScalingDecision` carrying the caller's true queued-entry depth (not
/// the capped, deduped Eq. 1 window), the Eq. 1 numbers and the choice
/// they imply.
#[test]
fn a_priced_decision_is_narrated_once_with_its_eq1_numbers() {
    use super::events::JobRun;
    use scan_cloud::instance::InstanceSize;
    use scan_cloud::vm::boot_penalty;
    use scan_sched::plan::ExecutionPlan;
    use scan_sched::queue::TaskClass;
    use scan_sim::ScalingChoice;
    use scan_workload::job::Job;

    let mut cfg = short_config(ScalingPolicy::Predictive, 2.5);
    cfg.fixed.private_capacity_cores = 4; // one busy worker fills the private tier
    let mut p = Platform::new(cfg, 0);
    let ring = Rc::new(RefCell::new(RingBuffer::new(8)));
    p.add_observer(ring.clone());
    let class = TaskClass { stage: 0, cores: 4 };
    let (vm, ready) = p
        .provider
        .hire_on(TierId::PRIVATE, InstanceSize::new(4).unwrap(), SimTime::ZERO)
        .expect("private capacity");
    let worker = p.provider.vm_mut(vm).unwrap();
    worker.finish_boot(ready);
    worker.start_task(ready);
    p.busy.insert(vm, SimTime::new(40.0), 4);
    let depth = 2 * Platform::MAX_QUEUE_VIEW as u32;
    let plan = std::sync::Arc::new(ExecutionPlan::new(vec![(1, 4); p.true_model.n_stages()]));
    for i in 0..depth {
        let plan = std::sync::Arc::clone(&plan);
        let job = Job::new(JobId(i), 5.0, SimTime::ZERO);
        let slot = p.jobs.insert(JobRun { job, plan, stage: 0, outstanding: 1 });
        p.queues.push_batch(class, slot, 1, 5.0, SimTime::ZERO, SimTime::ZERO);
    }
    let now = SimTime::new(1.0);
    let task_tu = p.scaling_inputs(class, now).expected_task_tu;
    let mut cal = Calendar::new();
    let sink = &mut TenantCal { cal: &mut cal, tenant: p.tenant };
    assert!(p.try_grow(class, now, sink), "a deep queue and a long wait justify a hire");

    let ring = ring.borrow();
    let decisions: Vec<_> = ring
        .events()
        .filter(|(_, e)| matches!(e, TraceEvent::ScalingDecision { .. }))
        .copied()
        .collect();
    assert_eq!(decisions.len(), 1, "{decisions:?}");
    let (at, event) = decisions[0];
    assert_eq!(at, now);
    let TraceEvent::ScalingDecision { stage, cores, queued_jobs, delay_cost, hire_cost, choice } =
        event
    else {
        unreachable!("filtered above")
    };
    assert_eq!((stage, cores), (0, 4));
    assert_eq!(queued_jobs, depth, "the caller's true depth, not the Eq. 1 window");
    assert_eq!(hire_cost, 50.0 * 4.0 * (boot_penalty().as_tu() + task_tu));
    assert!(delay_cost > hire_cost, "delay {delay_cost} vs hire {hire_cost}");
    assert_eq!(choice, ScalingChoice::HirePublic);
}

/// A session nobody observes has no sink, so every `emit` returns at
/// its empty-tracer branch.
#[test]
fn an_unobserved_session_has_no_sinks() {
    let p = Platform::new(short_config(ScalingPolicy::Predictive, 2.5), 0);
    assert!(!p.tracer.is_enabled());
}

/// The run with no sink at all and the observed run report the same
/// session: narrating to observers never feeds back into it.
#[test]
fn extra_observers_do_not_change_the_session() {
    let base = run(short_config(ScalingPolicy::Predictive, 2.5));
    let mut p = Platform::new(short_config(ScalingPolicy::Predictive, 2.5), 0);
    p.add_observer(Rc::new(RefCell::new(NullObserver)));
    p.add_observer(Rc::new(RefCell::new(RingBuffer::new(64))));
    let observed = p.run();
    assert_eq!(base, observed, "observers must not perturb the simulation");
}

#[test]
fn jsonl_observer_streams_a_full_session() {
    let sink = Rc::new(RefCell::new(JsonlWriter::new(Vec::<u8>::new())));
    let mut p = Platform::new(short_config(ScalingPolicy::Predictive, 2.8), 0);
    p.add_observer(sink.clone());
    let m = p.run();
    // The platform (and its tracer clones) are gone; unwrap the sink.
    let writer = Rc::try_unwrap(sink).ok().expect("sole owner after run").into_inner();
    assert!(!writer.errored());
    let out = String::from_utf8(writer.into_inner()).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert!(lines.len() > 1000, "expected a dense trace, got {} lines", lines.len());
    assert!(lines[0].contains("\"kind\":\"vm_hired\""), "first event is a pool hire: {}", lines[0]);
    assert!(lines[lines.len() - 1].contains("\"kind\":\"run_ended\""));
    let completions = lines.iter().filter(|l| l.contains("\"kind\":\"job_completed\"")).count();
    assert_eq!(completions as u64, m.jobs_completed);
}

// ----------------------------------------------------------------------
// Determinism regression
// ----------------------------------------------------------------------

/// Golden fixed-seed run: the session metrics must stay
/// bit-identical across refactors. Regenerate by running this test with
/// `--nocapture` on a mismatch and copying the printed values.
#[test]
fn golden_fixed_seed_metrics() {
    let m = run(short_config(ScalingPolicy::Predictive, 2.5));
    println!(
        "golden: submitted={} completed={} reward={:?} cost={:?} mean_latency={:?} events={}",
        m.jobs_submitted,
        m.jobs_completed,
        m.total_reward.to_bits(),
        m.total_cost.to_bits(),
        m.mean_latency.to_bits(),
        m.events
    );
    assert_eq!(m.jobs_submitted, GOLDEN_SUBMITTED);
    assert_eq!(m.jobs_completed, GOLDEN_COMPLETED);
    assert_eq!(m.total_reward.to_bits(), GOLDEN_REWARD_BITS);
    assert_eq!(m.total_cost.to_bits(), GOLDEN_COST_BITS);
    assert_eq!(m.mean_latency.to_bits(), GOLDEN_MEAN_LATENCY_BITS);
    assert_eq!(m.events, GOLDEN_EVENTS);
}

const GOLDEN_SUBMITTED: u64 = 387;
const GOLDEN_COMPLETED: u64 = 369;
const GOLDEN_REWARD_BITS: u64 = 4688217391074187538;
const GOLDEN_COST_BITS: u64 = 4685420517385930011;
const GOLDEN_MEAN_LATENCY_BITS: u64 = 4625506671947336314;
// 13611 → 13325 when the 0.5 TU idle-sweep poll became one wakeup per
// tenant that fires only at grid instants with work: the 286 sweeps that
// released nothing are no longer engine events. Nothing else moved.
// Every value above and 13325 → 11053 when normals came from the polar
// method: every stream moves after its first normal, so the session
// draws other batch sizes, job sizes and execution noise.
const GOLDEN_EVENTS: u64 = 11053;

/// Golden fixed-seed *trace*: the full JSONL event stream of a session
/// must stay byte-identical across refactors — a much stronger check than
/// the aggregate metrics above, since it pins the order and payload of
/// every event. Regenerate by running with `--nocapture` on a mismatch
/// and copying the printed hash/length (and say why in EXPERIMENTS.md).
#[test]
fn golden_fixed_seed_trace_bytes() {
    let sink = Rc::new(RefCell::new(JsonlWriter::new(Vec::<u8>::new())));
    let mut p = Platform::new(short_config(ScalingPolicy::Predictive, 2.5), 0);
    p.add_observer(sink.clone());
    let _ = p.run();
    let writer = Rc::try_unwrap(sink).ok().expect("sole owner after run").into_inner();
    let bytes = writer.into_inner();
    // FNV-1a over the raw JSONL bytes: dependency-free and stable.
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in &bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    println!("golden trace: len={} fnv1a={:#018x}", bytes.len(), hash);
    assert_eq!(bytes.len(), GOLDEN_TRACE_LEN);
    assert_eq!(hash, GOLDEN_TRACE_FNV1A);
}

// Regenerated for the causal-spans PR: `job_arrived` events now carry
// `submitted_tu` (the original submission time, needed to stitch the
// admission-deferred span segment), so every job_arrived JSONL line grew
// one field. Payload-only change — the metrics golden above is
// unchanged, no decision flipped. See EXPERIMENTS.md.
//
// Regenerated again when idle sweeps became wakeups: the only line that
// changed is `run_ended`, whose `events_dispatched` fell from 13611 to
// 13325 (same width, so the length holds). This session never re-decides
// a held wait, so no `scaling_decision` or `queue_depth` line moved.
//
// Regenerated when normals came from the polar method: the session
// draws other batch and job sizes from its first arrival on.
const GOLDEN_TRACE_LEN: usize = 3636752;
const GOLDEN_TRACE_FNV1A: u64 = 0x1b2a6e1cfefa62f1;

// ----------------------------------------------------------------------
// §VI learned policy
// ----------------------------------------------------------------------

#[test]
fn learned_policy_runs_and_converges_on_profitable_arms() {
    let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.0), 321);
    cfg.variable.allocation = AllocationPolicy::Learned;
    cfg.fixed.sim_time_tu = 1_000.0;
    let m = Platform::new(cfg, 0).run();
    assert!(m.jobs_completed > 500, "learned policy must complete work");
    // After exploration the bandit should be at least in the ballpark
    // of the best-constant baseline (same seed, same workload).
    let mut base = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.0), 321);
    base.fixed.sim_time_tu = 1_000.0;
    let mb = Platform::new(base, 0).run();
    assert!(
        m.profit_per_run > 0.4 * mb.profit_per_run,
        "learned {} too far behind best-constant {}",
        m.profit_per_run,
        mb.profit_per_run
    );
}

#[test]
fn learned_policy_is_deterministic() {
    let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.4), 322);
    cfg.variable.allocation = AllocationPolicy::Learned;
    cfg.fixed.sim_time_tu = 400.0;
    let a = Platform::new(cfg.clone(), 0).run();
    let b = Platform::new(cfg, 0).run();
    assert_eq!(a, b);
}

#[test]
fn learned_is_not_in_the_table_i_grid() {
    assert!(!AllocationPolicy::all().contains(&AllocationPolicy::Learned));
    assert_eq!(AllocationPolicy::Learned.name(), "learned");
}

// ----------------------------------------------------------------------
// Calendar FIFO stability at the platform layer
// ----------------------------------------------------------------------

mod fifo {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Simultaneous platform events pop in exactly the order they
        /// were scheduled (the calendar's FIFO tie-break), regardless of
        /// how insertion times interleave.
        #[test]
        fn prop_simultaneous_platform_events_pop_fifo(
            slots in proptest::collection::vec(0u32..4, 1..48),
        ) {
            let mut cal: Calendar<Event> = Calendar::new();
            for (i, &slot) in slots.iter().enumerate() {
                // Tag each event with its insertion index via the job slot.
                cal.schedule(
                    SimTime::new(slot as f64),
                    Event::SubtaskDone {
                        job: i as u32,
                        stage: slot as u16,
                        vm: VmKey { id: VmId(i as u32), slot: i as u32 },
                    },
                );
            }
            let mut popped: Vec<(f64, u32)> = Vec::new();
            while let Some(e) = cal.pop() {
                let Event::SubtaskDone { job, .. } = e.event else { unreachable!() };
                popped.push((e.at.as_tu(), job));
            }
            prop_assert_eq!(popped.len(), slots.len());
            for w in popped.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "times out of order");
                if w[0].0 == w[1].0 {
                    prop_assert!(
                        w[0].1 < w[1].1,
                        "FIFO violated at t={}: {} before {}",
                        w[0].0, w[0].1, w[1].1
                    );
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Slot reuse: public ids stay hire/arrival ordinals, slots are recycled
// ----------------------------------------------------------------------

mod arena_reuse {
    use proptest::prelude::*;
    use scan_cloud::instance::InstanceSize;
    use scan_cloud::provider::CloudProvider;
    use scan_cloud::tier::TierCatalog;
    use scan_cloud::vm::VmKey;
    use scan_sim::{SimTime, SlotArena};
    use scan_workload::job::JobId;

    proptest! {
        /// Random admit/complete interleavings on a job table: a live
        /// job's slot always holds the job admitted under its id, a
        /// completed job's `(id, slot)` handle never resolves to it again
        /// (its slot is empty or holds a later job), and the table never
        /// has more slots than jobs were ever live at once.
        #[test]
        fn prop_job_slots_are_reused_and_never_resurrect(
            ops in proptest::collection::vec(0u32..3, 1..96),
        ) {
            let mut jobs: SlotArena<JobId> = SlotArena::new();
            let mut next = 0u32;
            let mut live: Vec<(JobId, u32)> = Vec::new();
            let mut done: Vec<(JobId, u32)> = Vec::new();
            let mut peak = 0;
            for &op in &ops {
                if op > 0 || live.is_empty() {
                    let id = JobId(next);
                    next += 1;
                    live.push((id, jobs.insert(id)));
                } else {
                    let (id, slot) = live.remove(live.len() / 2);
                    prop_assert_eq!(jobs.remove(slot), Some(id));
                    done.push((id, slot));
                }
                peak = peak.max(live.len());
                prop_assert!(jobs.slot_count() <= peak, "{} slots for {} live", jobs.slot_count(), peak);
                for &(id, slot) in &live {
                    prop_assert_eq!(jobs.get(slot), Some(&id));
                }
                for &(id, slot) in &done {
                    prop_assert!(jobs.get(slot) != Some(&id), "completed job {:?} resurrected", id);
                }
            }
        }

        /// The provider hands out VM ids in strictly increasing order and
        /// never reissues one, so "lowest id first" worker selection stays
        /// a stable hire-order tie-break across churn; a released key
        /// never resolves, a live key always resolves to the VM hired
        /// under its id, and the VM table never has more slots than VMs
        /// were ever live at once.
        #[test]
        fn prop_provider_reuses_slots_under_fresh_ids(
            ops in proptest::collection::vec(0u32..3, 1..96),
        ) {
            let mut provider = CloudProvider::new(TierCatalog::paper_hybrid(50.0));
            let size = InstanceSize::new(4).expect("4 cores is a catalog size");
            let mut live: Vec<VmKey> = Vec::new();
            let mut released: Vec<VmKey> = Vec::new();
            let mut last_issued: Option<VmKey> = None;
            let mut peak = 0;
            for (i, &op) in ops.iter().enumerate() {
                let now = SimTime::new(i as f64);
                if op > 0 || live.is_empty() {
                    // Capacity exhaustion is fine — the invariant is about
                    // the ids of the hires that do succeed.
                    if let Ok((key, _)) = provider.hire(size, now) {
                        prop_assert!(
                            last_issued.is_none_or(|p| key.id > p.id),
                            "ids not strictly increasing: {:?} after {:?}", key, last_issued
                        );
                        prop_assert!(
                            released.iter().all(|r| r.id != key.id),
                            "released id {:?} reissued", key.id
                        );
                        last_issued = Some(key);
                        live.push(key);
                    }
                } else {
                    let key = live.remove(live.len() / 2);
                    provider.release(key, now);
                    released.push(key);
                }
                peak = peak.max(live.len());
                prop_assert!(provider.vm_slots() <= peak, "{} slots for {} live", provider.vm_slots(), peak);
                for &key in &released {
                    prop_assert!(provider.vm(key).is_none(), "released VM {:?} still resolvable", key);
                }
                for &key in &live {
                    prop_assert_eq!(provider.vm(key).map(|vm| vm.id), Some(key.id));
                }
            }
        }
    }
}

//! The worker-VM state machine.
//!
//! A VM is hired from a tier with an instance shape, boots for
//! [`BOOT_PENALTY_TU`] (the paper's 30 s = 0.5 TU), serves tasks, and can be
//! *reshaped* to a different thread count — "CELAR would need to shut it
//! down, adjust the number of VCPUs, and restart it for its new role"
//! (§IV-B) — paying the same penalty again.

use crate::instance::InstanceSize;
use crate::tier::TierId;
use scan_sim::{SimDuration, SimTime};

/// The 30-second start/reshape penalty in TU (1 TU = 1 minute, so 0.5).
pub const BOOT_PENALTY_TU: f64 = 0.5;

/// The boot/reshape penalty as a duration.
#[inline]
pub fn boot_penalty() -> SimDuration {
    SimDuration::new(BOOT_PENALTY_TU)
}

/// Identifies a VM within a [`crate::provider::CloudProvider`]: its hire
/// ordinal.
///
/// Ids are handed out monotonically and **never reused within a
/// session**, so "lowest id" always means "hired earliest", the ordering
/// every deterministic selection rule in the platform relies on. The id
/// is what the trace reports; the provider's record table is addressed
/// through a [`VmKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u32);

/// A hired VM's handle: its public [`VmId`] and the provider slot that
/// holds its record.
///
/// Slots are reused once a VM is released, so the provider resolves a
/// key only while the slot's record still carries the key's id: a key
/// to a released VM never resolves, even after its slot holds another
/// VM. Keys order by id (then slot, which the id fixes), so sorting keys
/// sorts by hire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmKey {
    /// The VM's public id.
    pub id: VmId,
    /// The provider slot holding its record.
    pub slot: u32,
}

/// Lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VmState {
    /// Provisioning/booting until the given instant.
    Booting {
        /// When the VM becomes available.
        ready_at: SimTime,
    },
    /// Up and waiting for work since the given instant.
    Idle {
        /// When the VM last became idle.
        since: SimTime,
    },
    /// Executing a task.
    Busy,
    /// Released; retained only for accounting.
    Stopped {
        /// When the VM was released.
        at: SimTime,
    },
}

/// One hired worker VM.
#[derive(Debug, Clone, PartialEq)]
pub struct Vm {
    /// Identifier.
    pub id: VmId,
    /// Which tier its cores are billed against.
    pub tier: TierId,
    /// Instance shape.
    pub size: InstanceSize,
    /// Current lifecycle state.
    pub state: VmState,
    /// When the VM was hired (billing starts here).
    pub hired_at: SimTime,
    /// Cumulative busy time (for utilisation metrics).
    pub busy_time: SimDuration,
    /// When the current busy period started, if busy.
    busy_since: Option<SimTime>,
    /// How many times this VM has been reshaped.
    pub reshape_count: u32,
}

impl Vm {
    /// Creates a VM in `Booting` state; it becomes ready after the boot
    /// penalty.
    #[inline]
    pub fn hire(id: VmId, tier: TierId, size: InstanceSize, now: SimTime) -> Vm {
        Vm {
            id,
            tier,
            size,
            state: VmState::Booting { ready_at: now + boot_penalty() },
            hired_at: now,
            busy_time: SimDuration::ZERO,
            busy_since: None,
            reshape_count: 0,
        }
    }

    /// True when the VM can accept a task right now.
    #[inline]
    pub fn is_idle(&self) -> bool {
        matches!(self.state, VmState::Idle { .. })
    }

    /// True while booting or reshaping.
    pub fn is_booting(&self) -> bool {
        matches!(self.state, VmState::Booting { .. })
    }

    /// True while running a task.
    #[inline]
    pub fn is_busy(&self) -> bool {
        matches!(self.state, VmState::Busy)
    }

    /// True once released.
    #[inline]
    pub fn is_stopped(&self) -> bool {
        matches!(self.state, VmState::Stopped { .. })
    }

    /// Marks boot completion.
    ///
    /// # Panics
    /// Panics unless the VM was booting and `now` has reached `ready_at`.
    #[inline]
    pub fn finish_boot(&mut self, now: SimTime) {
        match self.state {
            VmState::Booting { ready_at } => {
                assert!(now >= ready_at, "finish_boot before ready_at");
                self.state = VmState::Idle { since: now };
            }
            // scan-lint: allow(no-panic, panic-path) -- documented `# Panics` contract; callers gate on state.
            _ => panic!("finish_boot on a VM that is not booting"),
        }
    }

    /// Assigns a task.
    ///
    /// # Panics
    /// Panics unless the VM is idle.
    #[inline]
    pub fn start_task(&mut self, now: SimTime) {
        assert!(self.is_idle(), "start_task on a non-idle VM ({:?})", self.state);
        self.state = VmState::Busy;
        self.busy_since = Some(now);
    }

    /// Completes the current task, returning the VM to idle.
    ///
    /// # Panics
    /// Panics unless the VM is busy.
    #[inline]
    pub fn finish_task(&mut self, now: SimTime) {
        assert!(self.is_busy(), "finish_task on a non-busy VM ({:?})", self.state);
        let since = self.busy_since.take().expect("busy VM has busy_since");
        self.busy_time += now - since;
        self.state = VmState::Idle { since: now };
    }

    /// Reshapes an idle VM to a new instance size: re-enters `Booting` for
    /// the penalty period. Returns when it will be ready.
    ///
    /// # Panics
    /// Panics unless the VM is idle.
    pub fn reshape(&mut self, new_size: InstanceSize, now: SimTime) -> SimTime {
        assert!(self.is_idle(), "reshape on a non-idle VM ({:?})", self.state);
        self.size = new_size;
        self.reshape_count += 1;
        let ready_at = now + boot_penalty();
        self.state = VmState::Booting { ready_at };
        ready_at
    }

    /// Releases the VM. Billing stops at `now`.
    ///
    /// # Panics
    /// Panics if the VM is busy (running tasks must finish first) or
    /// already stopped.
    #[inline]
    pub fn release(&mut self, now: SimTime) {
        assert!(
            !self.is_busy() && !self.is_stopped(),
            "release on a busy or stopped VM ({:?})",
            self.state
        );
        self.state = VmState::Stopped { at: now };
    }

    /// Span the VM has been hired for, up to `now` (or its release time).
    pub fn hired_span(&self, now: SimTime) -> SimDuration {
        match self.state {
            VmState::Stopped { at } => at - self.hired_at,
            _ => now - self.hired_at,
        }
    }

    /// Busy span up to `now`, including any open busy period.
    pub fn busy_span(&self, now: SimTime) -> SimDuration {
        let mut busy = self.busy_time;
        if let Some(since) = self.busy_since {
            busy += now - since;
        }
        busy
    }

    /// Idle span since the VM last became idle (zero otherwise).
    #[inline]
    pub fn idle_span(&self, now: SimTime) -> SimDuration {
        match self.state {
            VmState::Idle { since } => now - since,
            _ => SimDuration::ZERO,
        }
    }

    /// Fraction of hired time spent busy, up to `now`.
    pub fn utilisation(&self, now: SimTime) -> f64 {
        let hired = self.hired_span(now);
        if hired.is_zero() {
            return 0.0;
        }
        self.busy_span(now) / hired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn size(c: u32) -> InstanceSize {
        InstanceSize::new(c).unwrap()
    }

    fn t(x: f64) -> SimTime {
        SimTime::new(x)
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut vm = Vm::hire(VmId(1), TierId(0), size(4), t(10.0));
        assert!(vm.is_booting());
        assert_eq!(vm.state, VmState::Booting { ready_at: t(10.5) });
        vm.finish_boot(t(10.5));
        assert!(vm.is_idle());
        vm.start_task(t(11.0));
        assert!(vm.is_busy());
        vm.finish_task(t(14.0));
        assert!(vm.is_idle());
        assert_eq!(vm.busy_time, SimDuration::new(3.0));
        vm.release(t(15.0));
        assert!(vm.is_stopped());
        assert_eq!(vm.hired_span(t(99.0)), SimDuration::new(5.0));
    }

    #[test]
    fn reshape_pays_the_penalty_again() {
        let mut vm = Vm::hire(VmId(1), TierId(0), size(4), t(0.0));
        vm.finish_boot(t(0.5));
        let ready = vm.reshape(size(16), t(2.0));
        assert_eq!(ready, t(2.5));
        assert!(vm.is_booting());
        assert_eq!(vm.size.cores(), 16);
        assert_eq!(vm.reshape_count, 1);
        vm.finish_boot(t(2.5));
        assert!(vm.is_idle());
    }

    #[test]
    fn utilisation_accounts_open_busy_period() {
        let mut vm = Vm::hire(VmId(1), TierId(0), size(1), t(0.0));
        vm.finish_boot(t(0.5));
        vm.start_task(t(1.0));
        // At t=3: hired 3 TU, busy 2 TU (still busy).
        assert!((vm.utilisation(t(3.0)) - 2.0 / 3.0).abs() < 1e-12);
        vm.finish_task(t(4.0));
        assert!((vm.utilisation(t(4.0)) - 3.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn idle_span_tracks_last_idle() {
        let mut vm = Vm::hire(VmId(1), TierId(0), size(1), t(0.0));
        assert_eq!(vm.idle_span(t(0.3)), SimDuration::ZERO);
        vm.finish_boot(t(0.5));
        assert_eq!(vm.idle_span(t(2.5)), SimDuration::new(2.0));
        vm.start_task(t(2.5));
        assert_eq!(vm.idle_span(t(3.0)), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-idle")]
    fn start_task_while_booting_panics() {
        let mut vm = Vm::hire(VmId(1), TierId(0), size(1), t(0.0));
        vm.start_task(t(0.1));
    }

    #[test]
    #[should_panic(expected = "busy or stopped")]
    fn release_while_busy_panics() {
        let mut vm = Vm::hire(VmId(1), TierId(0), size(1), t(0.0));
        vm.finish_boot(t(0.5));
        vm.start_task(t(1.0));
        vm.release(t(2.0));
    }

    #[test]
    #[should_panic(expected = "not booting")]
    fn double_finish_boot_panics() {
        let mut vm = Vm::hire(VmId(1), TierId(0), size(1), t(0.0));
        vm.finish_boot(t(0.5));
        vm.finish_boot(t(0.6));
    }
}

//! The runtime face of a compiled scenario: what the engines query
//! while they run.

use crate::compile::{CompiledScenario, InjectedArrival};
use crate::spec::ScenarioSpec;
use simkit::faults::{link_available_at, transfer_outcome, LinkWindow, TransferOutcome};
use simkit::{SimDuration, SimTime};
use workloads::WorkloadKind;

/// Drives a compiled scenario through an engine. The driver is
/// immutable after compilation — engines read the arrival script at
/// seed time and price cohort transfers per event — so a scenario adds
/// no state that could make two runs of one seed differ.
#[derive(Debug, Clone)]
pub struct ScenarioDriver {
    spec_name: String,
    compiled: CompiledScenario,
}

impl ScenarioDriver {
    /// Compile `spec` against `base_users` devices under `seed`.
    pub fn compile(spec: &ScenarioSpec, base_users: u32, seed: u64) -> Self {
        ScenarioDriver {
            spec_name: spec.name.clone(),
            compiled: spec.compile(base_users, seed),
        }
    }

    /// The spec's display name.
    pub fn name(&self) -> &str {
        &self.spec_name
    }

    /// The compiled form (tests and reports).
    pub fn compiled(&self) -> &CompiledScenario {
        &self.compiled
    }

    /// The full arrival script, sorted by `(at, user)`.
    pub fn arrivals(&self) -> &[InjectedArrival] {
        &self.compiled.arrivals
    }

    /// Total scripted events.
    pub fn injected(&self) -> u64 {
        self.compiled.arrivals.len() as u64
    }

    /// Scripted events that offload (the rest are suppressed).
    pub fn planned_offloads(&self) -> u64 {
        self.compiled.arrivals.iter().filter(|a| a.offload).count() as u64
    }

    /// Tenant index of `user`.
    pub fn tenant_of(&self, user: u32) -> u32 {
        let t = &self.compiled.tenant_of;
        // Users past the compiled range (possible when an engine maps
        // synthetic indices onto its own population) wrap onto the
        // same striping.
        t[(user as usize) % t.len()]
    }

    /// Tenant display names, index order.
    pub fn tenant_names(&self) -> &[String] {
        &self.compiled.tenant_names
    }

    /// When tenancy is explicit, the app that replaces the engine's
    /// own Zipf draw for base user `user`.
    pub fn base_kind_override(&self, user: u32) -> Option<WorkloadKind> {
        self.compiled
            .base_kinds
            .as_ref()
            .and_then(|k| k.get(user as usize).copied())
    }

    /// The radio windows covering `user` (empty for unaffected users).
    fn windows_for(&self, user: u32) -> Vec<LinkWindow> {
        self.compiled
            .windows
            .iter()
            .filter(|w| w.lo <= user && user < w.hi)
            .map(|w| w.window)
            .collect()
    }

    /// Price a transfer for `user` starting at `start` with fault-free
    /// duration `nominal` through the user's cohort windows.
    /// [`TransferOutcome::Interrupted`] means the radio cut mid-flight:
    /// the engine defers the attempt to [`Self::release_time`] — with
    /// the whole cohort, that is the thundering herd.
    pub fn price_transfer(
        &self,
        user: u32,
        start: SimTime,
        nominal: SimDuration,
    ) -> TransferOutcome {
        let windows = self.windows_for(user);
        if windows.is_empty() {
            return TransferOutcome::Completes {
                at: start.saturating_add(nominal),
            };
        }
        transfer_outcome(&windows, start, nominal)
    }

    /// First instant at or after `t` when `user`'s radio is up.
    pub fn release_time(&self, user: u32, t: SimTime) -> SimTime {
        link_available_at(&self.windows_for(user), t)
    }

    /// The offloading arrival script folded onto `devices` trace
    /// lanes, ready for rattrap's `ArrivalModel::Trace`: lane `d`
    /// carries every scripted offload of users congruent to `d`.
    /// Suppressed (device-local) events stay off the trace, exactly as
    /// the fleet and geo engines suppress them at injection.
    pub fn device_arrivals(&self, devices: u32) -> Vec<Vec<SimTime>> {
        let n = devices.max(1) as usize;
        let mut lanes = vec![Vec::new(); n];
        for a in &self.compiled.arrivals {
            if a.offload {
                lanes[(a.user as usize) % n].push(a.at);
            }
        }
        lanes
    }

    /// Per-device workload assignment for rattrap replays under
    /// explicit tenancy: device `d` runs its tenant's app. `None` when
    /// the spec has no tenants (the engine keeps its own draw).
    pub fn device_workloads(&self, devices: u32) -> Option<Vec<WorkloadKind>> {
        self.compiled.base_kinds.as_ref()?;
        Some(
            (0..devices.max(1))
                .map(|d| {
                    // Wrap like `tenant_of`: lanes past the compiled
                    // population reuse its striping.
                    self.base_kind_override(d % self.compiled.base_users.max(1))
                        .expect("tenancy is explicit, so every device has an override")
                })
                .collect(),
        )
    }
}

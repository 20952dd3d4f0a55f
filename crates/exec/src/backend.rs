//! The pluggable compute backend: what one offloaded request's compute
//! phase costs in sim time.
//!
//! The engines call [`ComputeBackend::charge`] exactly where they used
//! to price megacycles directly, passing a [`ComputeCtx`] describing
//! the executing host and a deterministic input seed. The returned
//! value is **core-seconds of work** handed to the fair-share CPU
//! executor — contention, stragglers, and everything downstream stay
//! the engine's business.

use crate::workset::SizeClass;
use std::fmt;
use std::sync::Arc;
use workloads::TaskRequest;

/// Coarse hardware class an execution is attributed to; the third
/// component of every calibration key. A static label (not a full
/// spec) so measurements aggregate across hosts of the same shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct HostClass(pub &'static str);

impl HostClass {
    /// The paper's 2.66 GHz Dell server (rattrap + fleet hosts).
    pub const PAPER_SERVER: HostClass = HostClass("paper-server");
    /// A geo edge-PoP host.
    pub const EDGE_POP: HostClass = HostClass("edge-pop");
    /// A geo regional-core host.
    pub const REGIONAL_CORE: HostClass = HostClass("regional-core");
    /// The machine this process runs on (drift/serve measurements).
    pub const LOCALHOST: HostClass = HostClass("localhost");
}

impl fmt::Display for HostClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// Everything the engine knows at the instant it prices one request's
/// compute phase.
#[derive(Debug, Clone, Copy)]
pub struct ComputeCtx {
    /// Which workload the request belongs to.
    pub kind: workloads::WorkloadKind,
    /// The sampled task quantized to a kernel input size.
    pub size: SizeClass,
    /// Hardware class of the executing host.
    pub host: HostClass,
    /// Host core clock, GHz.
    pub clock_ghz: f64,
    /// Runtime-class CPU efficiency (1.0 = native).
    pub cpu_efficiency: f64,
    /// Deterministic seed for kernel-input construction. Derived from
    /// the scenario seed and the request identity, so a replayed run
    /// builds bit-identical inputs.
    pub input_seed: u64,
}

/// A compute backend prices (or performs) one request's compute phase.
///
/// Implementations must be `Send + Sync`, so one handle can serve
/// simulations on different threads (the benches run replications and
/// fleet cells in parallel); deterministic backends must return a
/// value that is a pure function of `(ctx, task)`.
pub trait ComputeBackend: fmt::Debug + Send + Sync {
    /// Stable backend label for reports and run metadata.
    fn name(&self) -> &'static str;

    /// Core-seconds of work the request's compute phase costs on the
    /// executing host.
    fn charge(&self, ctx: &ComputeCtx, task: &TaskRequest) -> f64;

    /// Whether `charge` is a pure function of its arguments. Golden
    /// and explorer runs refuse nondeterministic backends.
    fn is_deterministic(&self) -> bool {
        true
    }
}

/// Shared, thread-safe handle the engines store and clone.
pub type BackendHandle = Arc<dyn ComputeBackend>;

/// The default [`Modeled`] backend as a handle.
pub fn modeled() -> BackendHandle {
    Arc::new(Modeled)
}

/// The calibrated cycle-profile backend — the engines' historical
/// behaviour, bit for bit: the sampled task's megacycles priced at the
/// host clock scaled by the runtime-class efficiency. All seven golden
/// digests (and the geo regression digest) are pinned against it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Modeled;

impl ComputeBackend for Modeled {
    fn name(&self) -> &'static str {
        "modeled"
    }

    fn charge(&self, ctx: &ComputeCtx, task: &TaskRequest) -> f64 {
        task.compute.seconds_at(ctx.clock_ghz, ctx.cpu_efficiency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::units::Megacycles;
    use simkit::SimRng;
    use workloads::WorkloadKind;

    fn ctx(task: &TaskRequest) -> ComputeCtx {
        ComputeCtx {
            kind: task.kind,
            size: SizeClass::of(task),
            host: HostClass::PAPER_SERVER,
            clock_ghz: 2.66,
            cpu_efficiency: 0.995,
            input_seed: 7,
        }
    }

    #[test]
    fn modeled_matches_the_legacy_expression_bit_for_bit() {
        for kind in WorkloadKind::ALL {
            let mut rng = SimRng::new(11);
            for _ in 0..64 {
                let task = kind.profile().sample(&mut rng);
                let c = ctx(&task);
                let legacy = Megacycles(task.compute.0).seconds_at(c.clock_ghz, c.cpu_efficiency);
                let backend = Modeled.charge(&c, &task);
                assert_eq!(backend.to_bits(), legacy.to_bits());
            }
        }
    }

    #[test]
    fn modeled_is_deterministic_and_named() {
        assert!(Modeled.is_deterministic());
        assert_eq!(modeled().name(), "modeled");
    }
}

//! Size, bandwidth and compute-work units shared across the workspace.
//!
//! Conventions: data sizes are `u64` **bytes**; bandwidths are **bytes
//! per second** (helpers convert from the Mbps figures the paper quotes);
//! compute work is in **megacycles** (1e6 CPU cycles), matching the way
//! offloading papers characterise task cost.

/// Bytes in a kibibyte.
pub const KIB: u64 = 1024;
/// Bytes in a mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// Bytes in a gibibyte.
pub const GIB: u64 = 1024 * MIB;

/// Kibibytes → bytes.
#[inline]
pub const fn kib(n: u64) -> u64 {
    n * KIB
}

/// Mebibytes → bytes.
#[inline]
pub const fn mib(n: u64) -> u64 {
    n * MIB
}

/// Gibibytes → bytes.
#[inline]
pub const fn gib(n: u64) -> u64 {
    n * GIB
}

/// Megabits per second → bytes per second.
#[inline]
pub fn mbps(n: f64) -> f64 {
    n * 1_000_000.0 / 8.0
}

/// Render a byte count with a binary-unit suffix, e.g. `"7.1 MiB"`.
pub fn format_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if bytes >= GIB {
        format!("{:.2} GiB", b / GIB as f64)
    } else if bytes >= MIB {
        format!("{:.1} MiB", b / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.1} KiB", b / KIB as f64)
    } else {
        format!("{bytes} B")
    }
}

/// Compute work expressed in megacycles (1e6 cycles).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Megacycles(pub f64);

impl Megacycles {
    /// Seconds this work takes on a core running at `ghz` gigahertz,
    /// scaled by `efficiency` (cycles-per-useful-cycle, 1.0 = native).
    ///
    /// # Panics
    /// Panics if `ghz` or `efficiency` is not strictly positive.
    pub fn seconds_at(self, ghz: f64, efficiency: f64) -> f64 {
        assert!(ghz > 0.0, "clock must be positive");
        assert!(efficiency > 0.0, "efficiency must be positive");
        self.0 / (ghz * 1000.0 * efficiency)
    }
}

impl std::ops::Add for Megacycles {
    type Output = Megacycles;
    fn add(self, rhs: Megacycles) -> Megacycles {
        Megacycles(self.0 + rhs.0)
    }
}

impl std::ops::Mul<f64> for Megacycles {
    type Output = Megacycles;
    fn mul(self, rhs: f64) -> Megacycles {
        Megacycles(self.0 * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(kib(1), 1024);
        assert_eq!(mib(2), 2 * 1024 * 1024);
        assert_eq!(gib(1), 1 << 30);
    }

    #[test]
    fn bandwidth_conversions() {
        assert_eq!(mbps(8.0), 1_000_000.0);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(kib(2)), "2.0 KiB");
        assert_eq!(format_bytes(mib(7) + 100 * KIB), "7.1 MiB");
        assert_eq!(format_bytes(gib(1) + 100 * MIB), "1.10 GiB");
    }

    #[test]
    fn megacycles_timing() {
        // 2660 megacycles on a 2.66 GHz core = 1 second.
        let w = Megacycles(2660.0);
        assert!((w.seconds_at(2.66, 1.0) - 1.0).abs() < 1e-9);
        // 5% virtualization overhead → efficiency < 1 → slower.
        assert!(w.seconds_at(2.66, 0.95) > 1.0);
    }

    #[test]
    fn megacycles_arithmetic() {
        let w = Megacycles(100.0) + Megacycles(50.0);
        assert_eq!(w.0, 150.0);
        assert_eq!((w * 2.0).0, 300.0);
    }
}

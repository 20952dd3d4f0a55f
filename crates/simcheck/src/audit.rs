//! The audit ledger: what was checked and what was violated.

use simkit::Fnv1a;
use std::collections::BTreeSet;

/// One invariant breach, attributed to the invariant's stable name and
/// a concrete subject (a request, a host, a span, a job).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable invariant name from [`crate::invariants::CATALOGUE`].
    pub invariant: &'static str,
    /// What broke it (e.g. `request 17`, `host 2`, `span 41`).
    pub subject: String,
    /// Human-readable evidence: expected vs observed.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.invariant, self.subject, self.detail)
    }
}

/// Accumulates violations plus the set of invariants that actually ran
/// — "no violations" is only meaningful alongside "and these checks
/// executed".
#[derive(Debug, Default, Clone)]
pub struct Audit {
    violations: Vec<Violation>,
    checked: BTreeSet<&'static str>,
}

impl Audit {
    /// An empty ledger.
    pub fn new() -> Self {
        Audit::default()
    }

    /// Record that `invariant` was evaluated (whether or not it fired).
    pub fn checked(&mut self, invariant: &'static str) {
        self.checked.insert(invariant);
    }

    /// Record a breach. Also marks the invariant as checked.
    pub fn fail(
        &mut self,
        invariant: &'static str,
        subject: impl Into<String>,
        detail: impl Into<String>,
    ) {
        self.checked.insert(invariant);
        self.violations.push(Violation {
            invariant,
            subject: subject.into(),
            detail: detail.into(),
        });
    }

    /// Assert-style helper: fail unless `ok`.
    pub fn ensure(
        &mut self,
        invariant: &'static str,
        ok: bool,
        subject: impl Into<String>,
        detail: impl FnOnce() -> String,
    ) {
        self.checked.insert(invariant);
        if !ok {
            self.violations.push(Violation {
                invariant,
                subject: subject.into(),
                detail: detail(),
            });
        }
    }

    /// All recorded breaches, in discovery order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Invariants that were evaluated at least once.
    pub fn invariants_checked(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.checked.iter().copied()
    }

    /// `true` when nothing fired.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fold another ledger into this one.
    pub fn merge(&mut self, other: Audit) {
        self.violations.extend(other.violations);
        self.checked.extend(other.checked);
    }

    /// Order-sensitive FNV-1a digest over every violation — two audits
    /// of the same run must produce the same digest, which is what the
    /// explorer's own determinism contract pins.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(&[self.violations.len() as u8]);
        for v in &self.violations {
            h.write(v.invariant.as_bytes());
            h.write(v.subject.as_bytes());
            h.write(v.detail.as_bytes());
        }
        for name in &self.checked {
            h.write(name.as_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_covers_violations_and_checked_set() {
        let mut a = Audit::new();
        a.checked("x");
        let base = a.digest();
        a.fail("x", "request 1", "boom");
        assert_ne!(a.digest(), base);
        let mut b = Audit::new();
        b.checked("x");
        b.fail("x", "request 1", "boom");
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn ensure_fires_only_on_false() {
        let mut a = Audit::new();
        a.ensure("inv", true, "s", || unreachable!());
        assert!(a.is_clean());
        a.ensure("inv", false, "s", || "bad".into());
        assert_eq!(a.violations().len(), 1);
    }
}

//! Tenant vocabulary: identifiers and per-tenant statistics.
//!
//! A *tenant* is one application instance sharing the GPU with others —
//! the "millions of users" axis of the serving story. The tenant layer
//! itself (specs, arrival process, admission control, quota ledger)
//! lives in `uvm-sim`; this module only defines the identifier and the
//! per-tenant statistics container every layer above reports in, so the
//! error type can name tenants without depending on the simulator.

use std::fmt;

use uvm_util::{impl_json_newtype, impl_json_struct};

use crate::SimStats;

/// A tenant identifier, unique within one mix.
///
/// Displays as `T<n>` everywhere (errors, reports, CLI summaries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl_json_newtype!(TenantId);

/// One tenant's end-to-end result within a mix: its identity and
/// contract echo, the admission outcome, and the simulator statistics
/// of its run (default-zero when it never ran).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: TenantId,
    /// Application abbreviation the tenant ran.
    pub app: String,
    /// Residency quota (pages) the tenant was admitted under.
    pub quota_pages: u64,
    /// Arrival time on the mix clock (cycles).
    pub arrival: u64,
    /// When admission actually let the tenant in (>= `arrival`; equal
    /// when it was admitted immediately, later when it was delayed).
    pub admitted: u64,
    /// Admission outcome label: `"admitted"`, `"delayed"` or
    /// `"rejected"`.
    pub admission: String,
    /// Whether the tenant's simulation completed soundly (`false` for
    /// rejected tenants and contained run failures).
    pub ok: bool,
    /// The `SimError` display text when `ok` is false, else empty.
    pub error: String,
    /// Simulator statistics of the tenant's run (zero when it never
    /// ran).
    pub stats: SimStats,
}

impl_json_struct!(TenantStats {
    tenant = TenantId(0),
    app = String::new(),
    quota_pages = 0,
    arrival = 0,
    admitted = 0,
    admission = String::new(),
    ok = false,
    error = String::new(),
    stats = SimStats::default(),
});

impl TenantStats {
    /// Completion time on the mix clock: admission instant plus the
    /// run's simulated cycles (rejected tenants complete at arrival).
    pub fn completion(&self) -> u64 {
        self.admitted.saturating_add(self.stats.cycles)
    }

    /// Queueing-inflated slowdown: time from arrival to completion over
    /// the run's own service time. 1.0 for a tenant admitted instantly;
    /// grows with admission delay. 0.0 for tenants that never ran.
    pub fn slowdown(&self) -> f64 {
        if self.stats.cycles == 0 {
            return 0.0;
        }
        let span = self.completion().saturating_sub(self.arrival);
        span as f64 / self.stats.cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_util::{FromJson, Json, ToJson};

    #[test]
    fn tenant_id_displays_and_roundtrips() {
        let id = TenantId(42);
        assert_eq!(id.to_string(), "T42");
        let back = TenantId::from_json(&id.to_json()).unwrap();
        assert_eq!(back, id);
    }

    #[test]
    fn tenant_stats_roundtrip_and_sparse_default() {
        let s = TenantStats {
            tenant: TenantId(2),
            app: "STN".into(),
            quota_pages: 512,
            arrival: 100,
            admitted: 250,
            admission: "delayed".into(),
            ok: true,
            ..TenantStats::default()
        };
        let text = s.to_json().to_string();
        let back = TenantStats::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        // Sparse document parses to the default.
        let sparse = TenantStats::from_json(&Json::parse("{}").unwrap()).unwrap();
        assert_eq!(sparse, TenantStats::default());
    }

    #[test]
    fn slowdown_accounts_for_admission_delay() {
        let mut s = TenantStats {
            arrival: 100,
            admitted: 100,
            ..TenantStats::default()
        };
        s.stats.cycles = 1_000;
        assert!((s.slowdown() - 1.0).abs() < 1e-12);
        s.admitted = 600; // delayed 500 cycles
        assert!((s.slowdown() - 1.5).abs() < 1e-12);
        assert_eq!(s.completion(), 1_600);
        let never_ran = TenantStats::default();
        assert_eq!(never_ran.slowdown(), 0.0);
    }
}

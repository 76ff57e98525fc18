//! Tenant identity for multi-tenant (fleet) simulations.
//!
//! A fleet run multiplexes many tenant platforms over one shared
//! [`Calendar`](crate::Calendar); every event carries the [`TenantId`] of
//! the platform that scheduled it so the event loop can route it back and so
//! simultaneous events from different tenants interleave in a fixed,
//! reproducible order (see [`Calendar::schedule_for`]).
//!
//! [`Calendar::schedule_for`]: crate::Calendar::schedule_for

/// Identifies one tenant platform inside a fleet.
///
/// Tenant 0 is the implicit tenant of every single-tenant simulation:
/// [`Calendar::schedule`](crate::Calendar::schedule) tags events with
/// [`TenantId::SOLO`], which keeps single-tenant event ordering (and thus
/// every golden fixed-seed trace) bit-identical to the pre-fleet code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u16);

impl TenantId {
    /// The implicit tenant of a single-tenant simulation.
    pub const SOLO: TenantId = TenantId(0);

    /// The tenant ordinal as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u16> for TenantId {
    fn from(v: u16) -> Self {
        TenantId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_is_zero_and_displays_as_ordinal() {
        assert_eq!(TenantId::SOLO, TenantId(0));
        assert_eq!(TenantId(7).index(), 7);
        assert_eq!(TenantId(7).to_string(), "7");
        assert_eq!(TenantId::from(3u16), TenantId(3));
    }
}

//! Named tenants, their quotas, and the registry mapping names to ids.

use crate::class::PriorityClass;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Longest tenant name accepted anywhere — registry, CLI, and both wire
/// protocols enforce the same bound, so a hostile header can never make
/// the server allocate an unbounded name.
pub const MAX_TENANT_NAME: usize = 64;

/// A tenant name is non-empty, at most [`MAX_TENANT_NAME`] bytes, and
/// limited to ASCII alphanumerics plus `-`, `_`, and `.` — safe to
/// embed verbatim in metric names and log lines.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_TENANT_NAME
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

/// Dense per-registry tenant identifier (position in registration
/// order). This is what flows through `ExecOptions` and job metadata;
/// names appear only at the edges (wire headers, metrics, CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Per-tenant resource bounds, all enforced at admission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuotas {
    /// Queries the tenant may run concurrently. `0` means the tenant is
    /// admitted for registration but every query is rejected — useful
    /// for drain/suspend and for deterministic rejection tests.
    pub max_concurrent: usize,
    /// Queries that may wait for a concurrency slot before further
    /// arrivals are rejected outright.
    pub max_queued: usize,
    /// Total query-text bytes the waiting queries may hold. Bounds the
    /// memory a flooding tenant can park in the admission queue.
    pub max_queued_bytes: usize,
}

impl Default for TenantQuotas {
    fn default() -> TenantQuotas {
        TenantQuotas { max_concurrent: 64, max_queued: 256, max_queued_bytes: 4 << 20 }
    }
}

/// Everything needed to register a tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    pub name: String,
    pub class: PriorityClass,
    pub quotas: TenantQuotas,
}

impl TenantSpec {
    pub fn new(name: impl Into<String>, class: PriorityClass) -> TenantSpec {
        TenantSpec { name: name.into(), class, quotas: TenantQuotas::default() }
    }

    /// Parse the CLI form `name[:class[:max_concurrent[:max_queued]]]`,
    /// e.g. `alice:interactive:8` or `batchy:batch:2:4`.
    pub fn parse(text: &str) -> Result<TenantSpec, String> {
        let mut parts = text.split(':');
        let name = parts.next().unwrap_or_default();
        if !valid_tenant_name(name) {
            return Err(format!(
                "invalid tenant name {name:?} (1..={MAX_TENANT_NAME} chars of [A-Za-z0-9._-])"
            ));
        }
        let mut spec = TenantSpec::new(name, PriorityClass::default());
        if let Some(class) = parts.next() {
            spec.class = PriorityClass::parse(class)
                .ok_or_else(|| format!("unknown priority class {class:?}"))?;
        }
        if let Some(raw) = parts.next() {
            spec.quotas.max_concurrent = raw
                .parse()
                .map_err(|_| format!("max_concurrent must be a number, got {raw:?}"))?;
        }
        if let Some(raw) = parts.next() {
            spec.quotas.max_queued = raw
                .parse()
                .map_err(|_| format!("max_queued must be a number, got {raw:?}"))?;
        }
        if let Some(extra) = parts.next() {
            return Err(format!("trailing tenant spec field {extra:?}"));
        }
        Ok(spec)
    }
}

/// Admission bookkeeping, updated under the tenant's mutex.
#[derive(Debug, Default)]
pub(crate) struct AdmState {
    pub in_flight: usize,
    pub queued: usize,
    pub queued_bytes: usize,
}

/// A registered tenant. Shared via `Arc`; the admission controller
/// mutates only the interior [`AdmState`].
pub struct Tenant {
    pub id: TenantId,
    pub name: String,
    pub class: PriorityClass,
    pub quotas: TenantQuotas,
    pub(crate) state: Mutex<AdmState>,
    pub(crate) slot_freed: Condvar,
}

impl Tenant {
    /// Queries currently executing under a live [`Permit`](crate::Permit).
    pub fn in_flight(&self) -> usize {
        self.state.lock().expect("tenant state lock").in_flight
    }

    /// Queries currently waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.state.lock().expect("tenant state lock").queued
    }
}

impl fmt::Debug for Tenant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tenant")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("class", &self.class)
            .field("quotas", &self.quotas)
            .finish_non_exhaustive()
    }
}

/// Registry of all tenants known to one serving process. Registration
/// is append-only (ids are dense indexes); lookups are lock-cheap reads.
#[derive(Default)]
pub struct TenantRegistry {
    inner: RwLock<Inner>,
}

#[derive(Default)]
struct Inner {
    tenants: Vec<Arc<Tenant>>,
    by_name: HashMap<String, u32>,
}

impl TenantRegistry {
    pub fn new() -> TenantRegistry {
        TenantRegistry::default()
    }

    /// Register a tenant; fails on an invalid name or a duplicate.
    pub fn register(&self, spec: TenantSpec) -> Result<TenantId, String> {
        if !valid_tenant_name(&spec.name) {
            return Err(format!(
                "invalid tenant name {:?} (1..={MAX_TENANT_NAME} chars of [A-Za-z0-9._-])",
                spec.name
            ));
        }
        let mut inner = self.inner.write().expect("registry lock");
        if inner.by_name.contains_key(&spec.name) {
            return Err(format!("tenant {:?} already registered", spec.name));
        }
        let id = TenantId(inner.tenants.len() as u32);
        inner.by_name.insert(spec.name.clone(), id.0);
        inner.tenants.push(Arc::new(Tenant {
            id,
            name: spec.name,
            class: spec.class,
            quotas: spec.quotas,
            state: Mutex::new(AdmState::default()),
            slot_freed: Condvar::new(),
        }));
        Ok(id)
    }

    pub fn by_id(&self, id: TenantId) -> Option<Arc<Tenant>> {
        let inner = self.inner.read().expect("registry lock");
        inner.tenants.get(id.0 as usize).cloned()
    }

    pub fn by_name(&self, name: &str) -> Option<Arc<Tenant>> {
        let inner = self.inner.read().expect("registry lock");
        let id = *inner.by_name.get(name)?;
        inner.tenants.get(id as usize).cloned()
    }

    pub fn len(&self) -> usize {
        self.inner.read().expect("registry lock").tenants.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered tenant names in id order.
    pub fn names(&self) -> Vec<String> {
        let inner = self.inner.read().expect("registry lock");
        inner.tenants.iter().map(|t| t.name.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let reg = TenantRegistry::new();
        let a = reg.register(TenantSpec::new("alice", PriorityClass::Interactive)).unwrap();
        let b = reg.register(TenantSpec::new("bob", PriorityClass::Batch)).unwrap();
        assert_ne!(a, b);
        assert_eq!(reg.by_name("alice").unwrap().id, a);
        assert_eq!(reg.by_id(b).unwrap().name, "bob");
        assert_eq!(reg.names(), vec!["alice".to_string(), "bob".to_string()]);
        assert!(reg.by_name("carol").is_none());
    }

    #[test]
    fn duplicate_and_invalid_names_are_rejected() {
        let reg = TenantRegistry::new();
        reg.register(TenantSpec::new("alice", PriorityClass::Standard)).unwrap();
        assert!(reg.register(TenantSpec::new("alice", PriorityClass::Batch)).is_err());
        assert!(reg.register(TenantSpec::new("", PriorityClass::Batch)).is_err());
        assert!(reg
            .register(TenantSpec::new("bad name", PriorityClass::Batch))
            .is_err());
        assert!(reg
            .register(TenantSpec::new("x".repeat(MAX_TENANT_NAME + 1), PriorityClass::Batch))
            .is_err());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn spec_parsing() {
        let spec = TenantSpec::parse("alice:interactive:8:16").unwrap();
        assert_eq!(spec.name, "alice");
        assert_eq!(spec.class, PriorityClass::Interactive);
        assert_eq!(spec.quotas.max_concurrent, 8);
        assert_eq!(spec.quotas.max_queued, 16);
        let spec = TenantSpec::parse("bob").unwrap();
        assert_eq!(spec.class, PriorityClass::Standard);
        assert_eq!(spec.quotas, TenantQuotas::default());
        assert!(TenantSpec::parse("alice:warp").is_err());
        assert!(TenantSpec::parse("alice:batch:x").is_err());
        assert!(TenantSpec::parse("a:batch:1:2:3").is_err());
        assert!(TenantSpec::parse(":batch").is_err());
    }

    #[test]
    fn name_validation_bounds() {
        assert!(valid_tenant_name("a"));
        assert!(valid_tenant_name("team-1.prod_x"));
        assert!(valid_tenant_name(&"x".repeat(MAX_TENANT_NAME)));
        assert!(!valid_tenant_name(""));
        assert!(!valid_tenant_name(&"x".repeat(MAX_TENANT_NAME + 1)));
        assert!(!valid_tenant_name("no spaces"));
        assert!(!valid_tenant_name("nul\0byte"));
        assert!(!valid_tenant_name("ünïcode"));
    }
}

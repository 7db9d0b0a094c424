//! Tenant identity and policy: who may submit, how much queue they get,
//! how strongly the scheduler favors them, and what slice of a shared
//! cache budget they own.
//!
//! A [`TenantTable`] is the immutable policy input to the scheduler — it is
//! built once (programmatically or from a `tenants.toml` file via
//! [`TenantTable::parse`]) and handed to the serving layer. Index positions
//! are stable for the lifetime of the table, so the scheduler and metrics
//! address tenants by `usize` index and only translate back to names at the
//! export boundary.

use std::fmt;

/// A tenant's name: non-empty, at most [`TenantId::MAX_LEN`] bytes, ASCII
/// printable without whitespace — safe to embed in Prometheus labels (after
/// escaping), file names, and config keys.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(String);

impl TenantId {
    /// Longest accepted tenant name in bytes.
    pub const MAX_LEN: usize = 128;

    /// Validates and wraps a tenant name.
    pub fn new(name: &str) -> Result<TenantId, PolicyError> {
        if name.is_empty() {
            return Err(PolicyError::BadTenantName {
                name: name.to_string(),
                reason: "empty name",
            });
        }
        if name.len() > Self::MAX_LEN {
            return Err(PolicyError::BadTenantName {
                name: name.to_string(),
                reason: "name longer than 128 bytes",
            });
        }
        if !name.bytes().all(|b| (0x21..=0x7e).contains(&b)) {
            return Err(PolicyError::BadTenantName {
                name: name.to_string(),
                reason: "names are ASCII printable without whitespace",
            });
        }
        Ok(TenantId(name.to_string()))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Whether a tenant's submissions are currently accepted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Admission {
    /// Accept submissions (the default).
    #[default]
    Open,
    /// Reject every submission with a typed error — for drain-before-remove
    /// maintenance or abuse response. Queued requests still complete.
    Closed,
}

/// Per-tenant QoS policy. All fields have serve-everyone defaults, so a
/// config only states what deviates.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantPolicy {
    /// Scheduling weight: the tenant's long-run share of served requests
    /// under contention is `weight / Σ weights`. Must be finite and > 0.
    pub weight: f64,
    /// Queue-depth cap: a submission arriving while this many requests are
    /// already queued for the tenant is rejected (backpressure). The
    /// default is effectively unlimited.
    pub max_queue: usize,
    /// Relative share of a partitioned cache budget (normalized across
    /// tenants by [`h2_core::cache::split_budget`]). Must be finite and ≥ 0.
    pub cache_share: f64,
    /// Admission state.
    pub admission: Admission,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            weight: 1.0,
            max_queue: usize::MAX,
            cache_share: 1.0,
            admission: Admission::Open,
        }
    }
}

impl TenantPolicy {
    fn validate(&self, id: &TenantId) -> Result<(), PolicyError> {
        if !self.weight.is_finite() || self.weight <= 0.0 {
            return Err(PolicyError::BadPolicy {
                tenant: id.clone(),
                reason: "weight must be finite and > 0".to_string(),
            });
        }
        if self.max_queue == 0 {
            return Err(PolicyError::BadPolicy {
                tenant: id.clone(),
                reason: "max_queue must be >= 1 (use admission = \"closed\" to block)".to_string(),
            });
        }
        if !self.cache_share.is_finite() || self.cache_share < 0.0 {
            return Err(PolicyError::BadPolicy {
                tenant: id.clone(),
                reason: "cache_share must be finite and >= 0".to_string(),
            });
        }
        Ok(())
    }
}

/// Why a tenant table could not be built or parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyError {
    /// A tenant name failed [`TenantId::new`] validation.
    BadTenantName {
        /// The offending name.
        name: String,
        /// What rule it broke.
        reason: &'static str,
    },
    /// The same tenant was declared twice.
    DuplicateTenant(TenantId),
    /// A policy field is out of range.
    BadPolicy {
        /// Which tenant.
        tenant: TenantId,
        /// What is wrong.
        reason: String,
    },
    /// A `tenants.toml` line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Parser diagnostic.
        reason: String,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::BadTenantName { name, reason } => {
                write!(f, "bad tenant name {name:?}: {reason}")
            }
            PolicyError::DuplicateTenant(id) => write!(f, "tenant '{id}' declared twice"),
            PolicyError::BadPolicy { tenant, reason } => {
                write!(f, "bad policy for tenant '{tenant}': {reason}")
            }
            PolicyError::Parse { line, reason } => {
                write!(f, "tenants config line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// An immutable, validated set of tenants with stable indices.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantTable {
    ids: Vec<TenantId>,
    policies: Vec<TenantPolicy>,
}

impl TenantTable {
    /// Builds a table from `(name, policy)` pairs, validating names,
    /// policies, and uniqueness. Declaration order fixes the indices.
    pub fn new<I, S>(tenants: I) -> Result<TenantTable, PolicyError>
    where
        I: IntoIterator<Item = (S, TenantPolicy)>,
        S: AsRef<str>,
    {
        let mut ids: Vec<TenantId> = Vec::new();
        let mut policies = Vec::new();
        for (name, policy) in tenants {
            let id = TenantId::new(name.as_ref())?;
            if ids.contains(&id) {
                return Err(PolicyError::DuplicateTenant(id));
            }
            policy.validate(&id)?;
            ids.push(id);
            policies.push(policy);
        }
        Ok(TenantTable { ids, policies })
    }

    /// The single-tenant table every non-tenant-aware caller gets: one
    /// tenant named `default` with default policy (weight 1, unbounded
    /// queue, full cache share, open admission).
    pub fn single_default() -> TenantTable {
        TenantTable::new([("default", TenantPolicy::default())])
            .expect("static default tenant is valid")
    }

    /// Parses the `tenants.toml` dialect:
    ///
    /// ```toml
    /// # one section per tenant; every key optional
    /// [alice]
    /// weight = 8.0        # scheduling weight (> 0, default 1.0)
    /// max_queue = 64      # queue-depth cap (>= 1, default unlimited)
    /// cache_share = 0.5   # relative cache-budget share (>= 0, default 1.0)
    /// admission = "open"  # or "closed" (default open)
    ///
    /// [bob]
    /// weight = 1.0
    /// ```
    ///
    /// Comments (`# …`), blank lines, and whitespace around `=` are
    /// ignored. Unknown keys are errors — a typo silently granting default
    /// QoS would be worse than a parse failure.
    pub fn parse(text: &str) -> Result<TenantTable, PolicyError> {
        let mut tenants: Vec<(String, TenantPolicy)> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = match raw.find('#') {
                Some(p) => &raw[..p],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name.strip_suffix(']').ok_or(PolicyError::Parse {
                    line: lineno,
                    reason: "unterminated section header".to_string(),
                })?;
                tenants.push((name.trim().to_string(), TenantPolicy::default()));
                continue;
            }
            let (key, value) = line.split_once('=').ok_or(PolicyError::Parse {
                line: lineno,
                reason: format!("expected `key = value`, got {line:?}"),
            })?;
            let policy = &mut tenants
                .last_mut()
                .ok_or(PolicyError::Parse {
                    line: lineno,
                    reason: "key before any [tenant] section".to_string(),
                })?
                .1;
            let key = key.trim();
            let value = value.trim();
            let bad = |reason: String| PolicyError::Parse {
                line: lineno,
                reason,
            };
            match key {
                "weight" => {
                    policy.weight = value
                        .parse()
                        .map_err(|_| bad(format!("weight is not a number: {value:?}")))?;
                }
                "max_queue" => {
                    policy.max_queue = value
                        .parse()
                        .map_err(|_| bad(format!("max_queue is not an integer: {value:?}")))?;
                }
                "cache_share" => {
                    policy.cache_share = value
                        .parse()
                        .map_err(|_| bad(format!("cache_share is not a number: {value:?}")))?;
                }
                "admission" => {
                    policy.admission = match value.trim_matches('"') {
                        "open" => Admission::Open,
                        "closed" => Admission::Closed,
                        other => {
                            return Err(bad(format!(
                                "admission must be \"open\" or \"closed\", got {other:?}"
                            )))
                        }
                    };
                }
                other => {
                    return Err(bad(format!("unknown key {other:?}")));
                }
            }
        }
        if tenants.is_empty() {
            return Err(PolicyError::Parse {
                line: 0,
                reason: "no tenants declared".to_string(),
            });
        }
        TenantTable::new(tenants)
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the table has no tenants (only possible via `new([])`).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The index of tenant `name`, if declared.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.ids.iter().position(|id| id.as_str() == name)
    }

    /// Tenant id at `index`.
    pub fn id(&self, index: usize) -> &TenantId {
        &self.ids[index]
    }

    /// Policy at `index`.
    pub fn policy(&self, index: usize) -> &TenantPolicy {
        &self.policies[index]
    }

    /// Iterates `(index, id, policy)` in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &TenantId, &TenantPolicy)> {
        self.ids
            .iter()
            .zip(self.policies.iter())
            .enumerate()
            .map(|(i, (id, p))| (i, id, p))
    }

    /// The tenants' cache shares in index order — the input to
    /// [`h2_core::cache::split_budget`] when partitioning a shared byte budget.
    pub fn cache_shares(&self) -> Vec<f64> {
        self.policies.iter().map(|p| p.cache_share).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_ids_are_validated() {
        assert!(TenantId::new("alice").is_ok());
        assert!(TenantId::new("team-7/eu_west.prod").is_ok());
        assert!(TenantId::new("").is_err());
        assert!(TenantId::new("has space").is_err());
        assert!(TenantId::new("tab\there").is_err());
        assert!(TenantId::new(&"x".repeat(200)).is_err());
    }

    #[test]
    fn table_rejects_duplicates_and_bad_policies() {
        let dup = TenantTable::new([
            ("a", TenantPolicy::default()),
            ("a", TenantPolicy::default()),
        ]);
        assert!(matches!(dup, Err(PolicyError::DuplicateTenant(_))));

        let neg = TenantTable::new([(
            "a",
            TenantPolicy {
                weight: -1.0,
                ..TenantPolicy::default()
            },
        )]);
        assert!(matches!(neg, Err(PolicyError::BadPolicy { .. })));

        let zero_q = TenantTable::new([(
            "a",
            TenantPolicy {
                max_queue: 0,
                ..TenantPolicy::default()
            },
        )]);
        assert!(matches!(zero_q, Err(PolicyError::BadPolicy { .. })));
    }

    #[test]
    fn parse_round_trips_the_documented_dialect() {
        let text = r#"
            # fleet tenants
            [alice]
            weight = 8.0
            max_queue = 64
            cache_share = 0.5

            [bob]            # light tenant
            admission = "closed"
        "#;
        let t = TenantTable::parse(text).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.index_of("alice"), Some(0));
        assert_eq!(t.index_of("bob"), Some(1));
        assert_eq!(t.index_of("carol"), None);
        let a = t.policy(0);
        assert_eq!(a.weight, 8.0);
        assert_eq!(a.max_queue, 64);
        assert_eq!(a.cache_share, 0.5);
        assert_eq!(a.admission, Admission::Open);
        let b = t.policy(1);
        assert_eq!(b.weight, 1.0);
        assert_eq!(b.max_queue, usize::MAX);
        assert_eq!(b.admission, Admission::Closed);
        assert_eq!(t.cache_shares(), vec![0.5, 1.0]);
    }

    #[test]
    fn parse_rejects_malformed_input_with_line_numbers() {
        for (text, needle) in [
            ("weight = 2", "before any"),
            ("[a]\nweight = fast", "not a number"),
            ("[a]\nbogus_key = 1", "unknown key"),
            ("[a]\nadmission = \"maybe\"", "open"),
            ("[a\nweight = 1", "unterminated"),
            ("", "no tenants"),
            ("[a]\nweight 2", "key = value"),
        ] {
            let err = TenantTable::parse(text).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "{text:?} -> {msg}");
        }
    }

    #[test]
    fn single_default_matches_legacy_service_behavior() {
        let t = TenantTable::single_default();
        assert_eq!(t.len(), 1);
        assert_eq!(t.index_of("default"), Some(0));
        assert_eq!(t.policy(0), &TenantPolicy::default());
    }
}

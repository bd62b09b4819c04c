//! Links: the common naming convention joining syslog and IS-IS.
//!
//! §3.4 of the paper: *"we develop a simple method to map both to a common
//! naming convention, a link: (host name 1:port on host 1, host name
//! 2:port on host 2)"*. [`LinkName`] is that convention, canonicalized by
//! sorting the two endpoints so the same physical link always renders to
//! the same string regardless of which end reported it.

use crate::interface::InterfaceName;
use crate::router::RouterId;
use crate::subnet::Subnet31;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense index of a link within a [`crate::Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// One end of a link: a router plus the interface it terminates on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Endpoint {
    /// Terminating router.
    pub router: RouterId,
    /// Interface on that router.
    pub interface: InterfaceName,
}

/// Link classification mirroring the paper's Core/CPE split: a link is a
/// *Core link* when both ends are backbone routers, and a *CPE link* when
/// one end is on customer premises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// Backbone-to-backbone link (CENIC has 84).
    Core,
    /// Backbone-to-customer-premises link (CENIC has 215).
    Cpe,
}

impl fmt::Display for LinkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkClass::Core => write!(f, "Core"),
            LinkClass::Cpe => write!(f, "CPE"),
        }
    }
}

/// A bidirectional point-to-point link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Dense topology index.
    pub id: LinkId,
    /// First endpoint (lower router id after canonicalization).
    pub a: Endpoint,
    /// Second endpoint.
    pub b: Endpoint,
    /// Core or CPE.
    pub class: LinkClass,
    /// The unique /31 the two interface addresses are drawn from.
    pub subnet: Subnet31,
    /// IS-IS metric configured by the operator (larger = less preferred).
    pub metric: u32,
    /// Set when this link is one of several parallel links between the same
    /// router pair (a *multi-link adjacency*). The paper found 26 such
    /// device pairs; their state cannot be resolved per-physical-link from
    /// the IS reachability field, so they are excluded from the IS-side
    /// analysis (§3.4).
    pub parallel_group: Option<u16>,
    /// Lifetime bounds within the measurement period. Links provisioned or
    /// decommissioned mid-study have a shorter lifetime, which the paper
    /// normalizes by when annualizing per-link failure rates (Table 5).
    pub lifetime_days: f64,
}

impl Link {
    /// The endpoint terminating on `router`, if this link touches it.
    pub fn endpoint_on(&self, router: RouterId) -> Option<&Endpoint> {
        if self.a.router == router {
            Some(&self.a)
        } else if self.b.router == router {
            Some(&self.b)
        } else {
            None
        }
    }

    /// The router on the far side of `router`, if this link touches it.
    pub fn other_end(&self, router: RouterId) -> Option<RouterId> {
        if self.a.router == router {
            Some(self.b.router)
        } else if self.b.router == router {
            Some(self.a.router)
        } else {
            None
        }
    }

    /// True if the link joins exactly this unordered router pair.
    pub fn joins(&self, x: RouterId, y: RouterId) -> bool {
        (self.a.router == x && self.b.router == y) || (self.a.router == y && self.b.router == x)
    }
}

/// The canonical textual link name from §3.4:
/// `(host1:port1, host2:port2)` with endpoints sorted lexically by
/// hostname (then port) so both data sources agree on it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkName(pub String);

impl LinkName {
    /// Build the canonical name from the two `(hostname, port)` pairs.
    pub fn new(h1: &str, p1: &str, h2: &str, p2: &str) -> Self {
        let (first, second) = if (h1, p1) <= (h2, p2) {
            ((h1, p1), (h2, p2))
        } else {
            ((h2, p2), (h1, p1))
        };
        let mut name = String::with_capacity(h1.len() + p1.len() + h2.len() + p2.len() + 6);
        for part in [
            "(", first.0, ":", first.1, ", ", second.0, ":", second.1, ")",
        ] {
            name.push_str(part);
        }
        LinkName(name)
    }
}

impl fmt::Display for LinkName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn sample() -> Link {
        Link {
            id: LinkId(0),
            a: Endpoint {
                router: RouterId(0),
                interface: InterfaceName::ten_gig(0),
            },
            b: Endpoint {
                router: RouterId(1),
                interface: InterfaceName::ten_gig(1),
            },
            class: LinkClass::Core,
            subnet: Subnet31::new(Ipv4Addr::new(137, 164, 0, 0)),
            metric: 10,
            parallel_group: None,
            lifetime_days: 389.0,
        }
    }

    #[test]
    fn link_name_is_order_independent() {
        let n1 = LinkName::new("lax-agg-01", "Te0/0/0/0", "sac-agg-02", "Te0/0/0/1");
        let n2 = LinkName::new("sac-agg-02", "Te0/0/0/1", "lax-agg-01", "Te0/0/0/0");
        assert_eq!(n1, n2);
        assert_eq!(
            n1.to_string(),
            "(lax-agg-01:Te0/0/0/0, sac-agg-02:Te0/0/0/1)"
        );
    }

    #[test]
    fn link_name_ties_broken_by_port() {
        let n1 = LinkName::new("lax", "Te0/0/0/1", "lax", "Te0/0/0/0");
        assert_eq!(n1.to_string(), "(lax:Te0/0/0/0, lax:Te0/0/0/1)");
    }

    #[test]
    fn endpoint_lookup() {
        let l = sample();
        assert_eq!(
            l.endpoint_on(RouterId(0)).unwrap().interface.as_str(),
            "TenGigE0/0/0/0"
        );
        assert_eq!(l.other_end(RouterId(0)), Some(RouterId(1)));
        assert_eq!(l.other_end(RouterId(1)), Some(RouterId(0)));
        assert_eq!(l.other_end(RouterId(9)), None);
        assert!(l.endpoint_on(RouterId(9)).is_none());
    }

    #[test]
    fn joins_is_unordered() {
        let l = sample();
        assert!(l.joins(RouterId(0), RouterId(1)));
        assert!(l.joins(RouterId(1), RouterId(0)));
        assert!(!l.joins(RouterId(0), RouterId(2)));
    }
}

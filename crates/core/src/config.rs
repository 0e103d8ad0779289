//! Middleware configuration.
//!
//! Construct configs through [`PhotonConfig::builder`], which validates
//! cross-field constraints (eager threshold vs ring capacity, backoff base
//! vs ceiling, …) and reports nonsense values as
//! [`PhotonError::Config`](crate::PhotonError#variant.Config). Direct struct-literal
//! construction still compiles (the fields stay public for ablation
//! experiments and tests) but is deprecated in favor of the builder: a
//! literal can silently encode a config the runtime will normalize or
//! misbehave under, while `build()` rejects it with a named reason.

use crate::{PhotonError, Result};

/// Which fabric backend a [`crate::PhotonCluster`] constructs its ranks
/// over. The middleware itself is backend-agnostic — it posts against the
/// `photon_fabric::api::FabricBackend` trait — so this knob only selects
/// what `PhotonCluster::new` builds underneath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The simulated RDMA fabric: synchronous effects, LogGP virtual time,
    /// fault injection. The default, and what every deterministic test and
    /// modeled experiment uses.
    #[default]
    Sim,
    /// The real-sockets transport: UDP datagrams over loopback (or any
    /// routable path), a per-process reactor emulating one-sided ops, and
    /// wall-clock timestamps. Completions are asynchronous — use the
    /// blocking `wait_*` APIs, not post-then-poll-once patterns.
    Sock,
}

/// Tunables of a Photon context.
///
/// Defaults follow the original implementation's order of magnitude: a few
/// hundred ledger slots and a few hundred KiB of eager space per peer, with
/// an 8 KiB eager/rendezvous threshold.
///
/// Prefer [`PhotonConfig::builder`] over struct literals — see the module
/// docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhotonConfig {
    /// Payloads at or below this size take the eager (packed) path when a
    /// remote buffer is supplied; larger payloads go direct RDMA + ledger.
    pub eager_threshold: usize,
    /// Bytes of eager ring per peer (per direction).
    pub eager_ring_bytes: usize,
    /// Completion-ledger slots per peer (per direction).
    pub ledger_entries: usize,
    /// Return ledger credits after consuming this many entries
    /// (0 = every entry; default = half the ledger).
    pub credit_interval: usize,
    /// Bytes of per-peer collective scratch space.
    pub coll_slot_bytes: usize,
    /// Wall-clock seconds a blocking wait may spin before reporting
    /// [`crate::PhotonError::Timeout`] (deadlock guard for tests).
    pub wait_timeout_secs: u64,
    /// Deliver direct-put remote completions through RDMA-write-with-
    /// immediate CQ events instead of ledger entries (the CQ-notification
    /// design alternative). One wire op instead of two, but **no
    /// credit-based flow control**: a flood can overflow the consumer's
    /// completion queue, surfacing `CqOverflow` at the producer — exactly
    /// the trade the ledger design avoids. Ablated by experiment E13.
    pub imm_completions: bool,
    /// **Test-only seeded bug**: drop every `n`-th credit-return write on
    /// the floor (0 = disabled, the only sane production value). The
    /// consumer believes it returned credits but the producer's credit
    /// words are never updated. Exists so the simulation-test invariant
    /// checkers can prove they detect credit-accounting bugs (the mutation
    /// smoke check in `crates/simtest`).
    pub skip_credit_return_interval: u64,
    /// Virtual nanoseconds a peer may stay unreachable before the first
    /// reconnection probe fires (Healthy → Suspect response deadline of the
    /// per-peer health machine).
    pub suspect_deadline_ns: u64,
    /// Initial reconnection-probe backoff in virtual nanoseconds; doubles
    /// after every failed probe.
    pub backoff_base_ns: u64,
    /// Ceiling for the exponential reconnection backoff.
    pub backoff_max_ns: u64,
    /// Failed reconnection probes before a Suspect peer is declared Dead
    /// and evicted (pending rids flushed as error completions, eager/ledger
    /// credits reclaimed).
    pub suspect_death_probes: u32,
    /// Maximum live connections a rank keeps in its lazy connection cache
    /// (`0` = unbounded, the default). When a connect would exceed the cap,
    /// the least-recently-used idle connection is evicted: its pending work
    /// requests flush as `FlushErr` completions exactly like a peer death,
    /// but the peer stays *healthy* and reconnects on the next op. Must be
    /// at least 2 when bounded — an initiator and an acceptor half can
    /// coexist during a single transfer.
    pub conn_cache_cap: usize,
    /// Modeled virtual-nanosecond cost of establishing one connection
    /// (QP bring-up + service-region key exchange), charged to the
    /// initiating rank's clock. `0` (the default) keeps first-contact
    /// setup free so steady-state experiments measure the data path only;
    /// E22 sets it explicitly to measure reconnect latency under churn.
    pub connect_cost_ns: u64,
    /// Fabric backend [`crate::PhotonCluster::new`] constructs: the
    /// simulated NIC (default) or the real-sockets transport.
    pub backend: BackendKind,
}

impl PhotonConfig {
    /// Start building a validated configuration from the defaults.
    ///
    /// ```
    /// use photon_core::PhotonConfig;
    /// let cfg = PhotonConfig::builder()
    ///     .eager_threshold(1024)
    ///     .ledger_entries(64)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.eager_threshold, 1024);
    /// assert!(PhotonConfig::builder().backoff_base_ns(10).backoff_max_ns(5).build().is_err());
    /// ```
    pub fn builder() -> PhotonConfigBuilder {
        PhotonConfigBuilder { cfg: PhotonConfig::default() }
    }

    /// Re-open this config for modification through the validating builder.
    pub fn to_builder(self) -> PhotonConfigBuilder {
        PhotonConfigBuilder { cfg: self }
    }

    /// Validate cross-field constraints; `Err(PhotonError::Config)` names
    /// every violated rule. Called by [`PhotonConfigBuilder::build`].
    pub fn validate(&self) -> Result<()> {
        let mut faults: Vec<String> = Vec::new();
        let min_ring = 4 * crate::eager::FRAME_HDR;
        if self.eager_ring_bytes < min_ring {
            faults.push(format!(
                "eager_ring_bytes {} below minimum {min_ring} (4 frame headers)",
                self.eager_ring_bytes
            ));
        } else if self.eager_threshold > self.max_eager_payload() {
            faults.push(format!(
                "eager_threshold {} exceeds max eager payload {} of a {}-byte ring \
                 (a frame may span at most half the ring)",
                self.eager_threshold,
                self.max_eager_payload(),
                self.eager_ring_bytes
            ));
        }
        if self.ledger_entries < 2 {
            faults.push(format!(
                "ledger_entries {} below minimum 2 (credit return needs headroom)",
                self.ledger_entries
            ));
        }
        if self.backoff_base_ns == 0 {
            faults.push("backoff_base_ns must be nonzero".to_string());
        }
        if self.backoff_base_ns > self.backoff_max_ns {
            faults.push(format!(
                "backoff_base_ns {} exceeds backoff_max_ns {}",
                self.backoff_base_ns, self.backoff_max_ns
            ));
        }
        if self.suspect_death_probes == 0 {
            faults.push("suspect_death_probes must be nonzero".to_string());
        }
        if self.coll_slot_bytes == 0 {
            faults.push("coll_slot_bytes must be nonzero".to_string());
        }
        if self.wait_timeout_secs == 0 {
            faults.push("wait_timeout_secs must be nonzero (it is the deadlock guard)".to_string());
        }
        if self.conn_cache_cap == 1 {
            faults.push(
                "conn_cache_cap 1 cannot hold both halves of a transfer \
                 (use 0 for unbounded, or at least 2)"
                    .to_string(),
            );
        }
        if faults.is_empty() {
            Ok(())
        } else {
            Err(PhotonError::Config(faults.join("; ")))
        }
    }

    /// Configuration with a tiny ledger/ring, for exercising backpressure in
    /// tests.
    pub fn tiny() -> Self {
        PhotonConfig {
            eager_threshold: 64,
            eager_ring_bytes: 512,
            ledger_entries: 8,
            ..PhotonConfig::default()
        }
    }

    /// Effective credit-return interval in entries.
    pub fn credit_interval_entries(&self) -> u64 {
        if self.credit_interval == 0 {
            1
        } else {
            (self.credit_interval as u64).min(self.ledger_entries as u64 / 2).max(1)
        }
    }

    /// Largest payload a single eager frame can carry.
    pub fn max_eager_payload(&self) -> usize {
        self.eager_ring_bytes / 2 - crate::eager::FRAME_HDR
    }
}

impl Default for PhotonConfig {
    fn default() -> Self {
        PhotonConfig {
            eager_threshold: 8192,
            eager_ring_bytes: 256 * 1024,
            ledger_entries: 256,
            credit_interval: 128,
            coll_slot_bytes: 64 * 1024,
            wait_timeout_secs: 30,
            imm_completions: false,
            skip_credit_return_interval: 0,
            suspect_deadline_ns: 50_000,
            backoff_base_ns: 20_000,
            backoff_max_ns: 1_000_000,
            suspect_death_probes: 12,
            conn_cache_cap: 0,
            connect_cost_ns: 0,
            backend: BackendKind::Sim,
        }
    }
}

/// Validating builder for [`PhotonConfig`]; obtain one through
/// [`PhotonConfig::builder`] or [`PhotonConfig::to_builder`].
///
/// Every setter is infallible; [`PhotonConfigBuilder::build`] checks the
/// cross-field constraints once, over the final value set, and returns
/// [`PhotonError::Config`](crate::PhotonError#variant.Config) naming each violated
/// rule.
#[derive(Debug, Clone, Copy)]
pub struct PhotonConfigBuilder {
    cfg: PhotonConfig,
}

macro_rules! builder_setters {
    ( $( $(#[doc = $doc:literal])+ $field:ident: $ty:ty, )+ ) => {
        $(
            $(#[doc = $doc])+
            pub fn $field(mut self, v: $ty) -> Self {
                self.cfg.$field = v;
                self
            }
        )+
    };
}

impl PhotonConfigBuilder {
    builder_setters! {
        /// See [`PhotonConfig::eager_threshold`].
        eager_threshold: usize,
        /// See [`PhotonConfig::eager_ring_bytes`].
        eager_ring_bytes: usize,
        /// See [`PhotonConfig::ledger_entries`].
        ledger_entries: usize,
        /// See [`PhotonConfig::credit_interval`].
        credit_interval: usize,
        /// See [`PhotonConfig::coll_slot_bytes`].
        coll_slot_bytes: usize,
        /// See [`PhotonConfig::wait_timeout_secs`].
        wait_timeout_secs: u64,
        /// See [`PhotonConfig::imm_completions`].
        imm_completions: bool,
        /// See [`PhotonConfig::suspect_deadline_ns`].
        suspect_deadline_ns: u64,
        /// See [`PhotonConfig::backoff_base_ns`].
        backoff_base_ns: u64,
        /// See [`PhotonConfig::backoff_max_ns`].
        backoff_max_ns: u64,
        /// See [`PhotonConfig::suspect_death_probes`].
        suspect_death_probes: u32,
        /// See [`PhotonConfig::conn_cache_cap`].
        conn_cache_cap: usize,
        /// See [`PhotonConfig::connect_cost_ns`].
        connect_cost_ns: u64,
        /// See [`PhotonConfig::backend`].
        backend: BackendKind,
    }

    /// Validate and produce the final configuration.
    pub fn build(self) -> Result<PhotonConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = PhotonConfig::default();
        assert!(c.eager_threshold <= c.max_eager_payload());
        assert!(c.credit_interval_entries() >= 1);
        assert!(c.credit_interval_entries() <= c.ledger_entries as u64 / 2);
    }

    #[test]
    fn tiny_config_still_valid() {
        let c = PhotonConfig::tiny();
        assert!(c.eager_threshold <= c.max_eager_payload());
        assert!(c.credit_interval_entries() >= 1);
    }

    #[test]
    fn zero_credit_interval_means_every_entry() {
        let c = PhotonConfig { credit_interval: 0, ..PhotonConfig::default() };
        assert_eq!(c.credit_interval_entries(), 1);
    }

    #[test]
    fn builder_roundtrips_and_validates() {
        let cfg = PhotonConfig::builder()
            .eager_threshold(64)
            .eager_ring_bytes(512)
            .ledger_entries(8)
            .build()
            .unwrap();
        assert_eq!(cfg, PhotonConfig::tiny());
        let again = cfg.to_builder().imm_completions(true).build().unwrap();
        assert!(again.imm_completions);
    }

    #[test]
    fn builder_rejects_threshold_beyond_ring_capacity() {
        let err = PhotonConfig::builder()
            .eager_ring_bytes(512)
            .eager_threshold(4096)
            .build()
            .unwrap_err();
        let crate::PhotonError::Config(msg) = err else { panic!("want Config, got {err:?}") };
        assert!(msg.contains("eager_threshold"), "{msg}");
    }

    #[test]
    fn builder_rejects_inverted_backoff_and_tiny_ring() {
        let err = PhotonConfig::builder()
            .backoff_base_ns(1_000_000)
            .backoff_max_ns(10)
            .eager_ring_bytes(1)
            .suspect_death_probes(0)
            .build()
            .unwrap_err();
        let crate::PhotonError::Config(msg) = err else { panic!("want Config, got {err:?}") };
        // Every violated rule is named, joined in one message.
        assert!(msg.contains("backoff_base_ns"), "{msg}");
        assert!(msg.contains("eager_ring_bytes"), "{msg}");
        assert!(msg.contains("suspect_death_probes"), "{msg}");
    }

    #[test]
    fn backend_knob_defaults_to_sim() {
        assert_eq!(PhotonConfig::default().backend, BackendKind::Sim);
        let cfg = PhotonConfig::builder().backend(BackendKind::Sock).build().unwrap();
        assert_eq!(cfg.backend, BackendKind::Sock);
    }

    #[test]
    fn conn_cache_cap_rejects_one() {
        assert_eq!(PhotonConfig::default().conn_cache_cap, 0, "unbounded is the default");
        let err = PhotonConfig::builder().conn_cache_cap(1).build().unwrap_err();
        let crate::PhotonError::Config(msg) = err else { panic!("want Config, got {err:?}") };
        assert!(msg.contains("conn_cache_cap"), "{msg}");
        assert!(PhotonConfig::builder().conn_cache_cap(2).build().is_ok());
    }

    #[test]
    fn builder_rejects_zero_guards() {
        for (i, b) in [
            PhotonConfig::builder().backoff_base_ns(0),
            PhotonConfig::builder().ledger_entries(1),
            PhotonConfig::builder().coll_slot_bytes(0),
            PhotonConfig::builder().wait_timeout_secs(0),
        ]
        .into_iter()
        .enumerate()
        {
            assert!(matches!(b.build(), Err(crate::PhotonError::Config(_))), "case {i}");
        }
    }
}

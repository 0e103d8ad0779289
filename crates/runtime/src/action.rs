//! Action registration and the handler execution context.

use crate::runtime::RtNode;
use crate::{Rank, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a registered action; identical on every rank because the
/// registry is built once and shared (same-binary discipline).
pub type ActionId = u32;

/// First id handed to user actions; below this is runtime-internal.
pub const USER_ACTION_BASE: ActionId = 16;

type ActionFn = Arc<dyn Fn(&RtContext<'_>, &[u8]) -> Option<Vec<u8>> + Send + Sync>;

/// The table of parcel handlers.
///
/// Handlers take the execution context and the payload; returning
/// `Some(bytes)` feeds the parcel's continuation LCO (if any).
#[derive(Clone, Default)]
pub struct ActionRegistry {
    actions: Vec<ActionFn>,
    names: HashMap<String, ActionId>,
}

impl ActionRegistry {
    /// An empty registry.
    pub fn new() -> ActionRegistry {
        ActionRegistry::default()
    }

    /// Register `f` under `name`; returns its id. Must be called before the
    /// runtime starts, identically on all ranks (one registry is shared).
    pub fn register(
        &mut self,
        name: &str,
        f: impl Fn(&RtContext<'_>, &[u8]) -> Option<Vec<u8>> + Send + Sync + 'static,
    ) -> ActionId {
        let id = USER_ACTION_BASE + self.actions.len() as ActionId;
        self.actions.push(Arc::new(f));
        self.names.insert(name.to_string(), id);
        id
    }

    /// Look up an action id by name.
    pub fn id_of(&self, name: &str) -> Option<ActionId> {
        self.names.get(name).copied()
    }

    /// The handler for `id`, borrowed: a dispatch costs no refcount traffic.
    pub(crate) fn get(&self, id: ActionId) -> Option<&ActionFn> {
        self.actions.get(id.checked_sub(USER_ACTION_BASE)? as usize)
    }

    /// Number of registered actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when no actions are registered.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

impl std::fmt::Debug for ActionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActionRegistry").field("actions", &self.actions.len()).finish()
    }
}

/// What a running action sees: its node, with parcel/LCO/GAS capabilities,
/// and the current parcel's continuation (if any) for delegation.
pub struct RtContext<'a> {
    pub(crate) node: &'a Arc<RtNode>,
    pub(crate) cont: Option<crate::lco::LcoRef>,
}

impl RtContext<'_> {
    /// This rank.
    pub fn rank(&self) -> Rank {
        self.node.rank()
    }

    /// Ranks in the job.
    pub fn size(&self) -> usize {
        self.node.size()
    }

    /// The node runtime (spawn, parcels, LCOs, GAS access).
    pub fn node(&self) -> &Arc<RtNode> {
        self.node
    }

    /// The continuation attached to the parcel being executed, if any.
    /// A handler that forwards work can *delegate* it with
    /// [`RtContext::send_parcel_with_cont`] instead of replying itself.
    pub fn cont(&self) -> Option<crate::lco::LcoRef> {
        self.cont
    }

    /// Fire-and-forget parcel to `target`.
    pub fn send_parcel(&self, target: Rank, action: ActionId, payload: &[u8]) -> Result<()> {
        self.node.send_parcel(target, action, payload)
    }

    /// Parcel with an explicit continuation (pass [`RtContext::cont`] to
    /// delegate the current parcel's reply obligation).
    pub fn send_parcel_with_cont(
        &self,
        target: Rank,
        action: ActionId,
        payload: &[u8],
        cont: Option<crate::lco::LcoRef>,
    ) -> Result<()> {
        self.node.send_parcel_inner(target, action, cont, payload)
    }

    /// Spawn a local task on this node's scheduler.
    pub fn spawn(&self, f: impl FnOnce(&RtContext<'_>) + Send + 'static) {
        self.node.spawn(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_assigns_dense_user_ids() {
        let mut r = ActionRegistry::new();
        let a = r.register("a", |_, _| None);
        let b = r.register("b", |_, _| None);
        assert_eq!(a, USER_ACTION_BASE);
        assert_eq!(b, USER_ACTION_BASE + 1);
        assert_eq!(r.id_of("a"), Some(a));
        assert_eq!(r.id_of("missing"), None);
        assert_eq!(r.len(), 2);
        assert!(r.get(a).is_some());
        assert!(r.get(USER_ACTION_BASE + 5).is_none());
        assert!(r.get(0).is_none(), "internal ids are not user actions");
    }
}

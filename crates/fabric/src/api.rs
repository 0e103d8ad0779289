//! The curated, backend-neutral fabric API surface.
//!
//! Everything a fabric *consumer* (the middleware, benches, tests) needs is
//! re-exported here in one coherent namespace: work-request and completion
//! types, memory registration, the backend seam, clocks and errors. Nothing
//! in this module is specific to the simulated NIC or to the sockets
//! transport — backend-specific construction lives in [`crate::nic`],
//! [`crate::topology`] and [`crate::sock`].
//!
//! ```
//! use photon_fabric::api::{Access, FabricBackend, MrSlice, SendWr, VTime, WrOp};
//! ```

pub use crate::backend::FabricBackend;
pub use crate::clock::{VClock, VTime, COPY_PS_PER_BYTE};
pub use crate::error::{FabricError, Result};
pub use crate::mr::{Access, MemoryRegion, MrTable, RemoteKey};
pub use crate::verbs::{
    Completion, CompletionKind, Cq, MrSlice, Qp, RecvWr, RemoteSlice, SendWr, WcStatus, WrOp,
};
pub use crate::NodeId;

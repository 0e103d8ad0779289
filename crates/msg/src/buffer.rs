//! Pre-registered application buffers for the zero-copy send/recv variants.

use crate::{MsgError, Result};
use photon_fabric::mr::Access;
use photon_fabric::{FabricBackend, MemoryRegion, Nic};
use std::sync::Arc;

/// A registered buffer usable with [`crate::MsgEndpoint::send_from`] and
/// [`crate::MsgEndpoint::recv_into`].
#[derive(Debug, Clone)]
pub struct MsgBuffer {
    mr: MemoryRegion,
}

impl MsgBuffer {
    pub(crate) fn register(nic: &Arc<Nic>, len: usize) -> Result<MsgBuffer> {
        Ok(MsgBuffer { mr: nic.register(len, Access::ALL)? })
    }

    /// Capacity in bytes.
    pub fn len(&self) -> usize {
        self.mr.len()
    }

    /// True for a zero-length buffer.
    pub fn is_empty(&self) -> bool {
        self.mr.is_empty()
    }

    /// Write `src` at `offset`.
    pub fn write_at(&self, offset: usize, src: &[u8]) {
        self.mr.write_at(offset, src);
    }

    /// Read into `dst` from `offset`.
    pub fn read_at(&self, offset: usize, dst: &mut [u8]) {
        self.mr.read_at(offset, dst);
    }

    /// Snapshot `len` bytes from `offset`.
    pub fn to_vec(&self, offset: usize, len: usize) -> Vec<u8> {
        self.mr.to_vec(offset, len)
    }

    /// Fill with `byte`.
    pub fn fill(&self, byte: u8) {
        self.mr.fill(byte);
    }

    /// The underlying region.
    pub(crate) fn region(&self) -> &MemoryRegion {
        &self.mr
    }

    /// Bounds check.
    pub fn check(&self, offset: usize, len: usize) -> Result<()> {
        if offset.checked_add(len).is_none_or(|end| end > self.len()) {
            return Err(MsgError::OutOfRange { offset, len, cap: self.len() });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_fabric::{Cluster, NetworkModel};

    #[test]
    fn rw_and_bounds() {
        let c = Cluster::new(1, NetworkModel::ideal());
        let b = MsgBuffer::register(c.nic(0), 32).unwrap();
        b.write_at(0, b"baseline");
        assert_eq!(b.to_vec(0, 8), b"baseline");
        assert!(b.check(24, 8).is_ok());
        assert!(b.check(25, 8).is_err());
    }
}

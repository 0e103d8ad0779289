//! Quickstart: the core Photon vocabulary in one file.
//!
//! Demonstrates, on a 2-"node" simulated FDR InfiniBand fabric:
//!   1. buffer registration and descriptor exchange,
//!   2. put-with-completion (local + remote completion ids),
//!   3. get-with-completion,
//!   4. destination-less sends (the active-message primitive),
//!   5. the legacy rendezvous protocol for a large transfer,
//!   6. a barrier.
//!
//! Run with: `cargo run --example quickstart`

use photon::core::{PhotonCluster, PhotonConfig, ProbeFlags};
use photon::fabric::NetworkModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. a two-rank job over modeled FDR InfiniBand -------------------
    let cluster = PhotonCluster::new(2, NetworkModel::ib_fdr(), PhotonConfig::default());
    let p0 = cluster.rank(0).clone();
    let p1 = cluster.rank(1).clone();

    // Registered buffers; descriptors would normally be exchanged in-band
    // or via the launcher. Here both ranks live in one process.
    let src = p0.register_buffer(4096)?;
    let dst = p1.register_buffer(4096)?;
    let dst_desc = dst.descriptor();

    // Drive rank 1 from its own thread, like a remote node.
    let peer = std::thread::spawn(move || -> Result<(), photon::core::PhotonError> {
        // --- remote side: discover completions by probing ----------------
        let ev = p1.wait_completion_matching(ProbeFlags::Remote)?;
        println!("[rank1] remote completion rid={} size={} at t={}", ev.rid, ev.size, ev.ts);
        assert_eq!(ev.rid, 99);
        // Eager puts land at probe time; tell rank 0 the data is visible.
        p1.send(0, b"", 1)?;

        // A destination-less message arrives with its payload.
        let ev = p1.wait_completion_matching(ProbeFlags::Remote)?;
        println!(
            "[rank1] message rid={} payload={:?}",
            ev.rid,
            String::from_utf8_lossy(ev.payload.as_deref().unwrap_or(&[]))
        );

        // --- rendezvous receive ------------------------------------------
        let big = p1.register_buffer(1 << 20)?;
        p1.recv_rendezvous(0, &big, 0, 1 << 20, /*tag=*/ 7)?;
        println!("[rank1] rendezvous landed, first byte = {:#x}", big.to_vec(0, 1)[0]);

        p1.barrier()?;
        Ok(())
    });

    // --- 2. put-with-completion ------------------------------------------
    src.write_at(0, b"one-sided hello");
    p0.put_with_completion(1, &src, 0, 15, &dst_desc, 0, /*local*/ 11, /*remote*/ 99)?;
    let c = p0.wait_completion_matching(ProbeFlags::Any)?;
    assert!(c.is_local(), "unexpected completion {c:?}");
    println!("[rank0] local completion rid={} at t={}", c.rid, c.ts);

    // --- 3. get-with-completion ------------------------------------------
    p0.wait_completion_matching(ProbeFlags::Remote)?; // rank 1's visibility ack for the eager put
    let pulled = p0.register_buffer(15)?;
    p0.get_with_completion(1, &pulled, 0, 15, &dst_desc, 0, 12)?;
    p0.wait_local(12)?;
    println!("[rank0] got back: {}", String::from_utf8_lossy(&pulled.to_vec(0, 15)));
    assert_eq!(pulled.to_vec(0, 15), b"one-sided hello");

    // --- 4. a destination-less send (parcel-style) ------------------------
    p0.send(1, b"probe me", 42)?;

    // --- 5. rendezvous send of 1 MiB --------------------------------------
    let big = p0.register_buffer(1 << 20)?;
    big.fill(0xAB);
    p0.send_rendezvous(1, &big, 0, 1 << 20, /*tag=*/ 7)?;

    // --- 6. synchronize and report ----------------------------------------
    p0.barrier()?;
    peer.join().unwrap()?;

    println!("[rank0] stats: {:?}", p0.stats());
    println!("[rank0] virtual time elapsed: {}", p0.now());
    assert!(p0.poll_completion(ProbeFlags::Any)?.is_none(), "all events consumed");
    println!("quickstart OK");
    Ok(())
}

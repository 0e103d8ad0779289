//! What the sockets backend counts about itself: every system call it
//! makes on the data path, every frame and train, every retransmission,
//! and who took each drain turn. Derived figures: frames per train is
//! `frames_tx / trains_tx`; system calls are `datagrams_tx + datagrams_rx`
//! plus one empty receive per drain pass and one wait per reactor wake-up.

crate::counter_registry! {
    /// Live counters of one sockets endpoint.
    registry SockStats;
    /// A point-in-time copy of a sockets endpoint's counters.
    snapshot SockStatsSnapshot;
    table SOCK_COUNTERS;
    counters {
        /// Datagrams handed to the socket (trains and standalone acks): one
        /// `sendto` each.
        datagrams_tx,
        /// Datagrams received: one successful `recv` each.
        datagrams_rx,
        /// Sequenced frames transmitted, retransmissions included.
        frames_tx,
        /// Frames decoded from received datagrams (acks included).
        frames_rx,
        /// Standalone ack datagrams sent (an ack that rode a train is not
        /// counted).
        acks_tx,
        /// Frames sent again after a retransmission timeout.
        retransmits,
        /// Retransmission timeouts that fired.
        rto_fires,
        /// Times the armed reactor's blocking receive returned a datagram.
        reactor_wakeups,
        /// Drain passes taken by a thread calling `poll_*_cq*` (or a post
        /// that found the window full).
        caller_drain_passes,
        /// Drain passes taken by the reactor thread.
        reactor_drain_passes,
        /// Progress calls and reactor turns that found the drain turn taken
        /// and left the socket to its holder.
        turn_skips,
        /// Posts whose frames left at once because nobody was polling,
        /// rather than joining a train.
        immediate_sends,
        /// Datagrams carrying sequenced frames.
        trains_tx,
    }
}

//! Coalescing all-to-all message exchange with count-based quiescence.
//!
//! The communication pattern of the parallel Louvain algorithm
//! (Algorithms 3 and 5) is an irregular personalized all-to-all: each rank
//! scans a local table and fires fine-grained messages at the owners of
//! remote vertices/communities. An [`Exchange`] phase mirrors the paper's
//! messaging layer:
//!
//! 1. [`Exchange::send`] buffers the message in a per-destination packet
//!    and flushes the packet when it reaches the coalescing capacity;
//! 2. [`Exchange::finish`] flushes the remaining partial packets, posts
//!    this rank's per-destination send counts to the shared count matrix,
//!    and — after a barrier — drains its own channel until it has received
//!    exactly the number of messages addressed to it, then invokes the
//!    handler on each in one canonical order: self-sends first, then the
//!    remote packets by ascending `(sender, transmit ordinal)`, each
//!    packet's messages in send order. A perturb seed shuffles that order
//!    (the race harness); nothing ever depends on channel arrival order;
//! 3. a final barrier guarantees no rank starts the next phase while
//!    others are still draining this one.
//!
//! A phase has the one send path above, as MPI's point-to-point layer
//! does; a caller that must not repeat a message to a rank (delta-based
//! state propagation, DESIGN.md §10) filters on the sender side.

use crate::fault::{Packet, PacketFault};
use crate::sim::{PerturbRng, CHARGE_PER_MESSAGE};
use crate::world::{CollectiveKind, RankCtx};
use std::panic::Location;
use std::sync::atomic::Ordering;

/// An in-progress communication phase. Create with
/// [`RankCtx::exchange`], feed with [`Exchange::send`], complete with
/// [`Exchange::finish`].
pub struct Exchange<'a, 'w, M: Send> {
    ctx: &'a mut RankCtx<'w, M>,
    outbufs: Vec<Vec<M>>,
    sent: Vec<u64>,
    /// Messages addressed to this rank itself: short-circuited past the
    /// channel (the standard MPI self-send optimization) and handed to
    /// the handler at `finish`.
    self_buf: Vec<M>,
    self_rank: usize,
    /// This rank's phase number (seeds the perturbation RNG).
    phase: u64,
    /// Rank-cumulative [`RankCtx::bytes_sent`] when the phase opened, so
    /// `finish` can attribute a byte delta to this phase alone.
    bytes_at_start: u64,
    /// Packets this rank has handed to the wire this phase (fault keying
    /// ordinal; counted whether or not the packet is faulted).
    xmit_ordinal: u64,
    /// Fault layer: packets held back by a `Delay` decision, per
    /// destination — re-wired after the next packet to that destination
    /// (reordering them) or at [`Exchange::finish`].
    delayed: Vec<Vec<Packet<M>>>,
    /// Fault layer: packets swallowed by a `Drop` decision, retransmitted
    /// at [`Exchange::finish`] before the quiescence counts post.
    dropped: Vec<(usize, Packet<M>)>,
    /// Call site of `ctx.exchange()`, reported by protocol diagnostics.
    loc: &'static Location<'static>,
}

impl<'w, M: Send> RankCtx<'w, M> {
    /// Starts a new communication phase. All ranks must start and finish
    /// the phase collectively.
    #[track_caller]
    pub fn exchange(&mut self) -> Exchange<'_, 'w, M> {
        let p = self.num_ranks();
        let rank = self.rank();
        let phase = self.exchange_seq.get();
        self.exchange_seq.set(phase + 1);
        if self.world.check_protocol {
            // Reset this rank's row of the flushed-message matrix for the
            // new phase. Safe without a barrier: no rank can reach this
            // point before every rank has passed the previous phase's
            // reconciliation (the phase exits through sim_sync).
            let mut actual = self.world.actual_counts.lock();
            actual[rank * p..(rank + 1) * p]
                .iter_mut()
                .for_each(|c| *c = 0);
        }
        Exchange {
            outbufs: (0..p).map(|_| Vec::new()).collect(),
            sent: vec![0; p],
            self_buf: Vec::new(),
            self_rank: rank,
            phase,
            bytes_at_start: self.bytes_sent.get(),
            xmit_ordinal: 0,
            delayed: (0..p).map(|_| Vec::new()).collect(),
            dropped: Vec::new(),
            loc: Location::caller(),
            ctx: self,
        }
    }
}

impl<'a, 'w, M: Send> Exchange<'a, 'w, M> {
    /// Sends `msg` to `dest` (buffered; flushed when the per-destination
    /// packet fills). Self-sends bypass the channel entirely.
    pub fn send(&mut self, dest: usize, msg: M) {
        debug_assert!(dest < self.outbufs.len(), "destination out of range");
        if dest == self.self_rank {
            self.self_buf.push(msg);
            return;
        }
        self.ctx.charge(CHARGE_PER_MESSAGE);
        let buf = &mut self.outbufs[dest];
        buf.push(msg);
        self.sent[dest] += 1;
        if buf.len() >= self.ctx.world.coalesce {
            let packet = std::mem::take(buf);
            self.flush_packet(dest, packet);
        }
    }

    /// Messages sent so far in this phase (including self-sends).
    #[must_use]
    pub fn sent_count(&self) -> u64 {
        self.sent.iter().sum::<u64>() + self.self_buf.len() as u64
    }

    fn flush_packet(&mut self, dest: usize, packet: Vec<M>) {
        if packet.is_empty() {
            return;
        }
        self.ctx.sent_messages += packet.len() as u64;
        self.ctx.bytes_sent.set(
            self.ctx
                .bytes_sent
                .get()
                .saturating_add((packet.len() * std::mem::size_of::<M>()) as u64),
        );
        if self.ctx.world.check_protocol {
            let p = self.ctx.world.p;
            let mut actual = self.ctx.world.actual_counts.lock();
            actual[self.self_rank * p + dest] += packet.len() as u64;
        }
        self.ctx
            .world
            .packet_counter
            .fetch_add(1, Ordering::Relaxed);
        self.transmit(dest, packet);
    }

    /// Hands one fully-accounted packet to the wire, applying the fault
    /// plan's decision for it. All logical accounting (message counts,
    /// bytes, the reconciliation matrix, the packet counter) happened in
    /// [`Exchange::flush_packet`] before this point, so every fault is
    /// invisible to quiescence and to [`CommStats`](crate::CommStats) —
    /// faults perturb the wire, never the bookkeeping.
    fn transmit(&mut self, dest: usize, msgs: Vec<M>) {
        let seq = self.xmit_ordinal;
        let decision = self.ctx.packet_fault(dest, self.phase, seq);
        self.xmit_ordinal += 1;
        let packet = Packet {
            redundant: false,
            src: self.self_rank,
            seq,
            msgs,
        };
        match decision {
            None => {
                self.wire(dest, packet);
                self.release_delayed(dest);
            }
            Some(PacketFault::Duplicate) => {
                self.ctx.fault_dups.set(self.ctx.fault_dups.get() + 1);
                self.wire(dest, packet);
                // The injected copy is tagged and empty: receivers
                // discard it unread (`M` need not be `Clone`), so a
                // duplicate can never re-deliver its messages.
                self.wire(
                    dest,
                    Packet {
                        redundant: true,
                        src: self.self_rank,
                        seq,
                        msgs: Vec::new(),
                    },
                );
                self.release_delayed(dest);
            }
            Some(PacketFault::Delay) => {
                self.ctx.fault_delays.set(self.ctx.fault_delays.get() + 1);
                self.delayed[dest].push(packet);
            }
            Some(PacketFault::Drop) => {
                self.ctx.fault_drops.set(self.ctx.fault_drops.get() + 1);
                self.dropped.push((dest, packet));
            }
        }
    }

    /// Re-wires packets held by earlier `Delay` decisions for `dest`,
    /// now that a later packet has overtaken them.
    fn release_delayed(&mut self, dest: usize) {
        for packet in std::mem::take(&mut self.delayed[dest]) {
            self.wire(dest, packet);
        }
    }

    /// Flushes everything the fault layer still holds — dropped packets
    /// (their retransmission) and delayed packets with no later packet to
    /// hide behind. Must run before the send counts post: quiescence
    /// counts promise these messages to their receivers.
    fn flush_held(&mut self) {
        for dest in 0..self.delayed.len() {
            self.release_delayed(dest);
        }
        for (dest, packet) in std::mem::take(&mut self.dropped) {
            self.wire(dest, packet);
        }
    }

    fn wire(&mut self, dest: usize, packet: Packet<M>) {
        self.ctx.world.senders[dest]
            .send(packet)
            // lint: allow(P1) — send fails only if a peer rank thread panicked; aborting is correct
            .expect("receiver alive for the duration of the run");
    }

    /// Completes the phase: flushes, synchronizes counts, and drains this
    /// rank's inbox, calling `handler` on every received message. Returns
    /// the number of messages received.
    ///
    /// With [`RuntimeConfig::check_protocol`](crate::RuntimeConfig) set,
    /// the posted send-count matrix is reconciled against the messages
    /// actually flushed to the channels before any rank starts draining,
    /// so a count bug panics with a diagnostic on every rank instead of
    /// hanging the receiver.
    pub fn finish<F: FnMut(M)>(mut self, mut handler: F) -> u64 {
        let p = self.ctx.num_ranks();
        let rank = self.ctx.rank();
        for dest in 0..p {
            let packet = std::mem::take(&mut self.outbufs[dest]);
            self.flush_packet(dest, packet);
        }
        // Retransmit dropped packets and release remaining delayed ones
        // before the counts below promise them to their receivers.
        self.flush_held();
        // Post our send-count row (self-sends never touch the channel).
        {
            let mut counts = self.ctx.world.counts.lock();
            counts[rank * p..(rank + 1) * p].copy_from_slice(&self.sent);
        }
        self.ctx
            .enter_collective(CollectiveKind::Exchange, self.loc);
        if self.ctx.world.check_protocol {
            self.reconcile_counts();
        }
        // Expected from remote ranks = column sum for this rank.
        let expected: u64 = self.self_buf.len() as u64 + {
            let counts = self.ctx.world.counts.lock();
            (0..p)
                .filter(|&r| r != rank)
                .map(|r| counts[r * p + rank])
                .sum::<u64>()
        };
        let sent_total = self.sent_count();
        let received = self.drain(expected, &mut handler);
        debug_assert_eq!(received, expected, "over-delivery detected");
        // Delivery cost (self and remote alike), then close the BSP
        // superstep — sim_sync's barriers double as the phase exit
        // barrier.
        self.ctx.charge(received as f64 * CHARGE_PER_MESSAGE);
        let clock = self.ctx.sim_sync();
        // Every field here is schedule-invariant: counts and bytes are
        // rank-local program-order quantities and `clock` is the globally
        // agreed post-sync value, so the emitted trace stays bit-identical
        // across runs and across perturb seeds.
        louvain_trace::emit_with(|| louvain_trace::Event::Exchange {
            phase: "exchange",
            sent: sent_total,
            received,
            bytes: self.ctx.bytes_sent.get() - self.bytes_at_start,
            clock,
        });
        received
    }

    /// Delivers the phase's `expected` messages. Collects every inbound
    /// packet behind the self-send buffer (treated as one more packet) and
    /// puts the remote ones in their canonical `(src, seq)` order, so the
    /// handler order is a function of the program alone, not of channel
    /// arrival order. Under a perturb seed the packets, and the messages
    /// inside each, are then shuffled by an RNG seeded from `(seed, rank,
    /// phase)`. The simulated clock is untouched — only the interleaving
    /// observable to the handler changes.
    fn drain<F: FnMut(M)>(&mut self, expected: u64, handler: &mut F) -> u64 {
        let mut packets = vec![Packet {
            redundant: false,
            src: self.self_rank,
            seq: 0,
            msgs: std::mem::take(&mut self.self_buf),
        }];
        let mut received = packets[0].msgs.len() as u64;
        while received < expected {
            let packet = self.recv_packet();
            received += packet.msgs.len() as u64;
            packets.push(packet);
        }
        // Self-sends never touch the channel: no remote packet shares
        // the first packet's `src`.
        packets[1..].sort_unstable_by_key(|p| (p.src, p.seq));
        if let Some(seed) = self.ctx.world.perturb_seed {
            let mut rng = PerturbRng::new(seed, self.self_rank as u64, self.phase);
            rng.shuffle(&mut packets);
            for packet in &mut packets {
                rng.shuffle(&mut packet.msgs);
            }
        }
        for packet in packets {
            for m in packet.msgs {
                handler(m);
            }
        }
        received
    }

    fn recv_packet(&mut self) -> Packet<M> {
        loop {
            let packet = self
                .ctx
                .rx
                .recv()
                // lint: allow(P1) — recv fails only if a peer rank thread panicked; aborting is correct
                .expect("senders alive for the duration of the run");
            if packet.redundant {
                // An injected duplicate: discard unread. Not counted
                // toward `expected` — the logical stream never contained
                // it.
                continue;
            }
            return packet;
        }
    }

    /// Compares the posted send-count matrix against the messages
    /// actually flushed to the channels. Runs on every rank after the
    /// phase-entry barrier and before any rank drains, so a mismatch
    /// panics everywhere simultaneously — naming the bad sender/receiver
    /// pairs — instead of deadlocking a receiver that waits for messages
    /// that were never sent (or leaving stray messages for the next
    /// phase).
    fn reconcile_counts(&self) {
        let p = self.ctx.world.p;
        let posted = self.ctx.world.counts.lock();
        let actual = self.ctx.world.actual_counts.lock();
        let mut detail = String::new();
        for src in 0..p {
            for dst in 0..p {
                let (po, ac) = (posted[src * p + dst], actual[src * p + dst]);
                if po != ac {
                    detail.push_str(&format!(
                        "\n  rank {src} -> rank {dst}: posted {po}, actually sent {ac}"
                    ));
                }
            }
        }
        if !detail.is_empty() {
            panic!(
                "send-count reconciliation failed for exchange at {}:{}\
                 {detail}",
                self.loc.file(),
                self.loc.line()
            );
        }
    }

    /// Test-only fault injection: corrupts this rank's *posted* send
    /// count for `dest` by `delta` messages without touching what is
    /// actually sent, so reconciliation must catch the discrepancy.
    #[cfg(test)]
    fn corrupt_posted_count(&mut self, dest: usize, delta: u64) {
        self.sent[dest] += delta;
    }
}

#[cfg(test)]
mod tests {
    use crate::world::{run, run_with_config, RuntimeConfig};

    #[test]
    fn all_to_all_delivers_exact_multiset() {
        // Every rank sends (src, i) for i in 0..src+1 to rank i % p.
        let p = 4;
        let out = run::<(usize, usize), _, _>(p, |ctx| {
            let src = ctx.rank();
            let mut ex = ctx.exchange();
            for i in 0..=src {
                ex.send(i % p, (src, i));
            }
            let mut got = Vec::new();
            ex.finish(|m| got.push(m));
            got.sort_unstable();
            got
        });
        // Reconstruct the expected multiset.
        let mut expected: Vec<Vec<(usize, usize)>> = vec![Vec::new(); p];
        for src in 0..p {
            for i in 0..=src {
                expected[i % p].push((src, i));
            }
        }
        for e in &mut expected {
            e.sort_unstable();
        }
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_exchange_completes() {
        let out = run::<u64, _, _>(3, |ctx| {
            let ex = ctx.exchange();
            ex.finish(|_| panic!("no messages expected"))
        });
        assert_eq!(out, vec![0, 0, 0]);
    }

    #[test]
    fn self_sends_loop_back() {
        let out = run::<u64, _, _>(3, |ctx| {
            let rank = ctx.rank();
            let mut ex = ctx.exchange();
            for i in 0..10u64 {
                ex.send(rank, i);
            }
            let mut sum = 0u64;
            ex.finish(|m| sum += m);
            sum
        });
        assert_eq!(out, vec![45, 45, 45]);
    }

    #[test]
    fn coalescing_capacity_one_still_correct() {
        let cfg = RuntimeConfig {
            coalesce_capacity: 1,
            ..RuntimeConfig::new(4)
        };
        let (out, stats) = run_with_config::<u32, _, _>(cfg, |ctx| {
            let p = ctx.num_ranks();
            let mut ex = ctx.exchange();
            for d in 0..p {
                for i in 0..5u32 {
                    ex.send(d, i);
                }
            }
            let mut count = 0u64;
            ex.finish(|_| count += 1);
            count
        });
        assert_eq!(out, vec![20, 20, 20, 20]);
        // With capacity 1 every remote message is its own packet; the 5
        // self-sends per rank bypass the channel and are not counted as
        // network traffic.
        assert_eq!(stats.packets, stats.messages);
        assert_eq!(stats.messages, 60);
    }

    #[test]
    fn multiple_phases_do_not_cross_contaminate() {
        let out = run::<u64, _, _>(4, |ctx| {
            let mut totals = Vec::new();
            for phase in 0..5u64 {
                let rank = ctx.rank();
                let mut ex = ctx.exchange();
                // Send `phase` tagged messages to the next rank.
                let dest = (rank + 1) % 4;
                for _ in 0..(rank + 1) {
                    ex.send(dest, phase);
                }
                let mut sum_tags = 0u64;
                let mut count = 0u64;
                ex.finish(|m| {
                    sum_tags += m;
                    count += 1;
                });
                // All received tags must equal the current phase.
                assert_eq!(sum_tags, phase * count);
                totals.push(count);
            }
            totals
        });
        // Rank r receives from rank (r+3)%4 which sends (r+3)%4+1 messages.
        for (r, counts) in out.iter().enumerate() {
            let expect = ((r + 3) % 4 + 1) as u64;
            assert!(counts.iter().all(|&c| c == expect), "rank {r}: {counts:?}");
        }
    }

    #[test]
    fn zero_message_phase_is_pure_quiescence() {
        // No rank sends anything: finish must still synchronize, post
        // all-zero count rows, reconcile them, and return 0 — with the
        // protocol checks explicitly on.
        let cfg = RuntimeConfig {
            check_protocol: true,
            ..RuntimeConfig::new(4)
        };
        let (out, stats) = run_with_config::<u64, _, _>(cfg, |ctx| {
            let ex = ctx.exchange();
            ex.finish(|_| panic!("no messages expected"))
        });
        assert_eq!(out, vec![0, 0, 0, 0]);
        assert_eq!(stats.messages, 0);
        assert_eq!(stats.packets, 0);
    }

    #[test]
    fn send_exactly_at_capacity_flushes_one_full_packet() {
        // Exactly `capacity` messages to one destination: the packet
        // flushes eagerly on the last send and finish flushes nothing, so
        // the wire carries exactly one packet per sender.
        let cap = 8;
        let cfg = RuntimeConfig {
            coalesce_capacity: cap,
            check_protocol: true,
            ..RuntimeConfig::new(2)
        };
        let (out, stats) = run_with_config::<u32, _, _>(cfg, |ctx| {
            let dest = 1 - ctx.rank();
            let mut ex = ctx.exchange();
            for i in 0..cap as u32 {
                ex.send(dest, i);
            }
            let mut count = 0u64;
            ex.finish(|_| count += 1);
            count
        });
        assert_eq!(out, vec![cap as u64, cap as u64]);
        assert_eq!(stats.messages, 2 * cap as u64);
        assert_eq!(stats.packets, 2, "no partial packet should remain");
    }

    #[test]
    fn self_sends_deliver_inside_finish_before_remote_messages() {
        // The self-send short-circuit buffers messages locally and hands
        // them to the handler at finish — before any remote delivery on
        // the unperturbed path.
        let out = run::<(usize, u64), _, _>(2, |ctx| {
            let rank = ctx.rank();
            let mut ex = ctx.exchange();
            for i in 0..3u64 {
                ex.send(rank, (rank, i));
            }
            for i in 0..2u64 {
                ex.send(1 - rank, (1 - rank, 100 + i));
            }
            assert_eq!(ex.sent_count(), 5);
            let mut order = Vec::new();
            ex.finish(|m| order.push(m));
            order
        });
        for (rank, order) in out.iter().enumerate() {
            assert_eq!(order.len(), 5);
            let (own, remote) = order.split_at(3);
            assert!(own.iter().all(|&(r, v)| r == rank && v < 3), "{order:?}");
            assert!(
                remote.iter().all(|&(r, v)| r == rank && v >= 100),
                "{order:?}"
            );
        }
    }

    #[test]
    fn unperturbed_delivery_is_canonical() {
        // Four ranks, packets of four: each rank receives several packets
        // from each of three senders, so arrival order interleaves them.
        // The handler must still see the self-sends first, then the
        // remote packets by ascending (sender, transmit ordinal), each in
        // send order — which here is every remote message sorted by
        // (sender, index).
        let cfg = RuntimeConfig {
            coalesce_capacity: 4,
            check_protocol: true,
            ..RuntimeConfig::new(4)
        };
        let (out, _) = run_with_config::<(usize, u64), _, _>(cfg, |ctx| {
            let p = ctx.num_ranks();
            let rank = ctx.rank();
            let mut ex = ctx.exchange();
            for i in 0..40u64 {
                ex.send((rank + i as usize) % p, (rank, i));
            }
            let mut order = Vec::new();
            ex.finish(|m| order.push(m));
            order
        });
        for (rank, order) in out.iter().enumerate() {
            let senders = std::iter::once(rank).chain((0..4).filter(|&s| s != rank));
            let expected: Vec<(usize, u64)> = senders
                .flat_map(|src| {
                    (0..40u64)
                        .filter(move |&i| (src + i as usize) % 4 == rank)
                        .map(move |i| (src, i))
                })
                .collect();
            assert_eq!(*order, expected, "rank {rank}");
        }
    }

    #[test]
    #[should_panic(expected = "send-count reconciliation")]
    fn corrupted_posted_count_is_diagnosed_not_hung() {
        // Mutation test: an off-by-one in a posted send count would make
        // the receiver wait forever for a message that was never sent.
        // Reconciliation must turn that into a panic on every rank.
        let cfg = RuntimeConfig {
            check_protocol: true,
            ..RuntimeConfig::new(2)
        };
        let _ = run_with_config::<u32, _, _>(cfg, |ctx| {
            let rank = ctx.rank();
            let mut ex = ctx.exchange();
            ex.send(1 - rank, 7);
            if rank == 0 {
                ex.corrupt_posted_count(1, 1);
            }
            ex.finish(|_| ())
        });
    }

    #[test]
    fn perturbed_delivery_is_seed_deterministic_and_seed_sensitive() {
        // The same seed must reproduce the exact handler invocation
        // order; different seeds must produce a different order (same
        // multiset). This is what makes the race harness adversarial yet
        // reproducible.
        let order_for = |seed: Option<u64>| {
            let cfg = RuntimeConfig {
                coalesce_capacity: 4,
                perturb_seed: seed,
                check_protocol: true,
                ..RuntimeConfig::new(4)
            };
            run_with_config::<u64, _, _>(cfg, |ctx| {
                let p = ctx.num_ranks();
                let rank = ctx.rank() as u64;
                let mut ex = ctx.exchange();
                for i in 0..40u64 {
                    ex.send(((rank + i) % p as u64) as usize, rank * 1000 + i);
                }
                let mut order = Vec::new();
                ex.finish(|m| order.push(m));
                order
            })
            .0
        };
        let a1 = order_for(Some(1));
        let a2 = order_for(Some(1));
        let b = order_for(Some(2));
        assert_eq!(a1, a2, "same seed must replay the same schedule");
        assert_ne!(a1, b, "different seeds must perturb differently");
        // All schedules deliver the same multiset per rank.
        let sorted = |runs: &[Vec<u64>]| {
            runs.iter()
                .map(|v| {
                    let mut v = v.clone();
                    v.sort_unstable();
                    v
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(sorted(&a1), sorted(&b));
    }

    #[test]
    fn large_volume_exchange() {
        let out = run::<u64, _, _>(8, |ctx| {
            let p = ctx.num_ranks();
            let rank = ctx.rank() as u64;
            let mut ex = ctx.exchange();
            for i in 0..10_000u64 {
                ex.send(((rank + i) % p as u64) as usize, rank * 10_000 + i);
            }
            let mut checksum = 0u64;
            let n = ex.finish(|m| checksum ^= m);
            (n, checksum)
        });
        let total: u64 = out.iter().map(|&(n, _)| n).sum();
        assert_eq!(total, 80_000);
    }
}

//! File transfer components (§V-A.1): a sender that splits a dataset into
//! 65 kB messages and streams them with `MessageNotify`-based pipelining,
//! and a receiver that writes them to a simulated disk, verifies content
//! and measures throughput.
//!
//! Mirrors the paper's design: chunks are read from "disk" asynchronously
//! (the read never outpaces the disk model), sends are fire-and-pipeline
//! (a bounded number of outstanding notifications), and the disk-to-disk
//! transfer time is taken at the receiver when the last byte hits its
//! disk.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use kmsg_component::prelude::*;
use kmsg_core::prelude::*;
use kmsg_netsim::slab::FxHashMap;
use kmsg_netsim::time::SimTime;

use crate::dataset::{chunk_hash, Dataset};
use crate::disk::DiskModel;
use crate::msgs::ChunkMsg;

/// Sender configuration.
#[derive(Debug, Clone)]
pub struct SenderConfig {
    /// The dataset to transfer.
    pub dataset: Dataset,
    /// This host's address (message source).
    pub src: NetAddress,
    /// The receiver's address.
    pub dst: NetAddress,
    /// Transport for the chunks: `Tcp`, `Udt` or `Data`.
    pub transport: Transport,
    /// Chunk payload size (the paper: 65 kB).
    pub chunk_size: usize,
    /// How many times to send the dataset back to back. The middleware
    /// (and any learner in it) stays up between rounds, modelling the
    /// paper's repeated runs against a long-lived deployment.
    pub rounds: u32,
    /// Read-side disk; `None` for memory-to-memory sends.
    pub disk_rate: Option<f64>,
}

impl SenderConfig {
    /// A sender with the paper's defaults (65 kB chunks, pipelined,
    /// disk-backed).
    #[must_use]
    pub fn new(dataset: Dataset, src: NetAddress, dst: NetAddress, transport: Transport) -> Self {
        SenderConfig {
            dataset,
            src,
            dst,
            transport,
            chunk_size: crate::dataset::PAPER_CHUNK_SIZE,
            rounds: 1,
            disk_rate: Some(crate::disk::DISK_RATE),
        }
    }
}

/// Maximum chunks awaiting a `Sent` notification. `Sent` notifications
/// fire on transport acknowledgement, so the pipeline must cover the
/// largest bandwidth-delay product (UDT at ~10 MB/s over 320 ms needs
/// ~3.2 MB in flight).
const PIPELINE_DEPTH: usize = 96;

/// Live sender-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SenderStats {
    /// Bytes handed to the network layer.
    pub bytes_sent: u64,
    /// Bytes confirmed `Sent` by the network layer.
    pub bytes_confirmed: u64,
    /// Failed sends.
    pub failures: u64,
    /// When the last chunk was confirmed.
    pub done_at: Option<SimTime>,
}

/// Shared handle to a sender's stats.
pub(crate) type SenderStatsHandle = Arc<Mutex<SenderStats>>;

/// The sending component.
pub struct FileSender {
    /// Network port.
    pub(crate) net: RequiredPort<NetworkPort>,
    cfg: SenderConfig,
    round: u32,
    next_offset: usize,
    /// Chunk lengths by token. Fx-hashed: a `std` map's per-process seed
    /// decided whether its churn grew the table, so allocations varied.
    outstanding: FxHashMap<u64, usize>,
    next_token: u64,
    disk: Option<DiskModel>,
    waiting_for_disk: bool,
    stats: SenderStatsHandle,
}

impl std::fmt::Debug for FileSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileSender")
            .field("next_offset", &self.next_offset)
            .field("outstanding", &self.outstanding.len())
            .finish()
    }
}

impl FileSender {
    /// Creates the sender.
    ///
    /// # Panics
    ///
    /// If `cfg.chunk_size` is zero.
    #[must_use]
    pub fn new(cfg: SenderConfig) -> Self {
        assert!(cfg.chunk_size > 0, "chunk size must be positive");
        let disk = cfg.disk_rate.map(DiskModel::new);
        FileSender {
            net: RequiredPort::new(),
            cfg,
            round: 0,
            next_offset: 0,
            outstanding: FxHashMap::default(),
            next_token: 1,
            disk,
            waiting_for_disk: false,
            stats: Arc::new(Mutex::new(SenderStats::default())),
        }
    }

    /// The live stats handle.
    #[must_use]
    pub fn stats(&self) -> SenderStatsHandle {
        self.stats.clone()
    }

    fn build_message(&self, offset: u64, data: kmsg_telemetry::bytes::Bytes) -> NetMessage {
        let chunk = ChunkMsg { offset, data };
        match self.cfg.transport {
            Transport::Data => NetMessage::with_header(
                NetHeader::Data(DataHeader::new(self.cfg.src, self.cfg.dst)),
                chunk,
            ),
            proto => NetMessage::new(self.cfg.src, self.cfg.dst, proto, chunk),
        }
    }

    fn all_rounds_sent(&self) -> bool {
        self.round + 1 >= self.cfg.rounds.max(1) && self.next_offset >= self.cfg.dataset.size
    }

    fn pump(&mut self, ctx: &mut ComponentContext) {
        let now = ctx.now();
        while self.outstanding.len() < PIPELINE_DEPTH {
            if self.next_offset >= self.cfg.dataset.size {
                if self.round + 1 >= self.cfg.rounds.max(1) {
                    return;
                }
                self.round += 1;
                self.next_offset = 0;
            }
            // Respect the read disk: wait until it catches up.
            if let Some(disk) = &self.disk {
                let busy = disk.busy_until();
                if busy > now {
                    if !self.waiting_for_disk {
                        self.waiting_for_disk = true;
                        ctx.schedule_once(busy.duration_since(now));
                    }
                    return;
                }
            }
            let len = self
                .cfg
                .chunk_size
                .min(self.cfg.dataset.size - self.next_offset);
            if let Some(disk) = &mut self.disk {
                let _ready = disk.access(now, len);
            }
            let data = self.cfg.dataset.chunk(self.next_offset, len);
            // Offsets are globally unique across rounds so the receiver can
            // de-duplicate and attribute bytes to rounds.
            let global =
                u64::from(self.round) * self.cfg.dataset.size as u64 + self.next_offset as u64;
            let msg = self.build_message(global, data);
            let token = NotifyToken::new(self.next_token);
            self.next_token += 1;
            self.outstanding.insert(token.id, len);
            self.next_offset += len;
            self.stats.lock().bytes_sent += len as u64;
            self.net.trigger(NetRequest::NotifyReq(token, msg));
        }
    }
}

impl ComponentDefinition for FileSender {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        kmsg_component::execute_ports!(self, ctx, max, [required net: NetworkPort])
    }

    fn handle_control(&mut self, ctx: &mut ComponentContext, event: ControlEvent) {
        if event == ControlEvent::Start {
            self.pump(ctx);
        }
    }

    fn on_timeout(&mut self, ctx: &mut ComponentContext, _id: TimeoutId) {
        self.waiting_for_disk = false;
        self.pump(ctx);
    }
}

impl Require<NetworkPort> for FileSender {
    fn handle(&mut self, ctx: &mut ComponentContext, ev: NetIndication) {
        if let NetIndication::NotifyResp(token, status) = ev {
            if let Some(len) = self.outstanding.remove(&token.id) {
                let mut stats = self.stats.lock();
                if status.is_success() {
                    stats.bytes_confirmed += len as u64;
                } else {
                    stats.failures += 1;
                }
                let complete = self.all_rounds_sent() && self.outstanding.is_empty();
                if complete && stats.done_at.is_none() {
                    stats.done_at = Some(ctx.now());
                }
                drop(stats);
                self.pump(ctx);
            }
        }
    }
}

impl RequireRef<NetworkPort> for FileSender {
    fn required_port(&mut self) -> &mut RequiredPort<NetworkPort> {
        &mut self.net
    }
}

/// Receiver configuration.
#[derive(Debug, Clone)]
pub struct ReceiverConfig {
    /// Expected dataset (for size and checksum verification).
    pub dataset: Dataset,
    /// Chunk size the sender uses (for checksum verification).
    pub chunk_size: usize,
    /// Expected number of back-to-back dataset rounds.
    pub rounds: u32,
    /// Write-side disk; `None` for memory-to-memory.
    pub disk_rate: Option<f64>,
    /// Interval for the per-window throughput/ratio samples.
    pub sample_every: Duration,
}

impl ReceiverConfig {
    /// A receiver matching [`SenderConfig::new`] defaults.
    #[must_use]
    pub fn new(dataset: Dataset) -> Self {
        ReceiverConfig {
            dataset,
            chunk_size: crate::dataset::PAPER_CHUNK_SIZE,
            rounds: 1,
            disk_rate: Some(crate::disk::DISK_RATE),
            sample_every: Duration::from_secs(1),
        }
    }
}

/// One receiver-side sample window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceiverSample {
    /// End of the window.
    pub time: SimTime,
    /// Goodput in the window, bytes/s.
    pub throughput: f64,
    /// Chunks that arrived over TCP in the window.
    pub tcp_msgs: u64,
    /// Chunks that arrived over UDT in the window.
    pub udt_msgs: u64,
}

impl ReceiverSample {
    /// The window's *true protocol ratio* in signed form (−1 ≙ all TCP,
    /// +1 ≙ all UDT); `None` for an empty window.
    #[must_use]
    pub fn wire_ratio(&self) -> Option<f64> {
        let total = self.tcp_msgs + self.udt_msgs;
        if total == 0 {
            None
        } else {
            Some(2.0 * self.udt_msgs as f64 / total as f64 - 1.0)
        }
    }
}

/// Live receiver-side counters.
#[derive(Debug, Clone, Default)]
pub struct ReceiverStats {
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Chunks received.
    pub chunks: u64,
    /// Duplicate chunks (same offset seen twice).
    pub duplicates: u64,
    /// Chunks that arrived below the highest offset seen so far without
    /// being duplicates. Zero on a calm single-channel run (FIFO); DATA
    /// runs and supervised reconnects legitimately reorder.
    pub(crate) out_of_order: u64,
    /// Accumulated order-independent checksum.
    pub checksum: u64,
    /// Completion time: the last byte of the final round written to disk.
    pub(crate) done_at: Option<SimTime>,
    /// Completion time of each round.
    pub round_done_at: Vec<SimTime>,
    /// Per-window samples.
    pub samples: Vec<ReceiverSample>,
    /// Total chunks per transport (indexed by `Transport::to_byte`).
    pub by_transport: [u64; 4],
}

/// Shared handle to a receiver's stats.
pub(crate) type ReceiverStatsHandle = Arc<Mutex<ReceiverStats>>;

/// The receiving component.
pub struct FileReceiver {
    /// Network port.
    pub(crate) net: RequiredPort<NetworkPort>,
    cfg: ReceiverConfig,
    disk: Option<DiskModel>,
    seen_offsets: std::collections::HashSet<u64>,
    max_offset_seen: Option<u64>,
    window_bytes: u64,
    window_tcp: u64,
    window_udt: u64,
    window_started: SimTime,
    stats: ReceiverStatsHandle,
    tracer: Option<kmsg_telemetry::Tracer>,
}

impl std::fmt::Debug for FileReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileReceiver")
            .field("received", &self.stats.lock().bytes_received)
            .finish()
    }
}

impl FileReceiver {
    /// Creates the receiver.
    ///
    /// # Panics
    ///
    /// If `cfg.chunk_size` is zero.
    #[must_use]
    pub fn new(cfg: ReceiverConfig) -> Self {
        assert!(cfg.chunk_size > 0, "chunk size must be positive");
        let disk = cfg.disk_rate.map(DiskModel::new);
        FileReceiver {
            net: RequiredPort::new(),
            cfg,
            disk,
            seen_offsets: std::collections::HashSet::new(),
            max_offset_seen: None,
            window_bytes: 0,
            window_tcp: 0,
            window_udt: 0,
            window_started: SimTime::ZERO,
            stats: Arc::new(Mutex::new(ReceiverStats::default())),
            tracer: None,
        }
    }

    /// Bridges duplicate-suppression into a telemetry recorder: each chunk
    /// absorbed by offset dedup leaves a root `dedup` instant span keyed by
    /// the duplicated offset.
    pub fn attach_tracer(&mut self, tracer: kmsg_telemetry::Tracer) {
        self.tracer = Some(tracer);
    }

    /// The live stats handle.
    #[must_use]
    pub fn stats(&self) -> ReceiverStatsHandle {
        self.stats.clone()
    }

    /// Whether all bytes of all rounds arrived and the accumulated
    /// checksum matches.
    #[must_use]
    pub fn verified(&self) -> bool {
        let stats = self.stats.lock();
        let rounds = u64::from(self.cfg.rounds.max(1));
        stats.bytes_received == self.cfg.dataset.size as u64 * rounds
            && stats.checksum
                == self
                    .cfg
                    .dataset
                    .checksum(self.cfg.chunk_size)
                    .wrapping_mul(rounds)
    }
}

impl ComponentDefinition for FileReceiver {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        kmsg_component::execute_ports!(self, ctx, max, [required net: NetworkPort])
    }

    fn handle_control(&mut self, ctx: &mut ComponentContext, event: ControlEvent) {
        if event == ControlEvent::Start {
            self.window_started = ctx.now();
            ctx.schedule_periodic(self.cfg.sample_every, self.cfg.sample_every);
        }
    }

    fn on_timeout(&mut self, ctx: &mut ComponentContext, _id: TimeoutId) {
        let now = ctx.now();
        let dt = now.duration_since(self.window_started).as_secs_f64();
        let throughput = if dt > 0.0 {
            self.window_bytes as f64 / dt
        } else {
            0.0
        };
        self.stats.lock().samples.push(ReceiverSample {
            time: now,
            throughput,
            tcp_msgs: self.window_tcp,
            udt_msgs: self.window_udt,
        });
        self.window_bytes = 0;
        self.window_tcp = 0;
        self.window_udt = 0;
        self.window_started = now;
    }
}

impl Require<NetworkPort> for FileReceiver {
    fn handle(&mut self, ctx: &mut ComponentContext, ev: NetIndication) {
        let NetIndication::Msg(msg) = ev else {
            return;
        };
        let Ok(chunk) = msg.try_deserialise::<ChunkMsg, ChunkMsg>() else {
            return; // not a chunk (e.g. a ping sharing the port)
        };
        let now = ctx.now();
        let len = chunk.data.len();
        let proto = msg.header().protocol();
        let mut stats = self.stats.lock();
        if !self.seen_offsets.insert(chunk.offset) {
            stats.duplicates += 1;
            if let Some(tr) = &self.tracer {
                use kmsg_telemetry::{SpanId, SpanKind};
                tr.instant(
                    now.as_nanos(),
                    SpanKind::Dedup,
                    SpanId::NONE,
                    SpanId::NONE,
                    chunk.offset,
                );
            }
            return;
        }
        // Offsets are sent in strictly increasing global order, so a fresh
        // chunk below the running maximum arrived out of order.
        match self.max_offset_seen {
            Some(max) if chunk.offset < max => stats.out_of_order += 1,
            _ => self.max_offset_seen = Some(self.max_offset_seen.unwrap_or(0).max(chunk.offset)),
        }
        stats.bytes_received += len as u64;
        stats.chunks += 1;
        let rel = chunk.offset % self.cfg.dataset.size as u64;
        stats.checksum = stats.checksum.wrapping_add(chunk_hash(rel, &chunk.data));
        stats.by_transport[proto.to_byte() as usize] += 1;
        self.window_bytes += len as u64;
        match proto {
            Transport::Tcp => self.window_tcp += 1,
            Transport::Udt => self.window_udt += 1,
            _ => {}
        }
        let write_done = match &mut self.disk {
            Some(disk) => disk.access(now, len),
            None => now,
        };
        let total = self.cfg.dataset.size as u64 * u64::from(self.cfg.rounds.max(1));
        let next_round_edge = self.cfg.dataset.size as u64 * (stats.round_done_at.len() as u64 + 1);
        if stats.bytes_received >= next_round_edge {
            stats.round_done_at.push(write_done);
        }
        if stats.bytes_received >= total && stats.done_at.is_none() {
            stats.done_at = Some(write_done);
        }
    }
}

impl RequireRef<NetworkPort> for FileReceiver {
    fn required_port(&mut self) -> &mut RequiredPort<NetworkPort> {
        &mut self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmsg_netsim::NodeId;

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn sender_rejects_a_zero_chunk_size() {
        let addr = NetAddress::new(NodeId::from_index(0), 1);
        let cfg = SenderConfig::new(Dataset::climate(1000, 1), addr, addr, Transport::Tcp);
        let _ = FileSender::new(SenderConfig {
            chunk_size: 0,
            ..cfg
        });
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn receiver_rejects_a_zero_chunk_size() {
        let cfg = ReceiverConfig::new(Dataset::climate(1000, 1));
        let _ = FileReceiver::new(ReceiverConfig {
            chunk_size: 0,
            ..cfg
        });
    }
}

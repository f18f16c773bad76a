#include "pipeline/pipeline.hpp"

#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <queue>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>

#include "dns/message.hpp"
#include "flow/table.hpp"
#include "obs/flight.hpp"
#include "packet/headers.hpp"
#include "pcap/pcapng.hpp"
#include "pipeline/spsc_ring.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace dnh::pipeline {

namespace {

// Ring batch sizes: how many frames move per acquire/release pair on the
// produce (dispatcher staging) and consume (worker drain) sides. Small
// enough that a batch adds negligible latency at line rate, large enough
// to amortize the cross-core cache-line bounce.
constexpr std::size_t kDispatchBatch = 8;
constexpr std::size_t kConsumeBatch = 8;

// Fibonacci-based avalanche (splitmix64 finalizer): adjacent client
// addresses — the common case in access networks, where one /24 holds the
// whole customer base — must not land on the same shard.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Producer-side wait ladder: burn a few iterations (the consumer is
// usually a cache miss away), then yield, then sleep so a stalled peer on
// an oversubscribed machine does not starve it of the CPU it needs to
// make the very progress we are waiting for.
void backoff(unsigned& spins) {
  ++spins;
  if (spins < 16) return;
  if (spins < 64) {
    std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(50));
}

// Best-effort shard pinning (PipelineConfig::pin_shards): affine the
// calling worker to one CPU so its flat hash tables and Clist stay warm
// in a single core's cache. CPU 0 is left to the dispatcher/merge/OS;
// shard i takes (i+1) mod hw_threads. Every failure mode — non-Linux,
// single-core box, cpuset-restricted container — degrades to a silent
// no-op: pinning is a locality hint and must never affect correctness.
void pin_to_cpu(std::size_t shard) {
#ifdef __linux__
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>((shard + 1) % hw), &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
#else
  (void)shard;
#endif
}

void accumulate(core::DegradationStats& into,
                const core::DegradationStats& from) {
  into.frames_truncated += from.frames_truncated;
  into.bad_ip_headers += from.bad_ip_headers;
  into.bad_l4_headers += from.bad_l4_headers;
  into.unsupported_frames += from.unsupported_frames;
  into.timestamp_regressions += from.timestamp_regressions;
  into.dns_truncated += from.dns_truncated;
  into.dns_pointer_loops += from.dns_pointer_loops;
  into.dns_pointer_out_of_range += from.dns_pointer_out_of_range;
  into.dns_bad_names += from.dns_bad_names;
  into.dns_count_lies += from.dns_count_lies;
  into.tcp_dns_overflows += from.tcp_dns_overflows;
  into.tcp_dns_buffer_evictions += from.tcp_dns_buffer_evictions;
  into.dns_log_evictions += from.dns_log_evictions;
  into.capture_resyncs += from.capture_resyncs;
  into.capture_bytes_skipped += from.capture_bytes_skipped;
  into.capture_truncated_tails += from.capture_truncated_tails;
  into.pipeline_frames_dropped += from.pipeline_frames_dropped;
}

void accumulate(core::SnifferStats& into, const core::SnifferStats& from) {
  into.frames += from.frames;
  into.decode_failures += from.decode_failures;
  into.dns_responses += from.dns_responses;
  into.dns_parse_failures += from.dns_parse_failures;
  into.dns_queries += from.dns_queries;
  into.dns_tcp_messages += from.dns_tcp_messages;
  into.flows_exported += from.flows_exported;
  into.flows_tagged_at_start += from.flows_tagged_at_start;
  into.flows_tagged_at_export += from.flows_tagged_at_export;
  into.export_records += from.export_records;
  accumulate(into.degradation, from.degradation);
}

util::Duration steady_elapsed(std::chrono::steady_clock::time_point from,
                              std::chrono::steady_clock::time_point to) {
  return util::Duration::micros(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

// Pipeline-stage instrumentation (docs/observability.md). Counters are
// process-wide sums over every ShardedAnalyzer instance; per-shard depth
// gauges live on the instance because they carry {shard=N} labels.
struct PipelineMetrics {
  obs::Registry& r = obs::Registry::global();
  obs::Counter frames_dispatched =
      r.counter("dnh_pipeline_frames_dispatched_total");
  obs::Counter records_dispatched =
      r.counter("dnh_pipeline_records_dispatched_total");
  obs::Counter frames_dropped = r.counter("dnh_pipeline_frames_dropped_total");
  obs::Counter blocked_pushes = r.counter("dnh_pipeline_blocked_pushes_total");
  obs::Counter windows_merged = r.counter("dnh_pipeline_windows_merged_total");
  obs::Counter spill_records = r.counter("dnh_spill_records_total");
  obs::Counter stalls = r.counter("dnh_pipeline_stalls_total");
  obs::Histogram dispatch_ns = r.histogram("dnh_stage_dispatch_ns");
  obs::Histogram sniff_ns = r.histogram("dnh_stage_shard_sniff_ns");
  obs::Histogram merge_ns = r.histogram("dnh_stage_merge_ns");
  obs::Histogram depth_samples =
      r.histogram("dnh_shard_queue_depth_samples");
};

PipelineMetrics& pipeline_metrics() {
  static PipelineMetrics metrics;
  return metrics;
}

std::string shard_label(std::string_view base, std::size_t shard) {
  return std::string{base} + "{shard=" + std::to_string(shard) + "}";
}

}  // namespace

bool canonical_less(const core::TaggedFlow& a, const core::TaggedFlow& b) {
  return std::tie(a.first_packet, a.key, a.last_packet, a.packets_c2s,
                  a.packets_s2c, a.bytes_c2s, a.bytes_s2c, a.protocol,
                  a.fqdn, a.dns_response_time, a.tagged_at_start,
                  a.dpi_label, a.cert_cn, a.cert_san, a.has_certificate) <
         std::tie(b.first_packet, b.key, b.last_packet, b.packets_c2s,
                  b.packets_s2c, b.bytes_c2s, b.bytes_s2c, b.protocol,
                  b.fqdn, b.dns_response_time, b.tagged_at_start,
                  b.dpi_label, b.cert_cn, b.cert_san, b.has_certificate);
}

bool canonical_less(const core::DnsEvent& a, const core::DnsEvent& b) {
  return std::tie(a.time, a.client, a.fqdn, a.servers) <
         std::tie(b.time, b.client, b.fqdn, b.servers);
}

void canonicalize(core::FlowDatabase& db) {
  std::vector<core::TaggedFlow> flows = db.take_flows();
  std::sort(flows.begin(), flows.end(),
            [](const auto& a, const auto& b) { return canonical_less(a, b); });
  for (auto& flow : flows) db.add(std::move(flow));
}

void canonicalize(std::vector<core::DnsEvent>& log) {
  std::sort(log.begin(), log.end(),
            [](const auto& a, const auto& b) { return canonical_less(a, b); });
}

namespace {

static_assert(std::is_trivially_copyable_v<flowexport::OrientedRecord>);

/// kRotate/kStop payload.
struct Control {
  util::Timestamp start;  ///< window bounds
  util::Timestamp end;
  bool deliver = true;  ///< kStop: hand the final window to the sink?
  /// kStop: may the final window be spilled/journaled? False on a
  /// drain-interrupted run — the flush window covers only the frames
  /// ingested before the drain, so journaling it as sealed would make a
  /// later --resume serve a truncated window where an uninterrupted run
  /// computes a full one.
  bool durable = true;
};

// Arena size: 256 bytes per ring slot (the test corpora average under
// 100 bytes a frame), and never under twice pcap's largest record, so a
// classic-pcap frame always fits once the shard has caught up.
constexpr std::size_t kArenaBytesPerSlot = 256;
constexpr std::size_t kMinArenaBytes = 512 * 1024;

// A shard's payload bytes: a power-of-two byte ring the dispatcher fills
// in ring order and the worker frees by publishing how far it has
// consumed (the Lamport pattern again, over bytes: the producer caches
// the consumer's cursor and reloads it only when the arena looks full).
// Positions are monotone byte counts; a payload never wraps — one that
// would straddle the end starts at the next lap — so the worker always
// reads it contiguous. The buffer is allocated on the shard's first item
// and replaced only while the shard holds no payload, for a payload
// longer than half of it (pcapng blocks reach 16 MiB).
class PayloadArena {
 public:
  explicit PayloadArena(std::size_t queue_capacity)
      : default_capacity_{std::max(
            kMinArenaBytes,
            std::bit_ceil(queue_capacity) * kArenaBytesPerSlot)} {}

  // Producer side (the dispatcher thread).

  /// True when `n` bytes need a larger buffer (or the first one).
  bool needs_growth(std::size_t n) const noexcept {
    return 2 * n > capacity_;
  }

  /// Reserves `n` contiguous bytes at the write position; false when the
  /// consumer has not freed enough yet. Requires !needs_growth(n).
  bool try_reserve(std::size_t n, std::uint64_t& offset) noexcept {
    std::uint64_t start = write_;
    if ((start & mask_) + n > capacity_) start = (start | mask_) + 1;
    if (start + n - released_cache_ > capacity_) {
      released_cache_ = released_.load(std::memory_order_acquire);
      if (start + n - released_cache_ > capacity_) return false;
    }
    offset = start;
    write_ = start + n;
    return true;
  }

  /// Items up to position `end` are now in the ring.
  void commit(std::uint64_t end) noexcept { committed_ = end; }
  /// Forgets reservations past the last commit (their items were shed).
  void drop_uncommitted() noexcept { write_ = committed_; }

  /// True when the consumer has released every committed byte (the
  /// caller must hold no uncommitted reservation).
  bool drained() noexcept {
    if (released_cache_ != committed_)
      released_cache_ = released_.load(std::memory_order_acquire);
    return released_cache_ == committed_;
  }

  /// Replaces the buffer with one that holds `n` twice over. Requires
  /// drained(): the consumer reads no payload until the next item is
  /// published, and its release of the last one happened before this.
  void grow(std::size_t n) {
    capacity_ = std::max(default_capacity_, std::bit_ceil(2 * n));
    mask_ = capacity_ - 1;
    // dnh-analyze: allow(alloc, once on a shard's first item, then only
    // for a payload over half the arena; left uninitialised so pages are
    // touched as payloads land)
    data_.reset(new std::uint8_t[capacity_]);
  }

  // Either side, for a published item (or a reservation, producer side).
  std::uint8_t* at(std::uint64_t offset) const noexcept {
    return data_.get() + (offset & mask_);
  }

  /// Consumer side: every payload before position `end` has been read.
  void release(std::uint64_t end) noexcept {
    released_.store(end, std::memory_order_release);
  }

 private:
  const std::size_t default_capacity_;
  std::unique_ptr<std::uint8_t[]> data_;  ///< producer-written, see grow()
  std::size_t capacity_ = 0;
  std::uint64_t mask_ = 0;
  std::uint64_t write_ = 0;           ///< producer: next free position
  std::uint64_t committed_ = 0;       ///< producer: end of the last pushed item
  std::uint64_t released_cache_ = 0;  ///< producer's view of released_
  alignas(64) std::atomic<std::uint64_t> released_{0};  ///< consumer cursor
};

}  // namespace

/// One shard's contribution to one merged window, canonically pre-sorted
/// by the worker (the k-way merge's input invariant).
struct ShardedAnalyzer::ShardWindow {
  std::uint64_t seq = 0;      ///< window sequence number (global order)
  std::size_t shard = 0;
  bool final_window = false;  ///< emitted by kStop: merge loop exits after
  bool deliver = true;
  bool spilled = false;       ///< durable on disk; extent below is valid
  SpillExtent extent;         ///< where the record landed in the segment
  core::AnalysisWindow window;
};

struct ShardedAnalyzer::MergeInbox {
  util::Mutex mutex;
  util::CondVar cv;        ///< data available (merge thread waits)
  util::CondVar cv_space;  ///< capacity available (sealing workers wait)
  /// Window messages the merge thread may hold at once; workers sealing
  /// further ahead block in cv_space. This cap — not the capture length —
  /// bounds merge-stage memory (the streaming guarantee).
  std::size_t capacity = 0;
  std::size_t peak DNH_GUARDED_BY(mutex) = 0;
  /// One entry per (shard, window) message, drained by the merge thread.
  // dnh-lint: allow(hot-path-bound) per-window (not per-packet), and
  // explicitly capped at `capacity` entries by the cv_space wait.
  std::deque<ShardWindow> queue DNH_GUARDED_BY(mutex);
};

struct ShardedAnalyzer::Worker {
  Worker(const core::SnifferConfig& config, std::size_t queue_capacity)
      : arena(queue_capacity), queue(queue_capacity), sniffer(config) {}

  /// Dispatcher-side staging: frame items accumulate here (their bytes
  /// already in the arena) and enter the ring kDispatchBatch at a time
  /// via try_push_n, so the acquire/release pair (and its cross-core
  /// cache-line bounce) is paid per batch instead of per frame.
  /// Dispatcher-thread-owned.
  struct Stage {
    std::array<Item, kDispatchBatch> items;
    std::size_t count = 0;
    /// Set while the ring cannot absorb a whole flush. Under kDrop the
    /// dispatcher then bypasses batching and offers each frame at
    /// arrival, so shed-vs-accepted accounting reflects the ring's state
    /// WHEN the frame arrived, not when a batch happened to fill —
    /// exactly the semantics of the pre-batching per-frame push.
    bool congested = false;
  };
  Stage stage;
  static_assert(sizeof(Item) == 24, "ring slots stay small PODs");

  PayloadArena arena;  ///< payload bytes of the items in `stage`/`queue`
  SpscRing<Item> queue;
  core::Sniffer sniffer;             ///< worker-thread-owned after start
  std::uint64_t frames_processed = 0;  ///< worker-owned; read after join
  // Spill accounting, worker-owned; folded into PipelineStats after join.
  std::uint64_t windows_spilled = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t spill_failures = 0;
  obs::SampleGate sniff_gate{64};    ///< worker-thread-owned span sampler
  std::thread thread;
};

ShardedAnalyzer::ShardedAnalyzer(PipelineConfig config, WindowSink sink)
    : config_{std::move(config)}, sink_{std::move(sink)} {
  if (config_.shards == 0) config_.shards = 1;
  dispatch_.resize(config_.shards);
  // Every shard's live connections pass through the one routing table
  // (unused with one shard: everything routes to it).
  if (config_.shards > 1)
    routes_.reserve(config_.shards * config_.sniffer.table.expected_flows);
  // Record orientation splits pairs exactly where the flow table splits
  // flows: same idle timeout, same sweep cadence.
  flowexport::OrienterConfig orienter_config;
  orienter_config.idle_timeout = config_.sniffer.table.idle_timeout;
  orienter_config.sweep_interval_records =
      config_.sniffer.table.sweep_interval_packets;
  orienter_ = flowexport::RecordOrienter{orienter_config};
  inbox_ = std::make_unique<MergeInbox>();
  inbox_->capacity =
      config_.merge_inbox_capacity != 0
          ? config_.merge_inbox_capacity
          : std::max<std::size_t>(2 * config_.shards, 4);

  // Durability setup, before any thread exists. A resume replays the
  // manifest first; an unusable directory (no valid header, or a window
  // length that disagrees with this run's) degrades to a fresh spill —
  // recorded in the recovery stats — rather than failing the run.
  const bool spilling = !config_.spill_dir.empty();
  if (spilling) {
    std::error_code ec;
    std::filesystem::create_directories(config_.spill_dir, ec);
    bool truncate = !config_.resume;
    if (config_.resume) {
      plan_ = scan_spill_dir(config_.spill_dir);
      if (plan_.usable() &&
          plan_.window_us !=
              static_cast<std::uint64_t>(config_.window.total_micros())) {
        plan_.error = "spill window length mismatch: manifest has " +
                      std::to_string(plan_.window_us) + "us, run has " +
                      std::to_string(config_.window.total_micros()) + "us";
        plan_.parts.clear();
        plan_.complete_prefix = 0;
      }
      if (plan_.usable()) {
        resume_prefix_ = plan_.complete_prefix;
      } else {
        truncate = true;  // start over; the directory gave us nothing
      }
    }
    recovery_stats_ = plan_.stats;
    spill_writers_.reserve(config_.shards);
    for (std::size_t i = 0; i < config_.shards; ++i) {
      spill_writers_.push_back(std::make_unique<SpillWriter>(
          config_.spill_dir, static_cast<std::uint32_t>(i), truncate));
      if (!spill_writers_.back()->ok() && error_.empty())
        error_ = "cannot open spill segment in " + config_.spill_dir;
    }
    manifest_ = std::make_unique<ManifestJournal>(
        config_.spill_dir, static_cast<std::uint32_t>(config_.shards),
        static_cast<std::uint64_t>(config_.window.total_micros()), truncate);
    if (!manifest_->ok() && error_.empty())
      error_ = "cannot open manifest journal in " + config_.spill_dir;
  }

  workers_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    core::SnifferConfig shard_config = config_.sniffer;
    shard_config.metrics_shard = i;  // labels the shard's state gauges
    workers_.push_back(
        std::make_unique<Worker>(shard_config, config_.queue_capacity));
  }
  obs::Registry& registry = obs::Registry::global();
  routes_gauge_ = registry.gauge("dnh_pipeline_routes");
  inbox_depth_gauge_ = registry.gauge("dnh_merge_inbox_depth");
  spill_bytes_gauge_ = registry.gauge("dnh_spill_bytes");
  inbox_depth_gauge_.set(0);
  depth_gauges_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    depth_gauges_.push_back(
        registry.gauge(shard_label("dnh_shard_queue_depth", i)));
  sampled_peaks_ =
      std::make_unique<std::atomic<std::size_t>[]>(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    sampled_peaks_[i].store(0, std::memory_order_relaxed);
  // Queue depth is sampled on the exporter's snapshot cadence, not per
  // push: the rings' head/tail cursors are atomics, so the read is safe
  // from the snapshot thread, and interval sampling is what makes the
  // peak/percentile depth statistics meaningful (a per-push high-water
  // mark saturates on any momentary burst).
  depth_sampler_ = registry.add_sampler([this] {
    PipelineMetrics& m = pipeline_metrics();
    for (std::size_t i = 0; i < config_.shards; ++i) {
      const std::size_t depth = workers_[i]->queue.size();
      depth_gauges_[i].set(static_cast<std::int64_t>(depth));
      m.depth_samples.observe(depth);
      auto& peak = sampled_peaks_[i];
      if (depth > peak.load(std::memory_order_relaxed))
        peak.store(depth, std::memory_order_relaxed);
    }
  });
  // Heartbeats registered before any watched thread exists: the board is
  // structurally immutable once the watchdog and workers start.
  dispatch_hb_ = heartbeats_.add_stage("dispatch");
  // The dispatcher runs on the constructing (caller) thread; claim its
  // flight-recorder ring here so every later dispatch event is labeled.
  obs::FlightRecorder::global().set_thread_label("dispatch");
  obs::trace_event(obs::TraceStage::kDispatch, obs::TraceKind::kThreadStart,
                   obs::kNoSeq, obs::kNoShard, config_.shards);
  worker_hb_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    worker_hb_.push_back(
        heartbeats_.add_stage("shard-" + std::to_string(i)));
  merge_hb_ = heartbeats_.add_stage("merge");

  // Threads start only after every Worker exists: a worker never touches
  // another shard's state, but the merge loop walks workers_ indirectly
  // through inbox messages carrying shard indices.
  for (std::size_t i = 0; i < config_.shards; ++i)
    workers_[i]->thread = std::thread{[this, i] { worker_loop(i); }};
  merge_thread_ = std::thread{[this] { merge_loop(); }};

  if (config_.watchdog_timeout.total_micros() > 0) {
    WatchdogConfig watchdog;
    watchdog.timeout = config_.watchdog_timeout;
    // Group quiescence needs a pending-work signal: frames sitting in a
    // ring (atomic cursors, safe cross-thread) or windows sitting in the
    // inbox (its own mutex). Quiet with neither is idle, not a stall.
    watchdog.pending = [this](std::string& desc) {
      for (std::size_t i = 0; i < config_.shards; ++i) {
        if (workers_[i]->queue.size() > 0) {
          desc = "frames queued in shard " + std::to_string(i) + "'s ring";
          return true;
        }
      }
      util::MutexLock lock{inbox_->mutex};
      if (!inbox_->queue.empty()) {
        desc = "windows waiting in the merge inbox";
        return true;
      }
      return false;
    };
    watchdog.on_stall = [this](const StallDiagnostic& diag) {
      pipeline_metrics().stalls.inc();
      if (config_.on_stall) config_.on_stall(diag);
    };
    watchdog_ = std::make_unique<Watchdog>(heartbeats_, std::move(watchdog));
  }
}

ShardedAnalyzer::~ShardedAnalyzer() { finish(); }

namespace {

// What routing needs of a frame, read straight from its wire bytes.
struct RoutePeek {
  net::Ipv4Address src;
  net::Ipv4Address dst;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint8_t tcp_flags = 0;  ///< 0 for UDP
  bool tcp = false;
};

std::uint16_t load_be16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | p[3];
}

// The dispatcher's header-only decode: Ethernet, up to 4 VLAN tags, the
// IPv4 header and the TCP/UDP ports (plus TCP flags). It accepts exactly
// the IPv4 TCP/UDP frames packet::decode_frame accepts — every length the
// decoder checks (VLAN tags, IHL and options, total length, TCP data
// offset and options, UDP length) is checked here the same way — and
// returns false for everything routing sends to shard 0: undecodable,
// non-IPv4 (IPv6 included) and non-TCP/UDP frames. The payload is never
// touched; the shard decodes the frame in full.
// dnh-analyze: hot
bool peek_route(net::BytesView frame, RoutePeek& out) noexcept {
  // dnh-lint: hot
  const std::uint8_t* p = frame.data();
  const std::size_t n = frame.size();
  if (n < 14) return false;
  std::uint16_t ether_type = load_be16(p + 12);
  std::size_t off = 14;
  // 802.1Q / 802.1ad tags: 2 bytes of TCI + the real EtherType each.
  for (int tags = 0; (ether_type == 0x8100 || ether_type == 0x88a8) &&
                     tags < 4;
       ++tags) {
    if (n < off + 4) return false;
    ether_type = load_be16(p + off + 2);
    off += 4;
  }
  if (ether_type != packet::kEtherTypeIpv4 || n < off + 20) return false;
  const std::uint8_t* ip = p + off;
  const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0f) * 4;
  if ((ip[0] >> 4) != 4 || ihl < 20 || n < off + ihl) return false;
  if (load_be16(ip + 2) < ihl) return false;  // total length < header
  const std::uint8_t protocol = ip[9];
  out.src = net::Ipv4Address{load_be32(ip + 12)};
  out.dst = net::Ipv4Address{load_be32(ip + 16)};
  off += ihl;
  const std::uint8_t* l4 = p + off;
  if (protocol == packet::kProtoTcp) {
    if (n < off + 20) return false;
    const std::size_t data_offset = static_cast<std::size_t>(l4[12] >> 4) * 4;
    if (data_offset < 20 || n < off + data_offset) return false;
    out.tcp = true;
    out.tcp_flags = l4[13];
  } else if (protocol == packet::kProtoUdp) {
    if (n < off + 8 || load_be16(l4 + 4) < 8) return false;
    out.tcp = false;
    out.tcp_flags = 0;
  } else {
    return false;
  }
  out.sport = load_be16(l4);
  out.dport = load_be16(l4 + 2);
  return true;
}

// The client side is the dispatch key. For DNS traffic the client is
// whoever is NOT on port 53 (responses must land on the same shard as
// the flows they will label); for everything else the flow-orientation
// rule decides.
net::Ipv4Address route_client(const RoutePeek& peek) noexcept {
  if (peek.sport == dns::kDnsPort) return peek.dst;
  if (peek.dport == dns::kDnsPort) return peek.src;
  return flow::sender_is_client(peek.src, peek.dst, peek.sport, peek.dport,
                                peek.tcp_flags)
             ? peek.src
             : peek.dst;
}

std::size_t shard_of(net::Ipv4Address client, std::size_t shards) noexcept {
  return static_cast<std::size_t>(splitmix64(client.value()) %
                                  static_cast<std::uint64_t>(shards));
}

// Direction-free connection identity: both directions of a 5-tuple map to
// the same key, with the lexicographically smaller (ip, port) endpoint in
// the client slots. Purely an index into the routing table — it says
// nothing about which side is the real client.
flow::FlowKey route_key(const RoutePeek& peek) noexcept {
  flow::FlowKey key;
  key.transport = peek.tcp ? flow::Transport::kTcp : flow::Transport::kUdp;
  const bool src_first =
      std::tie(peek.src, peek.sport) <= std::tie(peek.dst, peek.dport);
  key.client_ip = src_first ? peek.src : peek.dst;
  key.client_port = src_first ? peek.sport : peek.dport;
  key.server_ip = src_first ? peek.dst : peek.src;
  key.server_port = src_first ? peek.dport : peek.sport;
  return key;
}

}  // namespace

std::size_t ShardedAnalyzer::shard_for(net::BytesView frame,
                                       std::size_t shards) {
  RoutePeek peek;
  if (shards <= 1 || !peek_route(frame, peek)) return 0;
  return shard_of(route_client(peek), shards);
}

// dnh-analyze: hot
std::size_t ShardedAnalyzer::route_frame(net::BytesView frame,
                                         util::Timestamp ts) {
  // dnh-lint: hot
  RoutePeek peek;
  if (config_.shards <= 1 || !peek_route(frame, peek)) return 0;

  // Connection affinity: the first packet of a 5-tuple picks the shard by
  // the stateless heuristic; every later packet — in either direction —
  // follows it. An entry whose connection has been idle past the flow
  // table's timeout is re-homed from the arriving packet, the exact
  // condition under which the table starts a new flow, so a resumed
  // 5-tuple re-orients identically in both worlds.
  const util::Duration idle = config_.sniffer.table.idle_timeout;
  if (++routed_packets_ % config_.sniffer.table.sweep_interval_packets ==
      0) {
    routes_.erase_if(
        [&](const auto& entry) { return ts - entry.second.last > idle; });
  }
  auto [it, inserted] = routes_.try_emplace(route_key(peek));
  Route& route = it->second;
  if (inserted || ts - route.last > idle) {
    route.shard = shard_of(route_client(peek), config_.shards);
    route.last = ts;
  } else if (ts > route.last) {
    route.last = ts;
  }
  return route.shard;
}

void ShardedAnalyzer::on_frame(net::BytesView frame, util::Timestamp ts) {
  if (finished_ || draining_) return;
  // Drain polling is amortized: the check is an indirect call (usually a
  // sig_atomic_t read), so once per 64 frames keeps it off the hot path
  // while still reacting to SIGINT within a microsecond-scale burst.
  if (config_.drain_check && (frames_dispatched_ & 63) == 0 &&
      config_.drain_check()) {
    draining_ = true;
    obs::trace_event(obs::TraceStage::kDispatch,
                     obs::TraceKind::kDrainRequested, rotations_, obs::kNoShard,
                     frames_dispatched_);
    return;
  }
  if (!started_) {
    started_ = true;
    first_ts_ = ts;
    last_ts_ = ts;
    if (config_.window.total_micros() > 0) {
      // Align to the window grid exactly like core::LiveAnalyzer.
      const std::int64_t width = config_.window.total_micros();
      window_start_ = util::Timestamp::from_micros(
          ts.micros_since_epoch() / width * width);
    }
  }
  if (ts > last_ts_) last_ts_ = ts;
  if (config_.window.total_micros() > 0) {
    while (ts >= window_start_ + config_.window)
      broadcast_rotation(window_start_, window_start_ + config_.window);
  }
  ++frames_dispatched_;
  if ((frames_dispatched_ & 4095) == 0)
    routes_gauge_.set(static_cast<std::int64_t>(routes_.size()));
  dispatch_frame(frame, ts);
}

void ShardedAnalyzer::on_export_record(const flowexport::ExportRecord& record,
                                       util::Timestamp arrival) {
  if (finished_ || draining_) return;
  // A reordered export stream can deliver an older datagram after a newer
  // one. Only the dispatch clock is clamped (it must never step back —
  // window boundaries are monotone); the record's own timestamps pass
  // through untouched, and they alone decide flow boundaries and labels.
  if (started_ && arrival < last_ts_) arrival = last_ts_;
  if (!started_) {
    started_ = true;
    first_ts_ = arrival;
    last_ts_ = arrival;
    if (config_.window.total_micros() > 0) {
      const std::int64_t width = config_.window.total_micros();
      window_start_ = util::Timestamp::from_micros(
          arrival.micros_since_epoch() / width * width);
    }
  }
  if (arrival > last_ts_) last_ts_ = arrival;
  if (config_.window.total_micros() > 0) {
    while (arrival >= window_start_ + config_.window)
      broadcast_rotation(window_start_, window_start_ + config_.window);
  }
  ++records_dispatched_;
  pipeline_metrics().records_dispatched.inc();

  const flowexport::OrientedRecord oriented = orienter_.orient(record);
  // Route by the oriented client: the shard whose resolver replica holds
  // this client's DNS history — the same reduction route_client feeds
  // for DNS frames, so records and the responses that label them always
  // meet on one shard. Records are per-flow (not per-packet), so the
  // lossless control-item push is cheap enough.
  push_control(shard_of(oriented.key.client_ip, config_.shards),
               Item::Kind::kRecord, arrival, &oriented, sizeof oriented);
}

// dnh-analyze: hot
void ShardedAnalyzer::dispatch_frame(net::BytesView frame,
                                     util::Timestamp ts) {
  // dnh-lint: hot
  PipelineMetrics& m = pipeline_metrics();
  obs::SpanTimer span{m.dispatch_ns, dispatch_gate_};
  const std::size_t shard = route_frame(frame, ts);
  std::uint64_t offset = 0;
  std::uint8_t* payload = reserve_payload(shard, frame.size(), true, offset);
  if (payload == nullptr) return;  // shed (kDrop), already counted
  // The frame's one copy: straight into the arena the worker reads.
  if (!frame.empty()) std::memcpy(payload, frame.data(), frame.size());
  Worker::Stage& stage = workers_[shard]->stage;
  stage.items[stage.count++] = Item{
      Item::Kind::kFrame, static_cast<std::uint32_t>(frame.size()), offset,
      ts};
  if (stage.count == kDispatchBatch ||
      (stage.congested && config_.backpressure == BackpressurePolicy::kDrop))
    flush_stage(shard);
}

std::uint8_t* ShardedAnalyzer::reserve_payload(std::size_t shard,
                                               std::size_t n, bool frame,
                                               std::uint64_t& offset) {
  PayloadArena& arena = workers_[shard]->arena;
  if (!arena.needs_growth(n) && arena.try_reserve(n, offset))
    return arena.at(offset);
  // The arena is full, or too small for `n`. Staged payloads can be freed
  // only once the worker sees them, so publish them first.
  flush_stage(shard);
  const auto fits = [&] {
    if (!arena.needs_growth(n)) return arena.try_reserve(n, offset);
    if (!arena.drained()) return false;
    arena.grow(n);
    return arena.try_reserve(n, offset);
  };
  if (fits()) return arena.at(offset);
  if (frame && config_.backpressure == BackpressurePolicy::kDrop) {
    // Shed at arrival, like a frame that meets a full ring.
    ++dispatch_[shard].dropped;
    pipeline_metrics().frames_dropped.inc();
    return nullptr;
  }
  // Lossless wait: frames under kBlock (one blocked push per stall, as at
  // a full ring) and control items under every policy.
  if (frame) {
    ++dispatch_[shard].blocked;
    pipeline_metrics().blocked_pushes.inc();
  }
  obs::trace_event(obs::TraceStage::kDispatch,
                   obs::TraceKind::kBackpressureWait, rotations_,
                   static_cast<unsigned>(shard), n);
  unsigned spins = 0;
  do {
    backoff(spins);
  } while (!fits());
  return arena.at(offset);
}

void ShardedAnalyzer::flush_stage(std::size_t shard) {
  Worker& worker = *workers_[shard];
  Worker::Stage& stage = worker.stage;
  if (stage.count == 0) return;
  PipelineMetrics& m = pipeline_metrics();
  DispatchCounters& counters = dispatch_[shard];
  // Per-batch, not per-frame: the process-wide counter catches up here.
  m.frames_dispatched.add(frames_dispatched_ - frames_counted_);
  frames_counted_ = frames_dispatched_;

  const auto produce = [&](std::size_t from) {
    // dnh-lint: ring-producer (dispatcher thread owns every produce side)
    return worker.queue.try_push_n(stage.items.data() + from,
                                   stage.count - from);
  };
  std::size_t offset = produce(0);
  stage.congested = offset < stage.count;
  if (offset < stage.count) {
    if (config_.backpressure == BackpressurePolicy::kDrop) {
      const std::uint64_t shed = stage.count - offset;
      counters.dropped += shed;
      m.frames_dropped.add(shed);
    } else {
      ++counters.blocked;  // once per stalled flush, not per retry
      m.blocked_pushes.inc();
      obs::trace_event(obs::TraceStage::kDispatch,
                       obs::TraceKind::kBackpressureWait, rotations_,
                       static_cast<unsigned>(shard), stage.count - offset);
      unsigned spins = 0;
      while (offset < stage.count) {
        backoff(spins);
        offset += produce(offset);
      }
    }
  }
  // The shed frames' bytes go back to the arena with their reservations.
  if (offset > 0) {
    const Item& last = stage.items[offset - 1];
    worker.arena.commit(last.offset + last.length);
  }
  worker.arena.drop_uncommitted();
  // Progress marker once per ~512 enqueued frames per shard: frequent
  // enough that a stall dump shows the dispatcher was alive moments
  // before, rare enough not to evict window-lifecycle events.
  if (((counters.enqueued ^ (counters.enqueued + offset)) >> 9) != 0)
    obs::trace_event(obs::TraceStage::kDispatch, obs::TraceKind::kFrameBatch,
                     rotations_, static_cast<unsigned>(shard),
                     counters.enqueued + offset);
  counters.enqueued += offset;
  stage.count = 0;
  heartbeats_.beat(dispatch_hb_);
  // The producer's own view of the occupancy: no load of the consumer's
  // cursor beyond the ones the ring already makes when it looks full.
  const std::size_t depth = worker.queue.observed_depth();
  if (depth > counters.high_water) counters.high_water = depth;
}

void ShardedAnalyzer::push_control(std::size_t shard, Item::Kind kind,
                                   util::Timestamp ts, const void* payload,
                                   std::size_t length) {
  // Staged frames precede the control item in its shard's ring: rotation
  // and stop ordering relies on the frame channel being FIFO end to end.
  // Control messages are lossless under every backpressure policy:
  // dropping a rotation would desynchronize the merge sequence.
  flush_stage(shard);
  std::uint64_t offset = 0;
  std::memcpy(reserve_payload(shard, length, false, offset), payload, length);
  Worker& worker = *workers_[shard];
  Item item{kind, static_cast<std::uint32_t>(length), offset, ts};
  // dnh-lint: ring-producer (control items ride the dispatcher thread too)
  if (worker.queue.try_push_n(&item, 1) == 0) {
    obs::trace_event(obs::TraceStage::kDispatch,
                     obs::TraceKind::kBackpressureWait, rotations_,
                     static_cast<unsigned>(shard), 1);
    unsigned spins = 0;
    do {
      backoff(spins);
      // dnh-lint: ring-producer (same dispatcher-thread push, retried)
    } while (worker.queue.try_push_n(&item, 1) == 0);
  }
  worker.arena.commit(item.offset + item.length);
}

void ShardedAnalyzer::broadcast_rotation(util::Timestamp start,
                                         util::Timestamp end) {
  const Control control{start, end};
  for (std::size_t i = 0; i < config_.shards; ++i)
    push_control(i, Item::Kind::kRotate, start, &control, sizeof control);
  // The WindowTraceId is the rotation's sequence number: every shard's
  // worker assigns exactly this seq when it seals its slice, so the
  // dispatched/sealed/spilled/ingested/emitted events all correlate.
  obs::trace_event(obs::TraceStage::kDispatch,
                   obs::TraceKind::kWindowDispatched, rotations_,
                   obs::kNoShard, config_.shards);
  window_start_ = end;
  ++rotations_;
}

bool ShardedAnalyzer::process_pcap(const std::string& path) {
  pcap::CaptureReadOptions options;
  options.resync = config_.sniffer.resync_capture;
  if (config_.drain_check) {
    // Abort the file read itself on drain: a multi-gigabyte capture must
    // not stand between SIGINT and the seal-spill-merge shutdown path.
    options.stop = [this] {
      if (!draining_ && config_.drain_check()) {
        draining_ = true;
        obs::trace_event(obs::TraceStage::kDispatch,
                         obs::TraceKind::kDrainRequested, rotations_,
                         obs::kNoShard, frames_dispatched_);
      }
      return draining_;
    };
  }
  pcap::CaptureReadReport report;
  const bool ok = pcap::read_any_capture(
      path,
      [this](const pcap::Frame& frame) {
        on_frame(frame.data, frame.timestamp);
      },
      options, report);
  // Container-level damage is observed by the dispatcher (it owns the
  // reader), not by any shard; folded into merged degradation at finish.
  capture_degradation_.capture_resyncs += report.corruption.resyncs;
  capture_degradation_.capture_bytes_skipped +=
      report.corruption.bytes_skipped;
  capture_degradation_.capture_truncated_tails +=
      report.corruption.truncated_tail;
  if (!report.error.empty()) error_ = std::move(report.error);
  return ok;
}

void ShardedAnalyzer::note_capture_corruption(
    const pcap::CorruptionStats& corruption) {
  capture_degradation_.capture_resyncs += corruption.resyncs;
  capture_degradation_.capture_bytes_skipped += corruption.bytes_skipped;
  capture_degradation_.capture_truncated_tails += corruption.truncated_tail;
}

// dnh-analyze: shard-local-ids
void ShardedAnalyzer::worker_loop(std::size_t index) {
  if (config_.pin_shards) pin_to_cpu(index);
  // Label + thread-start before the test hook: an injected stall that
  // parks this worker forever must still leave its shard visible in the
  // stall dump.
  obs::FlightRecorder::global().set_thread_label("shard-" +
                                                 std::to_string(index));
  obs::trace_event(obs::TraceStage::kShard, obs::TraceKind::kThreadStart,
                   obs::kNoSeq, static_cast<unsigned>(index));
  if (config_.worker_start_hook) config_.worker_start_hook(index);
  Worker& worker = *workers_[index];
  std::uint64_t seq = 0;
  bool running = true;
  unsigned spins = 0;
  const auto emit = [&](bool final_window, bool deliver, bool durable,
                        util::Timestamp start, util::Timestamp end) {
    ShardWindow msg;
    msg.seq = seq++;
    msg.shard = index;
    msg.final_window = final_window;
    msg.deliver = deliver;
    msg.window = core::AnalysisWindow{start, end,
                                      worker.sniffer.take_database(),
                                      worker.sniffer.take_dns_log()};
    if (deliver) {
      // Seal: canonical per-shard order, established here so (a) the sort
      // cost parallelizes across workers instead of serializing on the
      // merge thread and (b) the spilled record is already in its final
      // order — a recovered window replays without re-sorting.
      canonicalize(msg.window);
      obs::trace_event(obs::TraceStage::kShard, obs::TraceKind::kWindowSealed,
                       msg.seq, static_cast<unsigned>(index),
                       worker.frames_processed);
      // Spill before the inbox hand-off. Windows inside the resume
      // prefix are already durable from the crashed run and are skipped;
      // a failed append degrades (the window just is not durable) and is
      // tallied rather than fatal.
      if (durable && !spill_writers_.empty() && msg.seq >= resume_prefix_) {
        if (const auto extent =
                spill_writers_[index]->append(msg.seq, msg.window)) {
          msg.spilled = true;
          msg.extent = *extent;
          ++worker.windows_spilled;
          worker.spill_bytes += extent->length;
          spill_bytes_gauge_.add(static_cast<std::int64_t>(extent->length));
          pipeline_metrics().spill_records.inc();
        } else {
          ++worker.spill_failures;
        }
      }
    }
    {
      util::MutexLock lock{inbox_->mutex};
      // Bounded inbox: sealing ahead of the merge thread parks here, so
      // merge-stage memory is capped by `capacity` windows no matter how
      // long the capture runs. Deadlock-free: the merge thread always
      // drains whenever the queue is non-empty.
      while (inbox_->queue.size() >= inbox_->capacity)
        inbox_->cv_space.wait(lock);
      inbox_->queue.push_back(std::move(msg));
      if (inbox_->queue.size() > inbox_->peak)
        inbox_->peak = inbox_->queue.size();
      inbox_depth_gauge_.set(
          static_cast<std::int64_t>(inbox_->queue.size()));
    }
    inbox_->cv.notify_one();
  };
  std::uint64_t consumed_end = 0;  ///< arena position past the last item
  while (running) {
    // Batch drain: one acquire/release pair covers up to kConsumeBatch
    // items. Safe even around control items — kStop is the last item its
    // ring will ever carry, so nothing can follow it within a batch.
    // dnh-lint: ring-consumer (this worker thread owns the consume side)
    const std::size_t got =
        worker.queue.try_consume_n(kConsumeBatch, [&](const Item& item,
                                                      std::size_t) {
          // dnh-lint: hot
          const std::uint8_t* payload = worker.arena.at(item.offset);
          consumed_end = item.offset + item.length;
          switch (item.kind) {
            case Item::Kind::kFrame: {
              obs::SpanTimer span{pipeline_metrics().sniff_ns,
                                  worker.sniff_gate};
              worker.sniffer.on_frame(net::BytesView{payload, item.length},
                                      item.ts);
              ++worker.frames_processed;
              break;
            }
            case Item::Kind::kRecord: {
              flowexport::OrientedRecord record;
              std::memcpy(&record, payload, sizeof record);
              worker.sniffer.on_export_record(record, item.ts);
              break;
            }
            case Item::Kind::kRotate: {
              Control control;
              std::memcpy(&control, payload, sizeof control);
              // Open flows stay live in the flow table across rotations,
              // exactly like LiveAnalyzer: a flow lands in the window it
              // completes in.
              emit(false, true, true, control.start, control.end);
              break;
            }
            case Item::Kind::kStop: {
              Control control;
              std::memcpy(&control, payload, sizeof control);
              worker.sniffer.finish();
              emit(true, control.deliver, control.durable, control.start,
                   control.end);
              running = false;
              break;
            }
          }
        });
    if (got > 0) {
      worker.arena.release(consumed_end);  // their payloads are done with
      spins = 0;
      heartbeats_.beat(worker_hb_[index]);
    } else {
      backoff(spins);
    }
  }
}

void ShardedAnalyzer::merge_loop() {
  obs::FlightRecorder::global().set_thread_label("merge");
  obs::trace_event(obs::TraceStage::kMerge, obs::TraceKind::kThreadStart);
  // dnh-lint: allow(hot-path-bound) holds at most one in-flight window
  // set per shard; erased as soon as every shard reports the sequence.
  std::map<std::uint64_t, std::vector<ShardWindow>> pending;
  std::uint64_t next_seq = 0;
  bool done = false;
  while (!done) {
    ShardWindow msg;
    {
      util::MutexLock lock{inbox_->mutex};
      // Guarded-predicate loop (no wait lambda: every `queue` access
      // stays visibly under `mutex` for the thread-safety analysis).
      while (inbox_->queue.empty()) inbox_->cv.wait(lock);
      msg = std::move(inbox_->queue.front());
      inbox_->queue.pop_front();
      inbox_depth_gauge_.set(
          static_cast<std::int64_t>(inbox_->queue.size()));
    }
    inbox_->cv_space.notify_one();
    heartbeats_.beat(merge_hb_);
    obs::trace_event(obs::TraceStage::kMerge, obs::TraceKind::kMergeIngested,
                     msg.seq, static_cast<unsigned>(msg.shard),
                     msg.spilled ? msg.extent.length : 0);
    // Journal the seal as soon as the message arrives: the worker's
    // segment fsync happened before the inbox hand-off, so the ordering
    // invariant (record durable before the manifest references it)
    // holds, and durability does not wait for the slowest shard.
    if (msg.spilled && manifest_) {
      manifest_->append_seal(msg.seq, static_cast<std::uint32_t>(msg.shard),
                             spill_writers_[msg.shard]->segment(),
                             msg.extent, seal_seq_++);
      obs::trace_event(obs::TraceStage::kMerge,
                       obs::TraceKind::kWindowJournaled, msg.seq,
                       static_cast<unsigned>(msg.shard), msg.extent.length);
    }
    pending[msg.seq].push_back(std::move(msg));
    // Merge strictly in sequence order, only once every shard has
    // reported the sequence number — windows reach the sink in the same
    // order LiveAnalyzer would deliver them.
    while (true) {
      const auto it = pending.find(next_seq);
      if (it == pending.end() || it->second.size() < config_.shards) break;
      const bool final_window = it->second.front().final_window;
      const bool deliver = it->second.front().deliver;
      const auto t0 = std::chrono::steady_clock::now();
      core::AnalysisWindow merged = retire_window(next_seq, it->second);
      const auto t1 = std::chrono::steady_clock::now();
      const util::Duration elapsed = steady_elapsed(t0, t1);
      pending.erase(it);
      ++next_seq;
      if (deliver) {
        merge_total_ = merge_total_ + elapsed;
        if (elapsed > merge_max_) merge_max_ = elapsed;
        ++windows_merged_;
        // Merges are per-window (rare), so the span is unsampled.
        pipeline_metrics().merge_ns.observe(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
        pipeline_metrics().windows_merged.inc();
        if (sink_) sink_(std::move(merged));
        obs::trace_event(
            obs::TraceStage::kMerge, obs::TraceKind::kWindowEmitted,
            next_seq - 1, obs::kNoShard,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()));
      }
      if (final_window) {
        done = true;
        break;
      }
    }
  }
}

namespace {

/// K-way merges canonically pre-sorted windows into `out`. Inputs must
/// already carry event fqdn ids/views valid against out's table (the
/// callers remap via intern or absorb first). Equal keys under
/// canonical_less are value-identical rows, so pop order among ties
/// cannot change a single output byte — which is why a k-way merge of
/// per-shard-sorted runs reproduces the global canonical sort exactly.
// dnh-analyze: merge-boundary
void kway_merge_into(std::vector<core::AnalysisWindow>& parts,
                     core::AnalysisWindow& out) {
  std::vector<std::vector<core::TaggedFlow>> flows(parts.size());
  std::size_t event_total = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    // The moved-out flows' fqdn views stay valid: each part's db retains
    // its DomainTable, and `parts` outlives the merge.
    flows[i] = parts[i].db.take_flows();
    event_total += parts[i].dns_log.size();
  }
  out.dns_log.reserve(event_total);

  // Index-heap pattern: the heap holds part indices, keyed by each
  // part's current head. An index is popped, its head consumed, and the
  // index re-pushed — the key only changes while the index is out.
  std::vector<std::size_t> pos(parts.size(), 0);
  const auto flow_greater = [&](std::size_t x, std::size_t y) {
    return canonical_less(flows[y][pos[y]], flows[x][pos[x]]);
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      decltype(flow_greater)>
      flow_heap{flow_greater};
  for (std::size_t i = 0; i < parts.size(); ++i)
    if (!flows[i].empty()) flow_heap.push(i);
  while (!flow_heap.empty()) {
    const std::size_t i = flow_heap.top();
    flow_heap.pop();
    out.db.add(std::move(flows[i][pos[i]]));
    if (++pos[i] < flows[i].size()) flow_heap.push(i);
  }

  std::vector<std::size_t> event_pos(parts.size(), 0);
  const auto event_greater = [&](std::size_t x, std::size_t y) {
    return canonical_less(parts[y].dns_log[event_pos[y]],
                          parts[x].dns_log[event_pos[x]]);
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      decltype(event_greater)>
      event_heap{event_greater};
  for (std::size_t i = 0; i < parts.size(); ++i)
    if (!parts[i].dns_log.empty()) event_heap.push(i);
  while (!event_heap.empty()) {
    const std::size_t i = event_heap.top();
    event_heap.pop();
    out.dns_log.push_back(std::move(parts[i].dns_log[event_pos[i]]));
    if (++event_pos[i] < parts[i].dns_log.size()) event_heap.push(i);
  }
}

}  // namespace

// dnh-analyze: id-remap(per-event intern into the unified table below;
// flows are re-interned by out.db.add inside the k-way merge)
core::AnalysisWindow ShardedAnalyzer::merge_windows(
    std::vector<ShardWindow>& parts) {
  core::AnalysisWindow out;
  out.start = parts.front().window.start;
  out.end = parts.front().window.end;

  // Shard-local DomainIds are meaningless in the merged window: re-intern
  // every DNS event's label into the output database's table (flows are
  // re-interned by out.db.add inside the k-way merge). Per-event intern,
  // not absorb: the shard tables accumulate names across the whole run,
  // and a window must only pay for the names it actually references.
  core::DomainTable& unified = *out.db.domain_table();
  std::vector<core::AnalysisWindow> windows;
  windows.reserve(parts.size());
  for (auto& part : parts) {
    for (auto& event : part.window.dns_log) {
      event.fqdn_id = unified.intern(event.fqdn);
      event.fqdn = unified.view(event.fqdn_id);
    }
    windows.push_back(std::move(part.window));
  }
  kway_merge_into(windows, out);
  return out;
}

core::AnalysisWindow ShardedAnalyzer::merge_recovered(
    std::vector<core::AnalysisWindow>& parts) {
  core::AnalysisWindow out;
  out.start = parts.front().start;
  out.end = parts.front().end;

  // Windows loaded from spill each carry a private table holding exactly
  // the window's names, so absorb() — one bulk re-intern returning the
  // id remap — is the right tool here, where it was not above.
  core::DomainTable& unified = *out.db.domain_table();
  for (auto& part : parts) {
    const std::vector<core::DomainId> remap =
        unified.absorb(*part.db.domain_table());
    for (auto& event : part.dns_log) {
      event.fqdn_id = event.fqdn_id < remap.size() ? remap[event.fqdn_id]
                                                   : core::kEmptyDomainId;
      event.fqdn = unified.view(event.fqdn_id);
    }
  }
  kway_merge_into(parts, out);
  return out;
}

core::AnalysisWindow ShardedAnalyzer::retire_window(
    std::uint64_t seq, std::vector<ShardWindow>& parts) {
  if (config_.resume && seq < resume_prefix_) {
    // The crashed run's spilled bytes are authoritative for the complete
    // prefix. Any damaged record demotes the whole window to the
    // recomputed parts — byte-identical output either way (determinism),
    // just without crediting the spill.
    std::vector<core::AnalysisWindow> loaded;
    loaded.reserve(plan_.parts[seq].size());
    bool intact = true;
    for (const auto& entry : plan_.parts[seq]) {
      auto window =
          load_spilled_window(config_.spill_dir, entry, recovery_stats_);
      if (!window) {
        intact = false;
        break;
      }
      loaded.push_back(std::move(*window));
    }
    if (intact && !loaded.empty()) {
      ++windows_recovered_;
      obs::trace_event(obs::TraceStage::kMerge,
                       obs::TraceKind::kWindowRecovered, seq, obs::kNoShard,
                       loaded.size());
      return merge_recovered(loaded);
    }
    ++windows_recomputed_;
  }
  return merge_windows(parts);
}

void ShardedAnalyzer::finish() {
  if (finished_) return;
  finished_ = true;
  obs::trace_event(obs::TraceStage::kDispatch, obs::TraceKind::kPipelineFinish,
                   rotations_, obs::kNoShard, frames_dispatched_);

  // The final window's bounds: windowed mode closes the current grid
  // window (LiveAnalyzer parity); single-window mode spans the stream.
  util::Timestamp start;
  util::Timestamp end;
  if (started_) {
    if (config_.window.total_micros() > 0) {
      start = window_start_;
      end = window_start_ + config_.window;
    } else {
      start = first_ts_;
      end = last_ts_;
    }
  }
  // An empty run delivers no window, matching LiveAnalyzer; the stop
  // window still flows through the merge stage to terminate it. A
  // drained run's flush window is delivered but never journaled: it is
  // truncated at the drain point, and --resume must recompute it.
  const Control stop{start, end, started_, !draining_};
  for (std::size_t i = 0; i < config_.shards; ++i)
    push_control(i, Item::Kind::kStop, start, &stop, sizeof stop);
  pipeline_metrics().frames_dispatched.add(frames_dispatched_ -
                                           frames_counted_);
  frames_counted_ = frames_dispatched_;
  for (auto& worker : workers_) worker->thread.join();
  merge_thread_.join();
  // The watchdog keeps running until after the joins — a hang in the
  // drain itself is exactly what it exists to catch — and stops here,
  // before its stalled() verdict is folded into stats.
  if (watchdog_) watchdog_->stop();
  // All threads joined: every worker- and merge-owned counter is now
  // safely readable from this thread. Unregister the depth sampler
  // (synchronously: reset() waits out an in-flight snapshot) before
  // folding its peaks and publishing the drained-queue gauges.
  depth_sampler_.reset();
  routes_gauge_.set(static_cast<std::int64_t>(routes_.size()));
  for (std::size_t i = 0; i < config_.shards; ++i)
    depth_gauges_[i].set(
        static_cast<std::int64_t>(workers_[i]->queue.size()));

  stats_ = PipelineStats{};
  stats_.shards.resize(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    ShardStats& shard = stats_.shards[i];
    shard.frames_enqueued = dispatch_[i].enqueued;
    shard.frames_dropped = dispatch_[i].dropped;
    shard.blocked_pushes = dispatch_[i].blocked;
    shard.queue_high_water = dispatch_[i].high_water;
    shard.queue_peak_sampled =
        sampled_peaks_[i].load(std::memory_order_relaxed);
    shard.frames_processed = workers_[i]->frames_processed;
    shard.sniffer = workers_[i]->sniffer.stats();
    accumulate(stats_.merged, shard.sniffer);
    stats_.frames_dropped += shard.frames_dropped;
    stats_.windows_spilled += workers_[i]->windows_spilled;
    stats_.spill_bytes += workers_[i]->spill_bytes;
    stats_.spill_failures += workers_[i]->spill_failures;
  }
  stats_.frames_dispatched = frames_dispatched_;
  stats_.records_dispatched = records_dispatched_;
  stats_.windows_merged = windows_merged_;
  stats_.merge_total = merge_total_;
  stats_.merge_max = merge_max_;
  {
    util::MutexLock lock{inbox_->mutex};
    stats_.merge_inbox_peak = inbox_->peak;
  }
  stats_.windows_recovered = windows_recovered_;
  stats_.windows_recomputed = windows_recomputed_;
  stats_.recovery = recovery_stats_;
  stats_.stalled = watchdog_ && watchdog_->stalled();
  stats_.merged.degradation.pipeline_frames_dropped += stats_.frames_dropped;
  accumulate(stats_.merged.degradation, capture_degradation_);
}

}  // namespace dnh::pipeline

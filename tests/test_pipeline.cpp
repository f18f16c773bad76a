// Tests for the sharded parallel ingestion pipeline: SPSC ring semantics,
// dispatch determinism, the merge stage's bit-identity guarantee against
// the single-threaded Sniffer, and backpressure accounting.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/flowdb_io.hpp"
#include "core/live.hpp"
#include "core/sniffer.hpp"
#include "faultinject/faultinject.hpp"
#include "flowexport/wire.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "packet/build.hpp"
#include "packet/decode.hpp"
#include "pcap/pcapng.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/spsc_ring.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/simulator.hpp"

namespace dnh {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- SpscRing

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(pipeline::SpscRing<int>{1}.capacity(), 2u);
  EXPECT_EQ(pipeline::SpscRing<int>{2}.capacity(), 2u);
  EXPECT_EQ(pipeline::SpscRing<int>{3}.capacity(), 4u);
  EXPECT_EQ(pipeline::SpscRing<int>{1000}.capacity(), 1024u);
}

TEST(SpscRing, FifoOrderAndFullEmpty) {
  pipeline::SpscRing<int> ring{4};
  int out = 0;
  EXPECT_FALSE(ring.try_pop(out));  // starts empty
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  EXPECT_FALSE(ring.try_push(99));  // full at capacity
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));  // drained
  // Wrap-around: cursors keep counting past capacity.
  for (int lap = 0; lap < 3; ++lap) {
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(ring.try_push(lap * 10 + i));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, lap * 10 + i);
    }
  }
}

TEST(SpscRing, ProduceRecyclesSlotStorage) {
  pipeline::SpscRing<std::vector<int>> ring{2};
  ASSERT_TRUE(ring.try_produce([](std::vector<int>& slot) {
    slot.assign(100, 7);
  }));
  ASSERT_TRUE(ring.try_consume([](std::vector<int>& slot) {
    EXPECT_EQ(slot.size(), 100u);
  }));
  // The consumed slot keeps its heap buffer; the next lap's producer sees
  // capacity it can reuse without allocating.
  ASSERT_TRUE(ring.try_push(std::vector<int>{}));  // advance to slot 1
  std::vector<int> sink;
  ASSERT_TRUE(ring.try_pop(sink));
  bool recycled_capacity = false;
  ASSERT_TRUE(ring.try_produce([&](std::vector<int>& slot) {
    recycled_capacity = slot.capacity() >= 100;
    slot.assign(3, 1);
  }));
  EXPECT_TRUE(recycled_capacity);
}

TEST(SpscRing, CrossThreadStressPreservesSequence) {
  constexpr int kItems = 200000;
  pipeline::SpscRing<int> ring{64};
  std::thread producer{[&] {
    for (int i = 0; i < kItems;) {
      if (ring.try_push(int{i})) ++i;
    }
  }};
  std::int64_t sum = 0;
  int expected = 0;
  while (expected < kItems) {
    int value = -1;
    if (!ring.try_pop(value)) continue;
    ASSERT_EQ(value, expected);  // strict FIFO across threads
    sum += value;
    ++expected;
  }
  producer.join();
  EXPECT_EQ(sum, std::int64_t{kItems} * (kItems - 1) / 2);
}

// ------------------------------------------------------- pipeline fixture

trafficgen::TraceProfile pipeline_profile() {
  auto p = trafficgen::profile_eu1_ftth();
  p.name = "pipeline";
  p.duration = util::Duration::minutes(40);
  p.n_clients = 50;
  return p;
}

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = fs::temp_directory_path() /
           ("dnh_pipeline_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    pcap_path_ = (dir_ / "trace.pcap").string();
    trafficgen::Simulator sim{pipeline_profile()};
    ASSERT_TRUE(sim.write_pcap(pcap_path_));
    frames_ = new std::vector<pcap::Frame>;
    std::string error;
    ASSERT_TRUE(pcap::read_any_capture(
        pcap_path_,
        [&](const pcap::Frame& frame) { frames_->push_back(frame); },
        error));
    ASSERT_GT(frames_->size(), 1000u);
  }
  static void TearDownTestSuite() {
    delete frames_;
    frames_ = nullptr;
    fs::remove_all(dir_);
  }

  /// Canonicalized single-threaded reference result.
  struct Baseline {
    core::FlowDatabase db;
    std::vector<core::DnsEvent> dns_log;
    core::SnifferStats stats;
  };
  static Baseline run_baseline() {
    core::Sniffer sniffer;
    for (const auto& frame : *frames_)
      sniffer.on_frame(frame.data, frame.timestamp);
    sniffer.finish();
    Baseline out;
    out.stats = sniffer.stats();
    out.db = sniffer.take_database();
    out.dns_log = sniffer.take_dns_log();
    pipeline::canonicalize(out.db);
    pipeline::canonicalize(out.dns_log);
    return out;
  }

  static std::string tsv(const core::FlowDatabase& db) {
    std::ostringstream out;
    core::write_flow_tsv(db, out);
    return out.str();
  }

  static void expect_stats_equal(const core::SnifferStats& a,
                                 const core::SnifferStats& b) {
    EXPECT_EQ(a.frames, b.frames);
    EXPECT_EQ(a.decode_failures, b.decode_failures);
    EXPECT_EQ(a.dns_responses, b.dns_responses);
    EXPECT_EQ(a.dns_parse_failures, b.dns_parse_failures);
    EXPECT_EQ(a.dns_queries, b.dns_queries);
    EXPECT_EQ(a.dns_tcp_messages, b.dns_tcp_messages);
    EXPECT_EQ(a.flows_exported, b.flows_exported);
    EXPECT_EQ(a.flows_tagged_at_start, b.flows_tagged_at_start);
    EXPECT_EQ(a.flows_tagged_at_export, b.flows_tagged_at_export);
    EXPECT_EQ(a.degradation.malformed_total(),
              b.degradation.malformed_total());
    EXPECT_EQ(a.degradation.unsupported_frames,
              b.degradation.unsupported_frames);
  }

  static fs::path dir_;
  static std::string pcap_path_;
  static std::vector<pcap::Frame>* frames_;
};

fs::path PipelineTest::dir_;
std::string PipelineTest::pcap_path_;
std::vector<pcap::Frame>* PipelineTest::frames_ = nullptr;

// ------------------------------------------------------------ dispatching

TEST_F(PipelineTest, ShardForIsDeterministicAndCoversShards) {
  std::vector<std::size_t> counts(4, 0);
  for (const auto& frame : *frames_) {
    const std::size_t shard = pipeline::ShardedAnalyzer::shard_for(
        frame.data, 4);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(shard, pipeline::ShardedAnalyzer::shard_for(frame.data, 4));
    ++counts[shard];
    EXPECT_EQ(pipeline::ShardedAnalyzer::shard_for(frame.data, 1), 0u);
  }
  // 50 clients hashed over 4 shards: every shard must see traffic.
  for (std::size_t shard = 0; shard < 4; ++shard)
    EXPECT_GT(counts[shard], 0u) << "shard " << shard << " got no frames";
}

// Connections whose two ports are both ephemeral with server > client are
// the trap for per-packet dispatch: the SYN orients by its flags (sender =
// client) while data packets orient by the port heuristic (higher port =
// client), so the two directions hash to DIFFERENT shards and the
// connection would fork into half-flows. The affinity table must pin the
// whole connection to the first packet's shard.
TEST_F(PipelineTest, AmbiguousPortConnectionsDoNotForkAcrossShards) {
  using namespace packet::tcpflags;
  constexpr std::size_t kConnections = 32;
  std::vector<pcap::Frame> frames;
  bool directions_disagree = false;
  for (std::size_t i = 0; i < kConnections; ++i) {
    packet::FrameSpec c2s;
    c2s.src_ip = net::Ipv4Address(0x0a000001 + (static_cast<std::uint32_t>(i) << 8));
    c2s.dst_ip = net::Ipv4Address(0xcb000002 + (static_cast<std::uint32_t>(i) << 8));
    c2s.src_port = static_cast<std::uint16_t>(50000 + i);  // client (SYN sender)
    c2s.dst_port = static_cast<std::uint16_t>(55000 + i);  // "server", higher port
    packet::FrameSpec s2c = c2s;
    std::swap(s2c.src_ip, s2c.dst_ip);
    std::swap(s2c.src_port, s2c.dst_port);

    const auto t = [&](int step) {
      return util::Timestamp::from_micros(1'000'000 + static_cast<std::int64_t>(i) * 10'000 + step * 1'000);
    };
    const net::Bytes payload{'h', 'i'};
    const auto push = [&](int step, net::Bytes bytes) {
      frames.push_back(packet::make_pcap_frame(t(step), std::move(bytes)));
    };
    push(0, packet::build_tcp_frame(c2s, kSyn, 0, 0, {}));
    push(1, packet::build_tcp_frame(s2c, kSyn | kAck, 0, 1, {}));
    push(2, packet::build_tcp_frame(c2s, kAck | kPsh, 1, 1, payload));
    push(3, packet::build_tcp_frame(s2c, kAck | kPsh, 1, 3, payload));
    push(4, packet::build_tcp_frame(c2s, kFin | kAck, 3, 3, {}));
    push(5, packet::build_tcp_frame(s2c, kFin | kAck, 3, 4, {}));

    // Confirm the premise: the stateless heuristic really does send the
    // two directions of some connection to different shards.
    directions_disagree |=
        pipeline::ShardedAnalyzer::shard_for(frames[frames.size() - 6].data, 8) !=
        pipeline::ShardedAnalyzer::shard_for(frames[frames.size() - 3].data, 8);
  }
  ASSERT_TRUE(directions_disagree);
  std::sort(frames.begin(), frames.end(),
            [](const pcap::Frame& a, const pcap::Frame& b) {
              return a.timestamp < b.timestamp;
            });

  core::Sniffer sniffer;
  for (const auto& frame : frames) sniffer.on_frame(frame.data, frame.timestamp);
  sniffer.finish();
  core::FlowDatabase single = sniffer.take_database();
  pipeline::canonicalize(single);
  ASSERT_EQ(single.size(), kConnections);

  pipeline::PipelineConfig config;
  config.shards = 8;
  core::AnalysisWindow merged;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&& w) { merged = std::move(w); }};
  for (const auto& frame : frames) analyzer.on_frame(frame.data, frame.timestamp);
  analyzer.finish();

  EXPECT_EQ(merged.db.size(), kConnections);
  EXPECT_EQ(tsv(merged.db), tsv(single));
}

// The routing rule the dispatcher used before its header-only peek, kept
// verbatim as the differential oracle: full decode_frame, client by the
// port-53 special case or the flow-orientation rules, splitmix64 % N.
std::size_t oracle_shard(net::BytesView frame, std::size_t shards) {
  if (shards <= 1) return 0;
  const auto pkt = packet::decode_frame(frame, util::Timestamp{});
  if (!pkt || !pkt->is_ipv4()) return 0;
  const net::Ipv4Address src = pkt->src_v4();
  const net::Ipv4Address dst = pkt->dst_v4();
  const std::uint16_t sport = pkt->src_port();
  const std::uint16_t dport = pkt->dst_port();
  bool src_is_client;
  if (sport == 53) {
    src_is_client = false;
  } else if (dport == 53) {
    src_is_client = true;
  } else if (pkt->is_tcp() && pkt->tcp().syn() && !pkt->tcp().ack_flag()) {
    src_is_client = true;
  } else if (pkt->is_tcp() && pkt->tcp().syn() && pkt->tcp().ack_flag()) {
    src_is_client = false;
  } else if ((sport < 1024) != (dport < 1024)) {
    src_is_client = dport < 1024;
  } else if (sport != dport) {
    src_is_client = dport < sport;
  } else {
    src_is_client = src < dst;
  }
  std::uint64_t x = (src_is_client ? src : dst).value();
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards);
}

constexpr std::array<std::size_t, 4> kRouteShardCounts{2, 3, 4, 8};

void expect_routes_like_oracle(const net::Bytes& frame,
                               const std::string& what) {
  for (const std::size_t n : kRouteShardCounts)
    EXPECT_EQ(pipeline::ShardedAnalyzer::shard_for(frame, n),
              oracle_shard(frame, n))
        << what << " at " << n << " shards";
}

TEST_F(PipelineTest, RoutePeekMatchesFullDecodeOnCaptureAndEveryFault) {
  for (const auto& frame : *frames_)
    expect_routes_like_oracle(frame.data, "capture frame");
  // Every frame-corruption mode on its own, at a rate that damages most
  // frames: truncations, header bit flips and length lies reach every
  // acceptance check the peek shares with decode_frame.
  for (std::size_t kind = 0; kind < faultinject::kFaultKindCount; ++kind) {
    faultinject::FaultConfig config;
    config.seed = 40 + kind;
    config.fault_rate = 0.7;
    config.weights.fill(0);
    config.weights[kind] = 1;
    faultinject::FrameCorruptor corruptor{config};
    std::vector<pcap::Frame> damaged;
    for (const auto& frame : *frames_) corruptor.feed(frame, damaged);
    corruptor.flush(damaged);
    ASSERT_GT(corruptor.stats().injected(), 0u);
    const std::string label{faultinject::fault_kind_name(
        static_cast<faultinject::FaultKind>(kind))};
    for (const auto& frame : damaged)
      expect_routes_like_oracle(frame.data, label);
  }
}

// Hand-built frames at every boundary the peek checks. The endpoints are
// chosen so both route to a non-zero shard at every tested count: a frame
// the peek wrongly rejected (shard 0) or wrongly accepted (non-zero)
// cannot then agree with the oracle by coincidence.
TEST(PipelineRoutePeek, EdgeFramesRouteLikeFullDecode) {
  const auto nonzero_everywhere = [](std::uint32_t base) {
    for (std::uint32_t ip = base;; ++ip) {
      packet::FrameSpec spec;
      spec.src_ip = net::Ipv4Address{ip};
      spec.dst_ip = net::Ipv4Address{ip};
      spec.src_port = spec.dst_port = 80;
      const net::Bytes probe = packet::build_udp_frame(spec, {});
      bool ok = true;
      for (const std::size_t n : kRouteShardCounts)
        ok &= oracle_shard(probe, n) != 0;
      if (ok) return net::Ipv4Address{ip};
    }
  };
  packet::FrameSpec spec;
  spec.src_ip = nonzero_everywhere(0x0a000001);
  spec.dst_ip = nonzero_everywhere(0xcb007101);
  spec.src_port = 40000;
  spec.dst_port = 443;
  const net::Bytes payload{'p', 'a', 'y', 'l', 'o', 'a', 'd'};
  const net::Bytes udp = packet::build_udp_frame(spec, payload);
  const net::Bytes tcp =
      packet::build_tcp_frame(spec, packet::tcpflags::kAck, 1, 1, payload);
  constexpr std::size_t kIp = 14;       // IPv4 header offset, untagged
  constexpr std::size_t kL4 = kIp + 20;  // L4 header offset, no options
  for (const std::size_t n : kRouteShardCounts) {
    ASSERT_NE(oracle_shard(udp, n), 0u);
    ASSERT_NE(oracle_shard(tcp, n), 0u);
  }

  std::vector<std::pair<std::string, net::Bytes>> cases;
  const auto add = [&](std::string what, net::Bytes frame) {
    cases.emplace_back(std::move(what), std::move(frame));
  };
  const auto patched = [](net::Bytes frame, std::size_t at,
                          std::initializer_list<std::uint8_t> bytes) {
    std::copy(bytes.begin(), bytes.end(), frame.begin() + at);
    return frame;
  };
  const auto cut = [](net::Bytes frame, std::size_t size) {
    frame.resize(size);
    return frame;
  };
  add("udp", udp);
  add("tcp", tcp);
  add("empty", {});
  add("short ethernet", cut(udp, 13));
  add("ethernet only", cut(udp, 14));

  // 0-5 VLAN tags (802.1Q and 802.1ad), whole and cut inside a tag.
  for (int tags = 0; tags <= 5; ++tags) {
    for (const std::uint16_t tpid : {0x8100, 0x88a8}) {
      net::Bytes frame(udp.begin(), udp.begin() + 12);
      for (int t = 0; t < tags; ++t) {
        frame.push_back(static_cast<std::uint8_t>(tpid >> 8));
        frame.push_back(static_cast<std::uint8_t>(tpid));
        frame.push_back(0x00);
        frame.push_back(static_cast<std::uint8_t>(t + 1));  // VLAN id
      }
      frame.insert(frame.end(), udp.begin() + 12, udp.end());
      const std::string what =
          std::to_string(tags) + " tags of " + std::to_string(tpid);
      add(what, frame);
      if (tags > 0) add(what + ", cut in the last tag", cut(frame, 12 + 4 * tags - 1));
    }
  }

  // IPv4 header.
  add("ip version 6 under ipv4 ethertype", patched(udp, kIp, {0x65}));
  add("ihl 4", patched(udp, kIp, {0x44}));
  add("ihl 0", patched(udp, kIp, {0x40}));
  add("cut inside the ip header", cut(udp, kIp + 19));
  add("ihl 15, options past the buffer end", patched(udp, kIp, {0x4f}));
  add("ihl 15 on a bare header", cut(patched(udp, kIp, {0x4f}), kL4));
  {
    // Valid options: IHL 6 with four option bytes before the UDP header.
    net::Bytes frame = patched(udp, kIp, {0x46});
    frame.insert(frame.begin() + kL4, {1, 1, 1, 0});
    const std::uint16_t total =
        static_cast<std::uint16_t>(((frame[kIp + 2] << 8) | frame[kIp + 3]) + 4);
    frame[kIp + 2] = static_cast<std::uint8_t>(total >> 8);
    frame[kIp + 3] = static_cast<std::uint8_t>(total);
    add("ihl 6 with options", frame);
    add("ihl 6, options cut", cut(frame, kL4 + 2));
  }
  add("total length 19 < ihl", patched(udp, kIp + 2, {0x00, 19}));
  add("total length 20 == ihl", patched(udp, kIp + 2, {0x00, 20}));
  add("total length 0", patched(udp, kIp + 2, {0x00, 0x00}));
  add("icmp", patched(udp, kIp + 9, {1}));
  add("protocol 0", patched(udp, kIp + 9, {0}));

  // TCP header.
  add("tcp data offset 4", patched(tcp, kL4 + 12, {0x40}));
  add("tcp data offset 0", patched(tcp, kL4 + 12, {0x00}));
  add("tcp data offset 15 past the buffer end",
      cut(patched(tcp, kL4 + 12, {0xf0}), kL4 + 40));
  add("tcp data offset 8 exactly fits", cut(patched(tcp, kL4 + 12, {0x80}), kL4 + 32));
  add("tcp data offset 8, one byte short",
      cut(patched(tcp, kL4 + 12, {0x80}), kL4 + 31));
  add("cut inside the tcp header", cut(tcp, kL4 + 19));
  add("tcp header, no payload", cut(tcp, kL4 + 20));

  // UDP header.
  add("udp length 7", patched(udp, kL4 + 4, {0x00, 7}));
  add("udp length 0", patched(udp, kL4 + 4, {0x00, 0x00}));
  add("udp length 8", patched(udp, kL4 + 4, {0x00, 8}));
  add("udp length past the ip payload", patched(udp, kL4 + 4, {0xff, 0xff}));
  add("cut inside the udp header", cut(udp, kL4 + 7));

  // Not IPv4: both route to shard 0 whatever they carry.
  add("arp", patched(udp, 12, {0x08, 0x06}));
  add("ipv6 ethertype, ipv4 bytes", patched(udp, 12, {0x86, 0xdd}));
  {
    net::Bytes v6(udp.begin(), udp.begin() + 12);
    const net::Bytes rest{0x86, 0xdd, 0x60, 0, 0, 0, 0, 8, 17, 64};
    v6.insert(v6.end(), rest.begin(), rest.end());
    v6.resize(v6.size() + 32, 0x11);  // source + destination
    const net::Bytes header{0x9c, 0x40, 0x00, 53, 0x00, 8, 0, 0};
    v6.insert(v6.end(), header.begin(), header.end());
    add("ipv6 udp", v6);
  }

  // Orientation: flags, well-known ports, equal ports, DNS.
  using namespace packet::tcpflags;
  for (const auto& [sport, dport] :
       std::vector<std::pair<std::uint16_t, std::uint16_t>>{
           {40000, 443}, {443, 40000}, {50000, 55000}, {55000, 50000},
           {5000, 5000}, {80, 80}, {53, 53}, {53, 40000}, {40000, 53},
           {53, 80}, {1023, 1024}, {1024, 1023}}) {
    for (const bool swap_ips : {false, true}) {
      packet::FrameSpec s2 = spec;
      s2.src_port = sport;
      s2.dst_port = dport;
      if (swap_ips) std::swap(s2.src_ip, s2.dst_ip);
      const std::string what = "ports " + std::to_string(sport) + "->" +
                               std::to_string(dport) +
                               (swap_ips ? " swapped ips" : "");
      add(what + " udp", packet::build_udp_frame(s2, payload));
      for (const std::uint8_t flags :
           {kSyn, std::uint8_t(kSyn | kAck), kAck, std::uint8_t(kFin | kAck),
            kRst, std::uint8_t(0)})
        add(what + " tcp flags " + std::to_string(flags),
            packet::build_tcp_frame(s2, flags, 0, 0, {}));
    }
  }

  for (const auto& [what, frame] : cases) expect_routes_like_oracle(frame, what);
}

// ------------------------------------------------------------ determinism

TEST_F(PipelineTest, FourShardsBitIdenticalToSingleThread) {
  const Baseline baseline = run_baseline();

  pipeline::PipelineConfig config;
  config.shards = 4;
  core::AnalysisWindow merged;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&& w) { merged = std::move(w); }};
  for (const auto& frame : *frames_)
    analyzer.on_frame(frame.data, frame.timestamp);
  analyzer.finish();

  EXPECT_EQ(tsv(merged.db), tsv(baseline.db));
  ASSERT_EQ(merged.dns_log.size(), baseline.dns_log.size());
  for (std::size_t i = 0; i < merged.dns_log.size(); ++i) {
    EXPECT_EQ(merged.dns_log[i].time, baseline.dns_log[i].time);
    EXPECT_EQ(merged.dns_log[i].client, baseline.dns_log[i].client);
    EXPECT_EQ(merged.dns_log[i].fqdn, baseline.dns_log[i].fqdn);
    EXPECT_EQ(merged.dns_log[i].servers, baseline.dns_log[i].servers);
  }
  expect_stats_equal(analyzer.stats().merged, baseline.stats);

  const auto& stats = analyzer.stats();
  EXPECT_EQ(stats.frames_dispatched, frames_->size());
  EXPECT_EQ(stats.frames_dropped, 0u);
  EXPECT_EQ(stats.windows_merged, 1u);
  ASSERT_EQ(stats.shards.size(), 4u);
  std::uint64_t enqueued = 0, processed = 0;
  for (const auto& shard : stats.shards) {
    enqueued += shard.frames_enqueued;
    processed += shard.frames_processed;
    EXPECT_EQ(shard.frames_enqueued, shard.frames_processed);
  }
  EXPECT_EQ(enqueued, frames_->size());
  EXPECT_EQ(processed, frames_->size());
}

TEST_F(PipelineTest, ShardCountIsInvisibleAcrossCounts) {
  const Baseline baseline = run_baseline();
  const std::string reference = tsv(baseline.db);
  for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
    pipeline::PipelineConfig config;
    config.shards = shards;
    core::AnalysisWindow merged;
    pipeline::ShardedAnalyzer analyzer{
        config, [&](core::AnalysisWindow&& w) { merged = std::move(w); }};
    ASSERT_TRUE(analyzer.process_pcap(pcap_path_));
    analyzer.finish();
    EXPECT_EQ(tsv(merged.db), reference) << "shards=" << shards;
    EXPECT_EQ(merged.dns_log.size(), baseline.dns_log.size());
  }
}

TEST_F(PipelineTest, WindowedRotationMatchesLiveAnalyzer) {
  const util::Duration window = util::Duration::minutes(10);

  core::LiveConfig live_config;
  live_config.window = window;
  std::vector<core::AnalysisWindow> live_windows;
  core::LiveAnalyzer live{live_config, [&](core::AnalysisWindow&& w) {
                            live_windows.push_back(std::move(w));
                          }};
  for (const auto& frame : *frames_)
    live.on_frame(frame.data, frame.timestamp);
  live.finish();
  for (auto& w : live_windows) pipeline::canonicalize(w);

  pipeline::PipelineConfig config;
  config.shards = 3;
  config.window = window;
  std::vector<core::AnalysisWindow> merged_windows;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&& w) {
        merged_windows.push_back(std::move(w));
      }};
  for (const auto& frame : *frames_)
    analyzer.on_frame(frame.data, frame.timestamp);
  analyzer.finish();

  ASSERT_EQ(merged_windows.size(), live_windows.size());
  ASSERT_GE(merged_windows.size(), 4u);  // 40 min / 10 min + final partial
  for (std::size_t i = 0; i < merged_windows.size(); ++i) {
    EXPECT_EQ(merged_windows[i].start, live_windows[i].start) << "w" << i;
    EXPECT_EQ(merged_windows[i].end, live_windows[i].end) << "w" << i;
    EXPECT_EQ(tsv(merged_windows[i].db), tsv(live_windows[i].db))
        << "window " << i;
    EXPECT_EQ(merged_windows[i].dns_log.size(), live_windows[i].dns_log.size())
        << "window " << i;
  }
  EXPECT_EQ(analyzer.stats().windows_merged, merged_windows.size());
}

// ----------------------------------------------------------- backpressure

// Polls `done` until it holds or a generous deadline passes (a safety net
// against a hang, not a timing assumption); returns whether it held.
template <typename Done>
bool wait_until(Done done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(PipelineBackpressure, DropPolicyShedsAndCountsFrames) {
  // Hold both workers hostage until dispatch is done: every frame beyond
  // the queue capacity MUST be shed, deterministically.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;

  pipeline::PipelineConfig config;
  config.shards = 2;
  config.queue_capacity = 2;
  config.backpressure = pipeline::BackpressurePolicy::kDrop;
  config.worker_start_hook = [&](std::size_t) {
    std::unique_lock lock{mutex};
    cv.wait(lock, [&] { return release; });
  };
  pipeline::ShardedAnalyzer analyzer{config, nullptr};

  // Undecodable frames all route to shard 0.
  const net::Bytes junk{0xde, 0xad};
  constexpr std::uint64_t kFrames = 100;
  for (std::uint64_t i = 0; i < kFrames; ++i)
    analyzer.on_frame(junk, util::Timestamp::from_seconds(
                                static_cast<std::int64_t>(i)));
  {
    std::lock_guard lock{mutex};
    release = true;
  }
  cv.notify_all();
  analyzer.finish();

  const auto& stats = analyzer.stats();
  EXPECT_EQ(stats.frames_dispatched, kFrames);
  // Queue capacity 2 with held workers: exactly kFrames - 2 shed.
  EXPECT_EQ(stats.frames_dropped, kFrames - 2);
  EXPECT_EQ(stats.shards[0].frames_dropped, kFrames - 2);
  EXPECT_EQ(stats.shards[0].frames_enqueued, 2u);
  EXPECT_EQ(stats.shards[0].queue_high_water, 2u);
  EXPECT_EQ(stats.shards[1].frames_dropped, 0u);
  // Shed load is accounted as degradation, not silently lost.
  EXPECT_EQ(stats.merged.degradation.pipeline_frames_dropped, kFrames - 2);
  EXPECT_EQ(stats.merged.frames,
            stats.frames_dispatched - stats.frames_dropped);
  // Drops are a capacity event, not malformed input: only the two junk
  // frames that reached a worker count as malformed; the 98 shed frames
  // must not inflate the total.
  EXPECT_EQ(stats.merged.degradation.malformed_total(), 2u);
}

TEST(PipelineBackpressure, BlockPolicyIsLosslessAndCountsStalls) {
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> released{false};

  pipeline::PipelineConfig config;
  config.shards = 1;
  config.queue_capacity = 2;
  config.backpressure = pipeline::BackpressurePolicy::kBlock;
  config.worker_start_hook = [&](std::size_t) {
    std::unique_lock lock{mutex};
    cv.wait(lock, [&] { return release; });
  };
  pipeline::ShardedAnalyzer analyzer{config, nullptr};

  // The dispatcher will block on the third frame; release the worker from
  // a helper thread once it has counted that stall.
  const obs::Counter blocked =
      obs::Registry::global().counter("dnh_pipeline_blocked_pushes_total");
  const std::uint64_t blocked_before = blocked.value();
  std::thread releaser{[&] {
    EXPECT_TRUE(wait_until([&] { return blocked.value() > blocked_before; }));
    {
      std::lock_guard lock{mutex};
      release = true;
    }
    released.store(true);
    cv.notify_all();
  }};
  const net::Bytes junk{0xde, 0xad};
  constexpr std::uint64_t kFrames = 50;
  for (std::uint64_t i = 0; i < kFrames; ++i)
    analyzer.on_frame(junk, util::Timestamp::from_seconds(
                                static_cast<std::int64_t>(i)));
  EXPECT_TRUE(released.load());  // dispatch 50 > capacity 2 must have stalled
  releaser.join();
  analyzer.finish();

  const auto& stats = analyzer.stats();
  EXPECT_EQ(stats.frames_dropped, 0u);
  EXPECT_EQ(stats.shards[0].frames_enqueued, kFrames);
  EXPECT_EQ(stats.shards[0].frames_processed, kFrames);
  EXPECT_GT(stats.shards[0].blocked_pushes, 0u);
  EXPECT_EQ(stats.merged.frames, kFrames);
  EXPECT_EQ(stats.merged.degradation.pipeline_frames_dropped, 0u);
}

// ------------------------------------------------------------------ arena
//
// Frame bytes travel to a shard through its payload arena, a byte ring
// sized at 256 bytes per ring slot (1 MiB at the default 4096 slots) and
// never under 512 KiB. These tests use frames far larger than the corpus
// average, so the arena, not the ring, is what fills and wraps.

class PipelineArena : public PipelineTest {
 protected:
  /// Frame `frame` with zero bytes appended up to `size`: the decoder
  /// reads only the IP total length, so the trailer changes no result,
  /// but a payload the arena wrapped or overwrote would.
  static const net::Bytes& padded(const pcap::Frame& frame, std::size_t size,
                                  net::Bytes& buffer) {
    buffer.assign(frame.data.begin(), frame.data.end());
    if (buffer.size() < size) buffer.resize(size, 0);
    return buffer;
  }

  /// Single-threaded and 3-shard results over the same frame sequence
  /// must be identical.
  template <typename Feed>
  static void expect_sharded_matches_single(
      const pipeline::PipelineConfig& config, Feed feed) {
    core::Sniffer sniffer;
    feed([&](net::BytesView bytes, util::Timestamp ts) {
      sniffer.on_frame(bytes, ts);
    });
    sniffer.finish();
    core::FlowDatabase single = sniffer.take_database();
    std::vector<core::DnsEvent> single_log = sniffer.take_dns_log();
    pipeline::canonicalize(single);
    pipeline::canonicalize(single_log);

    core::AnalysisWindow merged;
    pipeline::ShardedAnalyzer analyzer{
        config, [&](core::AnalysisWindow&& w) { merged = std::move(w); }};
    feed([&](net::BytesView bytes, util::Timestamp ts) {
      analyzer.on_frame(bytes, ts);
    });
    analyzer.finish();

    EXPECT_EQ(analyzer.stats().frames_dropped, 0u);
    expect_stats_equal(analyzer.stats().merged, sniffer.stats());
    ASSERT_GT(single.size(), 0u);
    EXPECT_EQ(tsv(merged.db), tsv(single));
    ASSERT_EQ(merged.dns_log.size(), single_log.size());
    for (std::size_t i = 0; i < single_log.size(); ++i) {
      EXPECT_EQ(merged.dns_log[i].fqdn, single_log[i].fqdn) << i;
      EXPECT_EQ(merged.dns_log[i].servers, single_log[i].servers) << i;
    }
  }

  /// Number of dispatcher backpressure waits in the flight recorder.
  static std::size_t backpressure_waits() {
    std::size_t n = 0;
    for (const auto& thread : obs::FlightRecorder::global().snapshot())
      for (const auto& event : thread.events)
        n += event.stage == obs::TraceStage::kDispatch &&
             event.kind == obs::TraceKind::kBackpressureWait;
    return n;
  }
};

TEST_F(PipelineArena, FramesStraddlingTheArenaEndArriveIntact) {
  // Sizes 20-80 KiB in a sequence coprime to every power of two: about 20
  // frames per lap of the arena, and most laps end with a frame that would
  // straddle the end and starts the next lap instead. A small ring makes
  // ring-full and arena-full stalls interleave.
  constexpr std::size_t kFrames = 3000;
  net::Bytes buffer;
  const auto feed = [&](auto&& sink) {
    for (std::size_t i = 0; i < kFrames && i < frames_->size(); ++i) {
      const std::size_t size = 20'000 + (i * 7'919) % 60'000;
      sink(padded((*frames_)[i], size, buffer), (*frames_)[i].timestamp);
    }
  };
  for (const std::size_t queue : {std::size_t{4096}, std::size_t{4}}) {
    SCOPED_TRACE(queue);
    pipeline::PipelineConfig config;
    config.shards = 3;
    config.queue_capacity = queue;
    expect_sharded_matches_single(config, feed);
  }
}

TEST_F(PipelineArena, MaxRecordAndLargerFramesArriveWhole) {
  // One frame of pcap's largest record (256 KiB, half the smallest
  // arena), and one of 3 MiB, which only pcapng can carry and which makes
  // the shard's arena grow, both among ordinary frames; every third frame
  // is padded to 256 KiB.
  constexpr std::size_t kFrames = 2000;
  constexpr std::size_t kMaxRecord = 256 * 1024;
  net::Bytes buffer;
  const auto feed = [&](auto&& sink) {
    for (std::size_t i = 0; i < kFrames && i < frames_->size(); ++i) {
      std::size_t size = 0;
      if (i == 500) size = kMaxRecord;
      if (i == 1000) size = 3 * 1024 * 1024;
      if (i > 1000 && i % 3 == 0) size = kMaxRecord;
      sink(padded((*frames_)[i], size, buffer), (*frames_)[i].timestamp);
    }
  };
  pipeline::PipelineConfig config;
  config.shards = 3;
  expect_sharded_matches_single(config, feed);
}

TEST_F(PipelineArena, ArenaFullBeforeRingFullBlocksLosslessly) {
  // 64 frames of 64 KiB fill a 1 MiB arena long before its 4096-slot ring:
  // under kBlock the dispatcher must wait for the held worker, count the
  // stall, and lose nothing.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  pipeline::PipelineConfig config;
  config.shards = 1;
  config.backpressure = pipeline::BackpressurePolicy::kBlock;
  config.worker_start_hook = [&](std::size_t) {
    std::unique_lock lock{mutex};
    cv.wait(lock, [&] { return release; });
  };
  pipeline::ShardedAnalyzer analyzer{config, nullptr};

  const obs::Counter blocked =
      obs::Registry::global().counter("dnh_pipeline_blocked_pushes_total");
  const std::uint64_t blocked_before = blocked.value();
  std::thread releaser{[&] {
    EXPECT_TRUE(wait_until([&] { return blocked.value() > blocked_before; }));
    {
      std::lock_guard lock{mutex};
      release = true;
    }
    cv.notify_all();
  }};
  constexpr std::uint64_t kFrames = 64;
  net::Bytes junk(64 * 1024, 0);
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    junk[0] = static_cast<std::uint8_t>(i);
    analyzer.on_frame(junk, util::Timestamp::from_seconds(
                                static_cast<std::int64_t>(i)));
  }
  releaser.join();
  analyzer.finish();

  const auto& stats = analyzer.stats();
  EXPECT_EQ(stats.frames_dropped, 0u);
  EXPECT_EQ(stats.shards[0].frames_enqueued, kFrames);
  EXPECT_EQ(stats.shards[0].frames_processed, kFrames);
  EXPECT_GT(stats.shards[0].blocked_pushes, 0u);
  EXPECT_LT(stats.shards[0].queue_high_water, config.queue_capacity);
  EXPECT_EQ(stats.merged.frames, kFrames);
}

TEST_F(PipelineArena, ArenaFullUnderDropShedsFramesButNeverControlItems) {
  // Held worker, kDrop: 64 KiB frames beyond what the arena holds are shed
  // at arrival and counted. An export record and the window rotations
  // that follow meet the same full arena and must wait instead: the
  // worker is released only once the dispatcher is seen waiting.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  pipeline::PipelineConfig config;
  config.shards = 1;
  config.backpressure = pipeline::BackpressurePolicy::kDrop;
  config.window = util::Duration::seconds(10);
  config.worker_start_hook = [&](std::size_t) {
    std::unique_lock lock{mutex};
    cv.wait(lock, [&] { return release; });
  };
  std::size_t windows = 0;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&&) { ++windows; }};

  const obs::Counter shed =
      obs::Registry::global().counter("dnh_pipeline_frames_dropped_total");
  const std::uint64_t shed_before = shed.value();
  constexpr std::uint64_t kFrames = 64;
  const net::Bytes junk(64 * 1024, 0xab);
  for (std::uint64_t i = 0; i < kFrames; ++i)
    analyzer.on_frame(junk, util::Timestamp::from_micros(
                                1'000'000 + static_cast<std::int64_t>(i)));
  const std::uint64_t dropped = shed.value() - shed_before;

  const std::size_t waits_before = backpressure_waits();
  std::thread releaser{[&] {
    EXPECT_TRUE(
        wait_until([&] { return backpressure_waits() > waits_before; }));
    {
      std::lock_guard lock{mutex};
      release = true;
    }
    cv.notify_all();
  }};
  flowexport::ExportRecord record;
  record.src_ip = net::Ipv4Address{10, 0, 0, 1};
  record.dst_ip = net::Ipv4Address{93, 184, 216, 34};
  record.src_port = 50000;
  record.dst_port = 80;
  record.packets = 3;
  record.bytes = 1200;
  record.first = util::Timestamp::from_seconds(2);
  record.last = util::Timestamp::from_seconds(3);
  analyzer.on_export_record(record, util::Timestamp::from_seconds(3));
  releaser.join();
  // Two rotations ([0,10) and [10,20) close), then the stop item.
  analyzer.on_frame(junk, util::Timestamp::from_seconds(25));
  analyzer.finish();

  const auto& stats = analyzer.stats();
  EXPECT_EQ(dropped, stats.frames_dropped);  // nothing shed after the fill
  EXPECT_GT(stats.frames_dropped, 0u);
  EXPECT_EQ(stats.shards[0].frames_enqueued + stats.frames_dropped,
            kFrames + 1);
  EXPECT_LT(stats.shards[0].frames_enqueued, kFrames);
  EXPECT_EQ(stats.shards[0].blocked_pushes, 0u);  // kDrop never blocks frames
  EXPECT_EQ(stats.merged.frames, stats.shards[0].frames_enqueued);
  EXPECT_EQ(stats.merged.degradation.pipeline_frames_dropped,
            stats.frames_dropped);
  EXPECT_EQ(stats.records_dispatched, 1u);
  EXPECT_EQ(stats.merged.export_records, 1u);
  EXPECT_EQ(stats.windows_merged, 3u);
  EXPECT_EQ(windows, 3u);
}

TEST_F(PipelineArena, ShedFramesGiveTheirArenaBytesBack) {
  // A 2-slot ring and a held worker: two tiny frames fill the ring, the
  // 64 KiB frames after them reach the (512 KiB) arena and are shed at the
  // full ring. Their bytes must return to the arena with them: an export
  // record pushed next needs arena room that only the shed frames hold,
  // and it must get through once the worker drains the ring.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  pipeline::PipelineConfig config;
  config.shards = 1;
  config.queue_capacity = 2;
  config.backpressure = pipeline::BackpressurePolicy::kDrop;
  config.worker_start_hook = [&](std::size_t) {
    std::unique_lock lock{mutex};
    cv.wait(lock, [&] { return release; });
  };
  pipeline::ShardedAnalyzer analyzer{config, nullptr};

  const net::Bytes tiny{0xde, 0xad};
  const net::Bytes big(65535, 0xab);
  constexpr std::uint64_t kBig = 9;  // 2 + 8 x 65535 bytes fill 512 KiB
  const auto ts = [](std::uint64_t i) {
    return util::Timestamp::from_micros(static_cast<std::int64_t>(i));
  };
  analyzer.on_frame(tiny, ts(0));
  analyzer.on_frame(tiny, ts(1));
  for (std::uint64_t i = 0; i < kBig; ++i) analyzer.on_frame(big, ts(2 + i));

  const std::size_t waits_before = backpressure_waits();
  std::thread releaser{[&] {
    EXPECT_TRUE(
        wait_until([&] { return backpressure_waits() > waits_before; }));
    {
      std::lock_guard lock{mutex};
      release = true;
    }
    cv.notify_all();
  }};
  flowexport::ExportRecord record;
  record.src_ip = net::Ipv4Address{10, 0, 0, 1};
  record.dst_ip = net::Ipv4Address{93, 184, 216, 34};
  record.src_port = 50000;
  record.dst_port = 80;
  record.packets = 1;
  record.bytes = 60;
  record.first = ts(20);
  record.last = ts(20);
  analyzer.on_export_record(record, ts(20));
  releaser.join();
  analyzer.finish();

  const auto& stats = analyzer.stats();
  EXPECT_EQ(stats.shards[0].frames_enqueued, 2u);
  EXPECT_EQ(stats.frames_dropped, kBig);
  EXPECT_EQ(stats.merged.frames, 2u);
  EXPECT_EQ(stats.merged.export_records, 1u);
}

// ------------------------------------------------------------- edge cases

TEST(PipelineEdge, EmptyRunDeliversNoWindow) {
  pipeline::PipelineConfig config;
  config.shards = 3;
  std::size_t windows = 0;
  {
    pipeline::ShardedAnalyzer analyzer{
        config, [&](core::AnalysisWindow&&) { ++windows; }};
    analyzer.finish();
    EXPECT_EQ(analyzer.stats().frames_dispatched, 0u);
    EXPECT_EQ(analyzer.stats().windows_merged, 0u);
  }
  EXPECT_EQ(windows, 0u);
}

TEST(PipelineEdge, DestructorFinishesWithoutExplicitCall) {
  pipeline::PipelineConfig config;
  config.shards = 2;
  std::size_t windows = 0;
  {
    pipeline::ShardedAnalyzer analyzer{
        config, [&](core::AnalysisWindow&&) { ++windows; }};
    const net::Bytes junk{0x01, 0x02};
    analyzer.on_frame(junk, util::Timestamp::from_seconds(1));
    // No finish(): the destructor must flush, merge, and join.
  }
  EXPECT_EQ(windows, 1u);
}

TEST(PipelineEdge, MissingCaptureReportsError) {
  pipeline::PipelineConfig config;
  config.shards = 2;
  pipeline::ShardedAnalyzer analyzer{config, nullptr};
  EXPECT_FALSE(analyzer.process_pcap("/nonexistent/trace.pcap"));
  analyzer.finish();
  EXPECT_FALSE(analyzer.error().empty());
}

// ----------------------------------------------------------- canonicalize

TEST(Canonicalize, SortsFlowsAndRebuildsIndexes) {
  core::FlowDatabase db;
  core::TaggedFlow late;
  late.key.client_ip = net::Ipv4Address(0x0a000001);
  late.key.server_ip = net::Ipv4Address(0x08080808);
  late.key.server_port = 443;
  late.first_packet = util::Timestamp::from_seconds(200);
  late.fqdn = "b.example.com";
  core::TaggedFlow early = late;
  early.first_packet = util::Timestamp::from_seconds(100);
  early.fqdn = "a.example.com";
  db.add(late);
  db.add(early);

  pipeline::canonicalize(db);
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db.flows()[0].fqdn, "a.example.com");
  EXPECT_EQ(db.flows()[1].fqdn, "b.example.com");
  // Indexes rebuilt against the new order.
  ASSERT_EQ(db.by_fqdn("b.example.com").size(), 1u);
  EXPECT_EQ(db.by_fqdn("b.example.com")[0], 1u);
  EXPECT_EQ(db.by_server_port(443).size(), 2u);
}

// ------------------------------------------------- lifecycle supervision

TEST(Supervisor, WatchdogFiresOnQuiescenceWithPendingWork) {
  obs::HeartbeatBoard board;
  board.add_stage("dispatch");
  board.add_stage("shard-0");
  std::mutex mu;
  std::condition_variable cv;
  std::optional<pipeline::StallDiagnostic> seen;
  pipeline::WatchdogConfig config;
  config.timeout = util::Duration::millis(50);
  config.poll = util::Duration::millis(10);
  config.pending = [](std::string& what) {
    what = "frames queued in shard rings";
    return true;  // work is always pending, and nothing ever beats
  };
  config.on_stall = [&](const pipeline::StallDiagnostic& diagnostic) {
    std::lock_guard<std::mutex> lock{mu};
    seen = diagnostic;
    cv.notify_one();
  };
  pipeline::Watchdog watchdog{board, config};
  {
    std::unique_lock<std::mutex> lock{mu};
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return seen.has_value(); }));
  }
  watchdog.stop();
  EXPECT_TRUE(watchdog.stalled());
  ASSERT_EQ(seen->stages.size(), 2u);
  EXPECT_EQ(seen->stages[0].name, "dispatch");
  EXPECT_EQ(seen->pending, "frames queued in shard rings");
  EXPECT_GE(seen->stalled_for.total_micros(), 50'000);
  // The rendering names the stages and the pending condition, and ships
  // the flight-recorder excerpt so a stall report is actionable on its
  // own (the forensic contract of docs/observability.md).
  const std::string text = seen->to_string();
  EXPECT_NE(text.find("shard-0"), std::string::npos);
  EXPECT_NE(text.find("frames queued"), std::string::npos);
  EXPECT_FALSE(seen->trace_excerpt.empty());
  EXPECT_NE(text.find("trace excerpt"), std::string::npos);
}

TEST(Supervisor, WatchdogStaysQuietWhenIdleOrBeating) {
  obs::HeartbeatBoard board;
  const auto stage = board.add_stage("worker");
  std::atomic<bool> fired{false};
  std::atomic<bool> pending{false};

  pipeline::WatchdogConfig config;
  config.timeout = util::Duration::millis(40);
  config.poll = util::Duration::millis(10);
  config.pending = [&](std::string&) { return pending.load(); };
  config.on_stall = [&](const pipeline::StallDiagnostic&) { fired = true; };
  pipeline::Watchdog watchdog{board, config};

  // Idle (nothing pending): quiescence is not a stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(fired.load());

  // Pending but beating: progress resets the clock.
  pending = true;
  for (int i = 0; i < 12; ++i) {
    board.beat(stage);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  watchdog.stop();
  EXPECT_FALSE(fired.load());
  EXPECT_FALSE(watchdog.stalled());
}

TEST(Supervisor, DrainFlagRoundTrip) {
  pipeline::reset_drain_flag();
  EXPECT_FALSE(pipeline::drain_requested());
  pipeline::request_drain();
  EXPECT_TRUE(pipeline::drain_requested());
  pipeline::reset_drain_flag();
  EXPECT_FALSE(pipeline::drain_requested());
}

TEST(Supervisor, DrainCheckStopsIngestionThroughTheNormalPath) {
  // A pipeline whose drain_check trips after the first frames must still
  // deliver a merged (partial) window through finish(), not hang or drop
  // the sink.
  auto profile = trafficgen::profile_eu1_ftth();
  profile.name = "drain-test";
  profile.duration = util::Duration::minutes(5);
  profile.n_clients = 8;
  trafficgen::Simulator sim{profile};
  const auto dir = fs::temp_directory_path() /
                   ("dnh_drain_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string pcap = (dir / "drain.pcap").string();
  ASSERT_TRUE(sim.write_pcap(pcap));

  std::atomic<std::uint64_t> frames{0};
  pipeline::PipelineConfig config;
  config.shards = 2;
  config.drain_check = [&] { return frames.fetch_add(1) > 200; };
  std::size_t windows = 0;
  {
    pipeline::ShardedAnalyzer analyzer{
        config, [&](core::AnalysisWindow&&) { ++windows; }};
    EXPECT_TRUE(analyzer.process_pcap(pcap));
    analyzer.finish();
    EXPECT_EQ(windows, 1u);
    // Dispatch stopped early: far fewer frames than the capture holds.
    EXPECT_LT(analyzer.stats().frames_dispatched, 100'000u);
  }
  fs::remove_all(dir);
}

// ------------------------------------------------ metrics/stats parity

TEST_F(PipelineTest, MetricsSnapshotMatchesStatsAfterShardedChaosRun) {
  // The metrics a monitoring agent scrapes and the stats the CLI prints
  // come from different plumbing (registry counters vs struct fields);
  // after a sharded run over a damaged capture they must tell the same
  // story, or one of them is lying.
  obs::Registry::global().reset();

  faultinject::FileFaultConfig file_faults;
  file_faults.seed = 7;
  file_faults.garbage_run_rate = 0.002;
  file_faults.length_lie_rate = 0.001;
  file_faults.truncate_tail = true;
  const std::string chaos_path = (dir_ / "chaos_metrics.pcap").string();
  const auto report =
      faultinject::corrupt_pcap_file(pcap_path_, chaos_path, file_faults);
  ASSERT_TRUE(report.has_value());
  ASSERT_GT(report->faults(), 0u);

  pipeline::PipelineConfig config;
  config.shards = 4;
  config.sniffer.resync_capture = true;
  core::AnalysisWindow merged;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&& w) { merged = std::move(w); }};
  ASSERT_TRUE(analyzer.process_pcap(chaos_path));
  analyzer.finish();

  const pipeline::PipelineStats& stats = analyzer.stats();
  const core::SnifferStats& sniff = stats.merged;
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  const auto family_sum = [&](const std::string& prefix) {
    std::uint64_t sum = 0;
    for (const auto& [name, value] : snap.counters)
      if (name.rfind(prefix, 0) == 0) sum += value;
    return sum;
  };

  // SnifferStats (merged across shards) vs counters.
  EXPECT_EQ(counter("dnh_frames_total"), sniff.frames);
  EXPECT_EQ(family_sum("dnh_decode_errors_total"), sniff.decode_failures);
  EXPECT_EQ(counter("dnh_dns_responses_total"), sniff.dns_responses);
  EXPECT_EQ(family_sum("dnh_dns_parse_errors_total"),
            sniff.dns_parse_failures);
  EXPECT_EQ(counter("dnh_dns_queries_total"), sniff.dns_queries);
  EXPECT_EQ(counter("dnh_dns_tcp_messages_total"), sniff.dns_tcp_messages);
  EXPECT_EQ(counter("dnh_flows_exported_total"), sniff.flows_exported);
  EXPECT_EQ(counter("dnh_flows_tagged_start_total"),
            sniff.flows_tagged_at_start);
  EXPECT_EQ(counter("dnh_flows_tagged_late_total"),
            sniff.flows_tagged_at_export);

  // PipelineStats vs counters.
  EXPECT_EQ(counter("dnh_pipeline_frames_dispatched_total"),
            stats.frames_dispatched);
  EXPECT_EQ(counter("dnh_pipeline_frames_dropped_total"),
            stats.frames_dropped);
  EXPECT_EQ(counter("dnh_pipeline_windows_merged_total"),
            stats.windows_merged);

  // Capture corruption (the chaos actually hit) vs the pcap counters.
  EXPECT_GT(sniff.degradation.capture_resyncs, 0u);
  EXPECT_EQ(counter("dnh_pcap_resyncs_total"),
            sniff.degradation.capture_resyncs);
  EXPECT_EQ(counter("dnh_pcap_bytes_skipped_total"),
            sniff.degradation.capture_bytes_skipped);
  EXPECT_EQ(counter("dnh_pcap_truncated_tails_total"),
            sniff.degradation.capture_truncated_tails);
}

// ------------------------------------------------ causal window tracing

TEST_F(PipelineTest, WindowLifecycleLeavesCausalTraceChain) {
  // Every rotated window must leave a dispatched -> sealed -> ingested ->
  // emitted chain in the flight recorder, all stamped with the same
  // WindowTraceId (the window sequence number). Only events recorded
  // after t0 count — the global recorder also holds earlier tests' runs.
  auto& recorder = obs::FlightRecorder::global();
  recorder.set_enabled(true);
  const std::uint64_t t0 = recorder.now_ns();

  pipeline::PipelineConfig config;
  config.shards = 2;
  config.window = util::Duration::minutes(10);
  std::size_t windows = 0;
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&&) { ++windows; }};
  for (const auto& frame : *frames_)
    analyzer.on_frame(frame.data, frame.timestamp);
  analyzer.finish();
  ASSERT_GE(windows, 4u);

  std::map<std::uint64_t, std::set<obs::TraceKind>> by_seq;
  std::uint64_t max_emitted = 0;
  for (const auto& thread : recorder.snapshot()) {
    for (const auto& event : thread.events) {
      if (event.ts_ns < t0 || event.seq == obs::kNoSeq) continue;
      by_seq[event.seq].insert(event.kind);
      if (event.kind == obs::TraceKind::kWindowEmitted)
        max_emitted = std::max(max_emitted, event.seq);
    }
  }
  // The final (partial) window is sealed by shutdown, not by a rotation
  // broadcast, so the full four-stage chain is asserted for the rotated
  // windows only.
  for (std::uint64_t seq = 0; seq + 1 < windows; ++seq) {
    const auto& kinds = by_seq[seq];
    EXPECT_TRUE(kinds.count(obs::TraceKind::kWindowDispatched)) << seq;
    EXPECT_TRUE(kinds.count(obs::TraceKind::kWindowSealed)) << seq;
    EXPECT_TRUE(kinds.count(obs::TraceKind::kMergeIngested)) << seq;
    EXPECT_TRUE(kinds.count(obs::TraceKind::kWindowEmitted)) << seq;
  }
  EXPECT_EQ(max_emitted, windows - 1);  // every window reached the sink
}

TEST(Canonicalize, OrdersDnsEventsByTimeThenClientThenName) {
  std::vector<core::DnsEvent> log;
  const auto client_a = net::Ipv4Address(1);
  const auto client_b = net::Ipv4Address(2);
  log.push_back({util::Timestamp::from_seconds(5), client_b, "z.com", {}});
  log.push_back({util::Timestamp::from_seconds(5), client_a, "z.com", {}});
  log.push_back({util::Timestamp::from_seconds(5), client_a, "a.com", {}});
  log.push_back({util::Timestamp::from_seconds(1), client_b, "m.com", {}});
  pipeline::canonicalize(log);
  EXPECT_EQ(log[0].fqdn, "m.com");
  EXPECT_EQ(log[1].fqdn, "a.com");
  EXPECT_EQ(log[2].fqdn, "z.com");
  EXPECT_EQ(log[2].client, client_a);
  EXPECT_EQ(log[3].client, client_b);
}

}  // namespace
}  // namespace dnh

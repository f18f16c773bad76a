#include "probes.hpp"

#include <algorithm>
#include <memory>

#include "dns/wire_scan.hpp"
#include "flow/table.hpp"
#include "flowexport/stream.hpp"
#include "flowexport/wire.hpp"
#include "packet/decode.hpp"
#include "pcap/pcapng.hpp"

namespace perfbench {

using namespace dnh;

namespace {

constexpr int kSetupRepeats = 5;
constexpr std::size_t kFlowChunk = 1 << 16;

double ns_per(Clock::time_point a, Clock::time_point b, std::uint64_t n) {
  return n == 0 ? 0.0 : seconds_between(a, b) * 1e9 / static_cast<double>(n);
}

bool is_dns(const packet::DecodedPacket& p) {
  return p.src_port() == 53 || p.dst_port() == 53;
}

}  // namespace

std::vector<Metric> capture_layer_probes(const std::string& pcap_path,
                                         const FrameBuffer& frames) {
  std::vector<Metric> m;
  const std::uint64_t n = frames.size();

  // pcap: the reader with a sink that only counts.
  std::uint64_t read_frames = 0;
  std::uint64_t read_bytes = 0;
  std::string error;
  auto t0 = Clock::now();
  pcap::read_any_capture(
      pcap_path,
      [&](const pcap::Frame& f) {
        ++read_frames;
        read_bytes += f.data.size();
      },
      error);
  auto t1 = Clock::now();
  m.push_back({"pcap.read_ns_per_frame", ns_per(t0, t1, read_frames), "ns"});
  m.push_back({"pcap.frames", static_cast<double>(read_frames), "count"});
  m.push_back({"pcap.bytes", static_cast<double>(read_bytes), "bytes"});

  // packet: decode_frame over every frame.
  std::uint64_t failures = 0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i)
    if (!packet::decode_frame(frames.frame(i), frames.stamps[i])) ++failures;
  t1 = Clock::now();
  m.push_back({"packet.decode_ns_per_frame", ns_per(t0, t1, n), "ns"});
  m.push_back({"packet.decode_failures", static_cast<double>(failures),
               "count"});

  // DNS responses for the dns layer: the UDP/53 payloads the sniffer scans.
  std::vector<net::BytesView> responses;
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = packet::decode_frame(frames.frame(i), frames.stamps[i]);
    if (p && p->is_udp() && p->src_port() == 53)
      responses.push_back(p->payload);
  }
  dns::ResponseScratch scratch;
  dns::MessageParseError parse_error{};
  std::uint64_t scan_failures = 0;
  t0 = Clock::now();
  for (const auto wire : responses)
    if (!dns::scan_response(wire, scratch, parse_error)) ++scan_failures;
  t1 = Clock::now();
  m.push_back({"dns.scan_ns_per_response", ns_per(t0, t1, responses.size()),
               "ns"});
  m.push_back({"dns.responses", static_cast<double>(responses.size()),
               "count"});
  m.push_back({"dns.scan_failures", static_cast<double>(scan_failures),
               "count"});

  // flow: the table fed every non-DNS packet, as the sniffer feeds it.
  // Packets are decoded a chunk at a time outside the timed region.
  {
    flow::FlowTable table;
    table.set_exporter([](flow::FlowRecord&&) {});
    std::vector<packet::DecodedPacket> chunk;
    chunk.reserve(kFlowChunk);
    double busy = 0;
    std::uint64_t packets = 0;
    for (std::size_t begin = 0; begin < n; begin += kFlowChunk) {
      chunk.clear();
      for (std::size_t i = begin; i < std::min(n, begin + kFlowChunk); ++i) {
        auto p = packet::decode_frame(frames.frame(i), frames.stamps[i]);
        if (p && !is_dns(*p)) chunk.push_back(*p);
      }
      t0 = Clock::now();
      for (const auto& p : chunk) table.on_packet(p);
      busy += seconds_between(t0, Clock::now());
      packets += chunk.size();
    }
    m.push_back({"flow.update_ns_per_packet",
                 packets == 0 ? 0.0 : busy * 1e9 / static_cast<double>(packets),
                 "ns"});
    m.push_back({"flow.flows_seen", static_cast<double>(table.flows_seen()),
                 "count"});
  }

  // core: the whole sniffer per frame, finish() excluded.
  {
    core::Sniffer sniffer;
    t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i)
      sniffer.on_frame(frames.frame(i), frames.stamps[i]);
    t1 = Clock::now();
    sniffer.finish();
    const auto& rs = sniffer.resolver().stats();
    m.push_back({"core.sniff_ns_per_frame", ns_per(t0, t1, n), "ns"});
    m.push_back({"core.resolver_lookups", static_cast<double>(rs.lookups),
                 "count"});
    m.push_back({"core.resolver_hit_ratio",
                 rs.lookups == 0 ? 0.0
                                 : static_cast<double>(rs.hits) /
                                       static_cast<double>(rs.lookups),
                 "ratio"});
    m.push_back({"core.flows_tagged_late",
                 static_cast<double>(sniffer.stats().flows_tagged_at_export),
                 "count"});
  }

  return m;
}

std::vector<Metric> core_setup_probe() {
  std::vector<double> setup;
  double setup_rss = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double rss_before = current_rss_mb();
    const auto t0 = Clock::now();
    auto sniffer = std::make_unique<core::Sniffer>();
    const auto t1 = Clock::now();
    setup.push_back(seconds_between(t0, t1));
    setup_rss = std::max(setup_rss, current_rss_mb() - rss_before);
  }
  return {{"core.setup_s", median(setup), "s"},
          {"core.setup_rss_mb", setup_rss, "MiB"}};
}

PipelineProbe pipeline_probe(const pipeline::PipelineConfig& config,
                             const FrameBuffer& frames,
                             util::Timestamp first, double warp) {
  PipelineProbe probe;
  probe.dispatch_ns.reserve(frames.size());
  probe.offer_lag_ms.reserve(frames.size());
  auto t0 = Clock::now();
  auto analyzer = std::make_unique<pipeline::ShardedAnalyzer>(
      config, [](core::AnalysisWindow&&) {});
  const auto start = Clock::now();
  probe.setup_s = seconds_between(t0, start);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(
                            (frames.stamps[i] - first).total_micros()) *
                        warp));
    auto now = Clock::now();
    while (now < due) now = Clock::now();
    probe.offer_lag_ms.push_back(
        std::chrono::duration<double, std::milli>(now - due).count());
    analyzer->on_frame(frames.frame(i), frames.stamps[i]);
    probe.dispatch_ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - now).count());
  }
  t0 = Clock::now();
  analyzer->finish();
  probe.finish_s = seconds_between(t0, Clock::now());
  probe.stats = analyzer->stats();
  t0 = Clock::now();
  analyzer.reset();
  probe.teardown_s = seconds_between(t0, Clock::now());
  return probe;
}

std::vector<double> shard_busy_probe(const core::SnifferConfig& config,
                                     std::size_t shards,
                                     const FrameBuffer& frames) {
  std::vector<std::vector<std::size_t>> parts(shards);
  for (std::size_t i = 0; i < frames.size(); ++i)
    parts[pipeline::ShardedAnalyzer::shard_for(frames.frame(i), shards)]
        .push_back(i);
  std::vector<double> busy;
  for (const auto& part : parts) {
    core::Sniffer sniffer{config};
    const auto t0 = Clock::now();
    for (const std::size_t i : part)
      sniffer.on_frame(frames.frame(i), frames.stamps[i]);
    sniffer.finish();
    busy.push_back(seconds_between(t0, Clock::now()));
  }
  return busy;
}

double export_decode_probe(const std::string& stream_path) {
  flowexport::DatagramReader reader;
  if (!reader.open(stream_path)) return 0;
  std::vector<flowexport::Datagram> datagrams;
  flowexport::Datagram d;
  while (reader.next(d)) datagrams.push_back(d);
  flowexport::ExportDecoder decoder;
  std::vector<flowexport::ExportRecord> records;
  std::uint64_t total = 0;
  const auto t0 = Clock::now();
  for (const auto& datagram : datagrams) {
    records.clear();
    decoder.on_datagram(datagram.payload, records);
    total += records.size();
  }
  return ns_per(t0, Clock::now(), total);
}

}  // namespace perfbench

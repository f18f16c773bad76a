// Layer probes of a traced run: each replays one layer's public calls over
// the run's input, in memory, and times them from outside.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "core/sniffer.hpp"
#include "pipeline/pipeline.hpp"

namespace perfbench {

/// pcap, packet, dns, flow and core metrics of the capture (README.md,
/// "Per-layer metrics"); `frames` is the capture at `pcap_path`.
std::vector<Metric> capture_layer_probes(const std::string& pcap_path,
                                         const FrameBuffer& frames);

/// Set-up time and resident memory of one idle Sniffer. Run it before
/// anything else in the process, so freed heap does not hide the memory.
std::vector<Metric> core_setup_probe();

/// A fresh ShardedAnalyzer of `config` fed the capture open loop: frame i
/// is due `(stamps[i] - first) * warp` seconds (warp per capture
/// microsecond) after the start. Supplies the pipeline metrics a workload's
/// own traced pass cannot.
struct PipelineProbe {
  double setup_s = 0;
  double finish_s = 0;
  double teardown_s = 0;
  std::vector<double> dispatch_ns;   ///< inside each on_frame call
  std::vector<double> offer_lag_ms;  ///< how late each frame was offered
  dnh::pipeline::PipelineStats stats;
};
PipelineProbe pipeline_probe(const dnh::pipeline::PipelineConfig& config,
                             const FrameBuffer& frames,
                             dnh::util::Timestamp first, double warp);

/// Seconds each shard's Sniffer needs for the frames `shard_for` routes to
/// it, replayed shard after shard.
std::vector<double> shard_busy_probe(const dnh::core::SnifferConfig& config,
                                     std::size_t shards,
                                     const FrameBuffer& frames);

/// Nanoseconds per record to decode the export stream at `stream_path`.
double export_decode_probe(const std::string& stream_path);

}  // namespace perfbench

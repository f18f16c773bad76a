// Shared pieces of perfbench_run: timing, metric output, the in-memory
// capture the layer probes replay, and the span recorder of traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/bytes.hpp"
#include "util/time.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One named measurement, printed into the result JSON.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Median of `v` (sorted in place); 0 for an empty vector.
double median(std::vector<double>& v);
/// Nearest-rank percentile `p` in [0, 100] of `v` (sorted in place).
double percentile(std::vector<double>& v, double p);

/// Resident set size of this process right now, in MiB.
double current_rss_mb();
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// A capture held in memory: frame bytes back to back, with offsets.
struct FrameBuffer {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> offsets;  ///< frame i is [offsets[i], offsets[i+1])
  std::vector<dnh::util::Timestamp> stamps;

  std::size_t size() const noexcept { return stamps.size(); }
  dnh::net::BytesView frame(std::size_t i) const noexcept {
    return {bytes.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

/// Reads every frame of `pcap_path`; false (with a message on stderr) if
/// the capture cannot be read.
bool load_frames(const std::string& pcap_path, FrameBuffer& out);

/// Spans of one traced pass: name, start, end and parent, kept in memory
/// and written out once the pass is over. A disabled tracer records
/// nothing, so untraced passes run the same code.
class Tracer {
 public:
  static constexpr int kNone = -1;

  struct Span {
    std::string name;
    int parent = kNone;
    double start_s = 0;  ///< seconds since the tracer's origin
    double end_s = 0;
    /// Window id (AnalysisWindow::start, in capture microseconds) for
    /// per-window spans; -1 for layer spans.
    std::int64_t window = -1;
  };

  explicit Tracer(bool enabled) : enabled_{enabled} {}

  bool enabled() const noexcept { return enabled_; }
  int begin(const char* name, int parent) {
    if (!enabled_) return kNone;
    spans_.push_back({name, parent, now(), 0, -1});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int span) {
    if (span != kNone) spans_[static_cast<std::size_t>(span)].end_s = now();
  }
  /// Records a finished per-window span (times taken by the caller).
  void window(int parent, std::int64_t id, Clock::time_point start,
              Clock::time_point end) {
    if (!enabled_) return;
    spans_.push_back({"window", parent, seconds_between(origin_, start),
                      seconds_between(origin_, end), id});
  }
  double now() const { return seconds_between(origin_, Clock::now()); }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Span duration minus the part of it covered by its child layer spans
  /// (per-window spans overlap the layers and are left out).
  double self_time(int span) const;
  /// Sum of the durations of `parent`'s direct child layer spans.
  double child_time(int parent) const;
  /// Writes the spans as a Chrome/Perfetto trace-event JSON file.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace perfbench

#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "pcap/pcapng.hpp"

namespace perfbench {

double median(std::vector<double>& v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[index];
}

double current_rss_mb() {
  long pages = 0;
  long resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  const int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool load_frames(const std::string& pcap_path, FrameBuffer& out) {
  out = FrameBuffer{};
  out.offsets.push_back(0);
  std::string error;
  const bool ok = dnh::pcap::read_any_capture(
      pcap_path,
      [&out](const dnh::pcap::Frame& frame) {
        out.bytes.insert(out.bytes.end(), frame.data.begin(),
                         frame.data.end());
        out.offsets.push_back(out.bytes.size());
        out.stamps.push_back(frame.timestamp);
      },
      error);
  if (!ok)
    std::fprintf(stderr, "perfbench: cannot read %s: %s\n", pcap_path.c_str(),
                 error.c_str());
  return ok;
}

namespace {

bool is_layer(const Tracer::Span& s) { return s.window < 0; }

}  // namespace

double Tracer::self_time(int span) const {
  const Span& s = spans_[static_cast<std::size_t>(span)];
  std::vector<std::pair<double, double>> covered;
  for (const Span& c : spans_)
    if (c.parent == span && is_layer(c))
      covered.emplace_back(std::max(c.start_s, s.start_s),
                           std::min(c.end_s, s.end_s));
  std::sort(covered.begin(), covered.end());
  double busy = 0;
  double reach = s.start_s;
  for (const auto& [start, end] : covered) {
    const double from = std::max(start, reach);
    if (end > from) busy += end - from;
    reach = std::max(reach, end);
  }
  return (s.end_s - s.start_s) - busy;
}

double Tracer::child_time(int parent) const {
  double total = 0;
  for (const Span& c : spans_)
    if (c.parent == parent && is_layer(c)) total += c.end_s - c.start_s;
  return total;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Per-window spans go on their own track: they overlap the layers.
    out << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": " << (is_layer(s) ? 1 : 2) << ", \"ts\": "
        << static_cast<long long>(s.start_s * 1e6) << ", \"dur\": "
        << static_cast<long long>((s.end_s - s.start_s) * 1e6)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent;
    if (!is_layer(s)) out << ", \"window\": " << s.window;
    out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

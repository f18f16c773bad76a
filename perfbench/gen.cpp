// perfbench_gen: writes the benchmark's shared input for one seed.
//
//   perfbench_gen --seed N --out DIR
//
// Produces DIR/capture.pcap (the packet capture every workload reads) and
// DIR/export.v5.dnhx (the NetFlow-v5 stream of the same simulated world,
// which export-sharded pairs with the capture's DNS), then prints one JSON
// object describing them. The world and vantage point are fixed; the seed
// drives the client population's behaviour, so one seed always yields
// byte-identical files.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "trafficgen/profiles.hpp"
#include "trafficgen/simulator.hpp"

namespace {

using namespace dnh;

// Input sizing (README.md, "Inputs"): the paper's EU1-FTTH vantage point
// with a PoP-sized client population instead of the 1/400-scaled one.
constexpr int kClients = 4000;
constexpr int kMinutes = 60;

[[noreturn]] void usage() {
  std::fprintf(stderr, "usage: perfbench_gen --seed N --out DIR\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string seed_arg;
  std::string out;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--seed") == 0) seed_arg = argv[i + 1];
    else if (std::strcmp(argv[i], "--out") == 0) out = argv[i + 1];
    else usage();
  }
  if (seed_arg.empty() || out.empty() || argc % 2 == 0) usage();
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(seed_arg.c_str(), &end, 10);
  if (end == seed_arg.c_str() || *end != '\0') usage();

  const auto t0 = std::chrono::steady_clock::now();
  trafficgen::TraceProfile profile = trafficgen::profile_eu1_ftth();
  profile.name = "perfbench";
  profile.n_clients = kClients;
  profile.duration = util::Duration::minutes(kMinutes);
  profile.seed = seed;
  trafficgen::Simulator sim{profile};

  std::filesystem::create_directories(out);
  const std::string pcap_path = out + "/capture.pcap";
  const std::string export_path = out + "/export.v5.dnhx";
  const auto pcap = sim.write_pcap(pcap_path);
  const auto exported =
      sim.write_flow_export(export_path, flowexport::ExportFormat::kV5);
  if (!pcap || !exported) {
    std::fprintf(stderr, "perfbench_gen: cannot write inputs under %s\n",
                 out.c_str());
    return 1;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf(
      "{\"seed\": %llu, \"clients\": %d, \"minutes\": %d, \"frames\": %llu, "
      "\"tcp_flows\": %llu, \"dns_responses\": %llu, \"pcap_bytes\": %llu, "
      "\"export_records\": %llu, \"export_datagrams\": %llu, "
      "\"export_bytes\": %llu, \"generation_s\": %.3f}\n",
      seed, kClients, kMinutes, static_cast<unsigned long long>(pcap->frames),
      static_cast<unsigned long long>(pcap->tcp_flows),
      static_cast<unsigned long long>(pcap->dns_responses),
      static_cast<unsigned long long>(std::filesystem::file_size(pcap_path)),
      static_cast<unsigned long long>(exported->records),
      static_cast<unsigned long long>(exported->datagrams),
      static_cast<unsigned long long>(std::filesystem::file_size(export_path)),
      seconds);
  return 0;
}

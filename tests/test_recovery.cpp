// Crash-recovery integration tests: a child `dnhunter` is SIGKILLed
// mid-run, then resumed with `--resume`, and the flows-TSV output must be
// byte-identical to an uninterrupted single-threaded run — at several
// shard counts, and under every spill-corruption chaos mode. This is the
// end-to-end proof of the durability ordering (segment fsync before
// manifest append) that the spill unit tests check piecewise.
//
// The killed child reads its capture from a FIFO the test feeds, so it
// cannot finish before the test is ready: the test feeds part of the
// capture, polls until the state the kill needs is on disk (a sealed
// window in the manifest, a lifecycle event in the flight dump), and only
// then signals. No test depends on a wall-clock sleep landing mid-run.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "faultinject/faultinject.hpp"
#include "obs/traceio.hpp"
#include "pipeline/spill.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/simulator.hpp"

#ifndef DNHUNTER_BIN
#error "DNHUNTER_BIN must be defined by the build"
#endif

namespace dnh {
namespace {

namespace fs = std::filesystem;

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_cli(const std::string& args) {
  const std::string command =
      std::string{DNHUNTER_BIN} + " " + args + " 2>&1";
  std::FILE* pipe = popen(command.c_str(), "r");
  CommandResult result;
  if (!pipe) return result;
  std::array<char, 4096> buffer;
  std::size_t n;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0)
    result.output.append(buffer.data(), n);
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class RecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = fs::temp_directory_path() /
           ("dnh_recovery_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    pcap_ = (dir_ / "recovery.pcap").string();
    auto profile = trafficgen::profile_eu1_ftth();
    profile.name = "recovery-test";
    profile.duration = util::Duration::minutes(40);
    profile.n_clients = 40;
    trafficgen::Simulator sim{profile};
    ASSERT_TRUE(sim.write_pcap(pcap_));
    capture_ = slurp(pcap_);

    // The uninterrupted single-threaded reference everything must match.
    baseline_ = (dir_ / "baseline.tsv").string();
    ASSERT_EQ(run_cli("export " + pcap_ + " --out " + baseline_).exit_code,
              0);
    ASSERT_FALSE(slurp(baseline_).empty());
  }
  static void TearDownTestSuite() { fs::remove_all(dir_); }

  /// Runs `dnhunter export` on a FIFO fed from the test capture's bytes.
  /// The first `feed_fraction` of the capture goes in; the child processes
  /// it and blocks for more. `ready` is polled until it holds (generous
  /// deadline), then `signo` is sent. For SIGTERM the rest of the capture
  /// is fed afterwards, so the child keeps reading frames and notices the
  /// drain between them. Records a test failure and returns false when the
  /// child exits (or the deadline passes) before `ready` ever held — the
  /// test then proves nothing, so it must not pass. `status` receives the
  /// child's wait status.
  static bool run_until_then_signal(const std::vector<std::string>& args,
                                    double feed_fraction,
                                    const std::function<bool()>& ready,
                                    int signo, int& status) {
    const std::string fifo =
        (dir_ / ("feed_" + std::to_string(fifo_count_++) + ".fifo"))
            .string();
    if (::mkfifo(fifo.c_str(), 0600) != 0) {
      ADD_FAILURE() << "mkfifo " << fifo << " failed";
      return false;
    }
    std::vector<const char*> argv;
    argv.push_back(DNHUNTER_BIN);
    argv.push_back("export");
    argv.push_back(fifo.c_str());
    for (const auto& arg : args) argv.push_back(arg.c_str());
    argv.push_back(nullptr);
    // A child that dies mid-feed must surface as EPIPE, not kill the test.
    const auto old_pipe = std::signal(SIGPIPE, SIG_IGN);
    const pid_t pid = fork();
    if (pid == 0) {
      // Child: restore SIGPIPE, silence it and become dnhunter.
      std::signal(SIGPIPE, SIG_DFL);
      std::freopen("/dev/null", "w", stdout);
      std::freopen("/dev/null", "w", stderr);
      execv(DNHUNTER_BIN, const_cast<char* const*>(argv.data()));
      _exit(127);
    }

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    bool reaped = false;
    const auto child_gone = [&] {
      if (!reaped && ::waitpid(pid, &status, WNOHANG) == pid) reaped = true;
      return reaped;
    };
    const auto nap = [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    };

    // The write end opens once the child has opened the read end.
    int fd = -1;
    while (fd < 0 && !child_gone() &&
           std::chrono::steady_clock::now() < deadline) {
      fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
      if (fd < 0) nap();
    }
    std::size_t fed = 0;
    const auto feed_to = [&](std::size_t end) {
      while (fd >= 0 && fed < end && !child_gone() &&
             std::chrono::steady_clock::now() < deadline) {
        const ssize_t n = ::write(fd, capture_.data() + fed, end - fed);
        if (n > 0) {
          fed += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EAGAIN) {
          pollfd p{fd, POLLOUT, 0};
          ::poll(&p, 1, 2);
        } else {
          return;  // EPIPE: the child closed its end
        }
      }
    };
    feed_to(static_cast<std::size_t>(feed_fraction *
                                     static_cast<double>(capture_.size())));

    bool held = false;
    while (fd >= 0 && !child_gone() &&
           std::chrono::steady_clock::now() < deadline) {
      if ((held = ready())) break;
      nap();
    }
    if (held && !child_gone()) {
      ::kill(pid, signo);
      if (signo == SIGTERM) feed_to(capture_.size());
    } else {
      held = false;
      if (!child_gone()) ::kill(pid, SIGKILL);
    }
    if (fd >= 0) ::close(fd);
    if (!reaped) ::waitpid(pid, &status, 0);
    std::signal(SIGPIPE, old_pipe);
    fs::remove(fifo);
    if (!held)
      ADD_FAILURE() << "the kill condition never held while the child ran "
                       "(fed " << fed << " of " << capture_.size()
                    << " capture bytes)";
    return held;
  }

  /// The run's manifest journals at least `n` complete (every shard
  /// sealed, fsync'd) windows; n = 0 means the journal merely exists.
  static std::function<bool()> sealed_at_least(const std::string& spill,
                                               std::uint64_t n) {
    return [spill, n] {
      if (n == 0) return fs::exists(spill + "/manifest.dnhm");
      return pipeline::scan_spill_dir(spill).complete_prefix >= n;
    };
  }

  /// The run's periodic flight dump already records a window rotation.
  static std::function<bool()> dump_has_window_dispatched(
      const std::string& dump) {
    return [dump] {
      const auto threads = obs::read_binary_dump(dump);
      if (!threads) return false;
      for (const auto& thread : *threads)
        for (const auto& event : thread.events)
          if (event.kind == obs::TraceKind::kWindowDispatched) return true;
      return false;
    };
  }

  /// SIGKILLs a spilling run once `min_sealed` windows are durable (0: as
  /// soon as the run has started), then --resume at `jobs` shards and
  /// require byte-identical flows-TSV.
  void kill_and_resume(std::size_t jobs, double feed_fraction,
                       std::uint64_t min_sealed) {
    const std::string spill =
        (dir_ / ("spill_j" + std::to_string(jobs) + "_" +
                 std::to_string(min_sealed)))
            .string();
    const std::string out = spill + ".tsv";
    fs::remove_all(spill);
    int status = 0;
    ASSERT_TRUE(run_until_then_signal(
        {"--out", out, "--jobs", std::to_string(jobs), "--spill-dir", spill,
         "--window", "300"},
        feed_fraction, sealed_at_least(spill, min_sealed), SIGKILL, status));
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
    const auto resumed = run_cli(
        "export " + pcap_ + " --out " + out + " --jobs " +
        std::to_string(jobs) + " --spill-dir " + spill +
        " --resume --window 300");
    ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
    EXPECT_NE(resumed.output.find("resume:"), std::string::npos);
    EXPECT_EQ(slurp(out), slurp(baseline_))
        << "resume at --jobs " << jobs << " diverged from the baseline";
  }

  static fs::path dir_;
  static std::string pcap_;
  static std::string capture_;  ///< the capture's bytes, fed through FIFOs
  static std::string baseline_;
  static int fifo_count_;
};

fs::path RecoveryTest::dir_;
std::string RecoveryTest::pcap_;
std::string RecoveryTest::capture_;
std::string RecoveryTest::baseline_;
int RecoveryTest::fifo_count_ = 0;

TEST_F(RecoveryTest, SpilledWindowedRunMatchesBaseline) {
  // No crash at all: the spilling, windowed, sharded run must already be
  // byte-identical to the single-threaded whole-capture export.
  const std::string spill = (dir_ / "spill_clean").string();
  const std::string out = (dir_ / "clean.tsv").string();
  const auto result = run_cli("export " + pcap_ + " --out " + out +
                              " --jobs 4 --spill-dir " + spill +
                              " --window 300");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(slurp(out), slurp(baseline_));
  EXPECT_TRUE(fs::exists(spill + "/manifest.dnhm"));
}

TEST_F(RecoveryTest, KillNineThenResumeIsByteIdenticalJobs1) {
  kill_and_resume(1, 0.5, 1);
}

TEST_F(RecoveryTest, KillNineThenResumeIsByteIdenticalJobs4) {
  kill_and_resume(4, 0.5, 1);
}

TEST_F(RecoveryTest, KillNineThenResumeIsByteIdenticalJobs8) {
  kill_and_resume(8, 0.5, 1);
}

TEST_F(RecoveryTest, KillNineEarlyAndLateStillResume) {
  kill_and_resume(4, 0.02, 0);  // as soon as the run starts
  kill_and_resume(4, 0.9, 4);   // deep into the capture
}

TEST_F(RecoveryTest, GracefulDrainThenResumeIsByteIdentical) {
  // SIGTERM mid-run drains gracefully (exit 0, partial results). The
  // drain seals and delivers its truncated flush window but must NOT
  // journal it — otherwise --resume serves the truncated window from
  // spill where an uninterrupted run computes a full one.
  const std::string spill = (dir_ / "spill_drain").string();
  const std::string out = (dir_ / "drain.tsv").string();
  fs::remove_all(spill);
  int status = 0;
  ASSERT_TRUE(run_until_then_signal(
      {"--out", out, "--jobs", "4", "--spill-dir", spill, "--window", "300"},
      0.5, sealed_at_least(spill, 1), SIGTERM, status));
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "drain must exit 0";

  const auto resumed = run_cli("export " + pcap_ + " --out " + out +
                               " --jobs 4 --spill-dir " + spill +
                               " --resume --window 300");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(slurp(out), slurp(baseline_))
      << "resume after a graceful drain diverged from the baseline";
}

TEST_F(RecoveryTest, ResumeWithDifferentShardCountMatchesBaseline) {
  const std::string spill = (dir_ / "spill_reshard").string();
  const std::string out = (dir_ / "reshard.tsv").string();
  int status = 0;
  ASSERT_TRUE(run_until_then_signal(
      {"--out", out, "--jobs", "4", "--spill-dir", spill, "--window", "300"},
      0.5, sealed_at_least(spill, 1), SIGKILL, status));
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  const auto resumed = run_cli("export " + pcap_ + " --out " + out +
                               " --jobs 2 --spill-dir " + spill +
                               " --resume --window 300");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(slurp(out), slurp(baseline_));
}

TEST_F(RecoveryTest, ResumeOverCorruptedSpillDegradesWithTypedStats) {
  // Build a COMPLETE spill dir (uninterrupted run), then damage it with
  // every chaos mode and resume: output must stay byte-identical and the
  // run must report typed degradation, never crash.
  for (std::size_t i = 0; i < faultinject::kSpillFaultModeCount; ++i) {
    const auto mode = static_cast<faultinject::SpillFaultMode>(i);
    const std::string label{faultinject::spill_fault_mode_name(mode)};
    const std::string spill = (dir_ / ("spill_chaos_" + label)).string();
    const std::string out = (dir_ / ("chaos_" + label + ".tsv")).string();
    ASSERT_EQ(run_cli("export " + pcap_ + " --out " + out +
                      " --jobs 4 --spill-dir " + spill + " --window 300")
                  .exit_code,
              0);
    faultinject::SpillFaultConfig config;
    config.seed = 17 + i;
    config.mode = mode;
    const auto report = faultinject::corrupt_spill_dir(spill, config);
    ASSERT_TRUE(report.has_value()) << label;

    const auto resumed = run_cli("export " + pcap_ + " --out " + out +
                                 " --jobs 4 --spill-dir " + spill +
                                 " --resume --window 300");
    ASSERT_EQ(resumed.exit_code, 0) << label << ": " << resumed.output;
    EXPECT_NE(resumed.output.find("resume:"), std::string::npos) << label;
    EXPECT_EQ(slurp(out), slurp(baseline_)) << label;
  }
}

TEST_F(RecoveryTest, KillNineLeavesRecoverableFlightRecorderDump) {
  // The flight recorder keeps DIR/flight.dnht current while a --spill-dir
  // run is alive (synchronous first dump, then a 100ms refresh via
  // tmp+rename). After SIGKILL — no atexit, no signal handler — the last
  // completed dump must still be there and render cleanly, because the
  // rename never exposes a half-written file (docs/observability.md).
  const std::string spill = (dir_ / "spill_trace_kill").string();
  const std::string out = (dir_ / "trace_kill.tsv").string();
  fs::remove_all(spill);
  // Killed only once a refresh has written a dump carrying a window
  // rotation, so the recovered dump must hold lifecycle events, not just
  // the startup thread-starts.
  int status = 0;
  ASSERT_TRUE(run_until_then_signal(
      {"--out", out, "--jobs", "4", "--spill-dir", spill, "--window", "300"},
      0.5, dump_has_window_dispatched(spill + "/flight.dnht"), SIGKILL,
      status));
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  const std::string dump = spill + "/flight.dnht";
  ASSERT_TRUE(fs::exists(dump))
      << "flight.dnht missing after SIGKILL mid-run";
  const auto rendered = run_cli("trace-cat " + dump);
  ASSERT_EQ(rendered.exit_code, 0) << rendered.output;
  EXPECT_NE(rendered.output.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(rendered.output.find("thread_name"), std::string::npos);
  EXPECT_NE(rendered.output.find("window-dispatched"), std::string::npos)
      << "dump should carry dispatcher lifecycle events";
  // Complete frames only: a torn trailing frame would print a warning.
  EXPECT_EQ(rendered.output.find("warning:"), std::string::npos)
      << rendered.output;
}

TEST_F(RecoveryTest, ResumeWithoutSpillDirIsAUsageError) {
  EXPECT_EQ(run_cli("export " + pcap_ + " --out /dev/null --resume")
                .exit_code,
            2);
}

}  // namespace
}  // namespace dnh

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>

#include "faultinject/faultinject.hpp"
#include "pcap/pcap.hpp"
#include "pcap/pcapng.hpp"

// ---- global allocation counter ---------------------------------------------
// Counts every operator-new in the binary; the reader tests snapshot it
// around a whole-capture read to prove the per-frame path stays off the
// heap.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC pairs the replaced operator new (malloc) with the replaced delete
// (free) just fine; its heuristic only sees "free() of new-ed pointer".
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dnh::pcap {
namespace {

namespace fs = std::filesystem;

class PcapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process directory: `ctest -j` runs cases as separate processes,
    // and a shared directory would let one TearDown delete another's files.
    dir_ = fs::temp_directory_path() /
           ("dnh_pcap_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

Frame make_frame(std::int64_t us, std::initializer_list<std::uint8_t> bytes) {
  Frame f;
  f.timestamp = util::Timestamp::from_micros(us);
  f.data.assign(bytes);
  f.original_length = static_cast<std::uint32_t>(f.data.size());
  return f;
}

TEST_F(PcapTest, WriteReadRoundTrip) {
  const std::string p = path("roundtrip.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    writer->write(make_frame(1'000'123, {1, 2, 3, 4}));
    writer->write(make_frame(2'500'456, {9, 8, 7}));
  }
  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  EXPECT_EQ(reader->link_type(), kLinktypeEthernet);

  auto f1 = reader->next();
  ASSERT_TRUE(f1);
  EXPECT_EQ(f1->timestamp.micros_since_epoch(), 1'000'123);
  EXPECT_EQ(f1->data, (net::Bytes{1, 2, 3, 4}));
  EXPECT_EQ(f1->original_length, 4u);

  auto f2 = reader->next();
  ASSERT_TRUE(f2);
  EXPECT_EQ(f2->data.size(), 3u);

  EXPECT_FALSE(reader->next());
  EXPECT_TRUE(reader->error().empty()) << reader->error();
  EXPECT_EQ(reader->frames_read(), 2u);
}

TEST_F(PcapTest, EmptyFileHasNoFramesButValidHeader) {
  const std::string p = path("empty.pcap");
  { ASSERT_TRUE(Writer::create(p)); }
  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  EXPECT_FALSE(reader->next());
  EXPECT_TRUE(reader->error().empty());
}

TEST_F(PcapTest, MissingFileFailsToOpen) {
  EXPECT_FALSE(Reader::open(path("does_not_exist.pcap")));
}

TEST_F(PcapTest, GarbageMagicRejected) {
  const std::string p = path("garbage.pcap");
  std::ofstream out{p, std::ios::binary};
  out.write("not a pcap file at all, padding padding", 40);
  out.close();
  EXPECT_FALSE(Reader::open(p));
}

TEST_F(PcapTest, TruncatedGlobalHeaderRejected) {
  const std::string p = path("short.pcap");
  std::ofstream out{p, std::ios::binary};
  const char magic[] = {'\xd4', '\xc3', '\xb2', '\xa1'};
  out.write(magic, 4);
  out.close();
  EXPECT_FALSE(Reader::open(p));
}

TEST_F(PcapTest, TruncatedRecordReportsError) {
  const std::string p = path("truncrec.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    writer->write(make_frame(1, {1, 2, 3, 4, 5, 6, 7, 8}));
  }
  // Chop the last 4 bytes of the record body.
  fs::resize_file(p, fs::file_size(p) - 4);
  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  EXPECT_FALSE(reader->next());
  EXPECT_FALSE(reader->error().empty());
}

TEST_F(PcapTest, ImplausibleRecordLengthReportsError) {
  const std::string p = path("hugelen.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
  }
  std::ofstream out{p, std::ios::binary | std::ios::app};
  // Record header claiming a 100MB body.
  const std::uint32_t rec[4] = {0, 0, 100u * 1024 * 1024, 100u * 1024 * 1024};
  out.write(reinterpret_cast<const char*>(rec), sizeof rec);
  out.close();
  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  EXPECT_FALSE(reader->next());
  EXPECT_FALSE(reader->error().empty());
}

TEST_F(PcapTest, ReadsSwappedByteOrder) {
  const std::string p = path("swapped.pcap");
  std::ofstream out{p, std::ios::binary};
  // Big-endian global header written byte-by-byte (we are little-endian).
  const unsigned char gh[] = {
      0xa1, 0xb2, 0xc3, 0xd4,  // magic in file byte order != host order
      0x00, 0x02, 0x00, 0x04,  // version 2.4
      0, 0, 0, 0, 0, 0, 0, 0,  // thiszone, sigfigs
      0x00, 0x00, 0xff, 0xff,  // snaplen
      0x00, 0x00, 0x00, 0x01,  // linktype ethernet
  };
  out.write(reinterpret_cast<const char*>(gh), sizeof gh);
  const unsigned char rec[] = {
      0x00, 0x00, 0x00, 0x05,  // ts_sec = 5
      0x00, 0x00, 0x00, 0x0a,  // ts_usec = 10
      0x00, 0x00, 0x00, 0x02,  // incl_len = 2
      0x00, 0x00, 0x00, 0x02,  // orig_len = 2
      0xde, 0xad,
  };
  out.write(reinterpret_cast<const char*>(rec), sizeof rec);
  out.close();

  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  EXPECT_EQ(reader->link_type(), kLinktypeEthernet);
  auto f = reader->next();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->timestamp.micros_since_epoch(), 5'000'010);
  EXPECT_EQ(f->data, (net::Bytes{0xde, 0xad}));
}

TEST_F(PcapTest, NanosecondMagicConvertedToMicros) {
  const std::string p = path("nanos.pcap");
  std::ofstream out{p, std::ios::binary};
  const std::uint32_t gh[6] = {0xa1b23c4d, 0x00040002u, 0, 0, 65535, 1};
  // Note: version field is (major|minor<<16) little-endian = 2,4.
  std::uint32_t fixed_gh[6];
  std::memcpy(fixed_gh, gh, sizeof gh);
  fixed_gh[1] = 2 | (4u << 16);
  out.write(reinterpret_cast<const char*>(fixed_gh), sizeof fixed_gh);
  const std::uint32_t rec[4] = {7, 123'456'789, 1, 1};
  out.write(reinterpret_cast<const char*>(rec), sizeof rec);
  out.put('\x42');
  out.close();

  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  auto f = reader->next();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->timestamp.micros_since_epoch(), 7'000'000 + 123'456);
}

TEST_F(PcapTest, OriginalLengthPreservedWhenLargerThanCaptured) {
  const std::string p = path("snap.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    Frame f = make_frame(1, {1, 2, 3});
    f.original_length = 1500;
    writer->write(f);
  }
  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  auto f = reader->next();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->data.size(), 3u);
  EXPECT_EQ(f->original_length, 1500u);
}

TEST_F(PcapTest, ManyFramesStreamCleanly) {
  const std::string p = path("many.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    for (int i = 0; i < 5000; ++i)
      writer->write(make_frame(i * 100, {static_cast<std::uint8_t>(i)}));
    EXPECT_EQ(writer->frames_written(), 5000u);
  }
  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  std::uint64_t n = 0;
  while (reader->next()) ++n;
  EXPECT_EQ(n, 5000u);
  EXPECT_TRUE(reader->error().empty());
}

// ----------------------------------------------------- resync recovery

/// Reads all bytes of a file.
std::vector<std::uint8_t> slurp(const std::string& p) {
  std::ifstream in{p, std::ios::binary};
  return {std::istreambuf_iterator<char>{in},
          std::istreambuf_iterator<char>{}};
}

/// Overwrites a file with the given bytes.
void dump(const std::string& p, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out{p, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST_F(PcapTest, ResyncSkipsMidFileGarbage) {
  const std::string p = path("garbage.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    writer->write(make_frame(1'000'000, {1, 2, 3, 4}));
    writer->write(make_frame(2'000'000, {5, 6, 7, 8}));
  }
  // Splice 100 bytes of 0xff between the two records (after the 24-byte
  // global header, the 16-byte record header and the 4-byte body).
  auto bytes = slurp(p);
  ASSERT_EQ(bytes.size(), 24u + 2 * (16 + 4));
  bytes.insert(bytes.begin() + 24 + 16 + 4, 100, 0xff);
  dump(p, bytes);

  // Strict mode: the garbage terminates the stream with an error.
  {
    auto reader = Reader::open(p);
    ASSERT_TRUE(reader);
    ASSERT_TRUE(reader->next());
    EXPECT_FALSE(reader->next());
    EXPECT_FALSE(reader->error().empty());
  }
  // Resync mode: both frames recovered, damage accounted.
  auto reader = Reader::open(p, Reader::Mode::kResync);
  ASSERT_TRUE(reader);
  const auto f1 = reader->next();
  ASSERT_TRUE(f1);
  EXPECT_EQ(f1->data, (net::Bytes{1, 2, 3, 4}));
  const auto f2 = reader->next();
  ASSERT_TRUE(f2);
  EXPECT_EQ(f2->data, (net::Bytes{5, 6, 7, 8}));
  EXPECT_FALSE(reader->next());
  EXPECT_TRUE(reader->error().empty());
  EXPECT_EQ(reader->corruption().resyncs, 1u);
  EXPECT_EQ(reader->corruption().bytes_skipped, 100u);
  EXPECT_EQ(reader->corruption().truncated_tail, 0u);
}

TEST_F(PcapTest, ResyncSkipsRecordWithLyingLength) {
  const std::string p = path("lie.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    for (int i = 0; i < 3; ++i)
      writer->write(make_frame(i * 1'000'000, {0xaa, 0xbb, 0xcc}));
  }
  // Lie in the middle record's incl_len: implausibly huge.
  auto bytes = slurp(p);
  const std::size_t second_header = 24 + (16 + 3);
  const std::uint32_t lie = 0x10000000;
  std::memcpy(bytes.data() + second_header + 8, &lie, 4);
  dump(p, bytes);

  auto reader = Reader::open(p, Reader::Mode::kResync);
  ASSERT_TRUE(reader);
  std::uint64_t frames = 0;
  while (reader->next()) ++frames;
  // The lying record is unrecoverable; its neighbours survive.
  EXPECT_EQ(frames, 2u);
  EXPECT_TRUE(reader->error().empty());
  EXPECT_EQ(reader->corruption().resyncs, 1u);
  EXPECT_EQ(reader->corruption().bytes_skipped, 16u + 3u);
}

TEST_F(PcapTest, ResyncCountsTruncatedTail) {
  const std::string p = path("tail.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    writer->write(make_frame(1'000'000, {1, 2, 3, 4, 5, 6}));
    writer->write(make_frame(2'000'000, {7, 8, 9, 10, 11, 12}));
  }
  auto bytes = slurp(p);
  bytes.resize(bytes.size() - 3);  // cut into the last record body
  dump(p, bytes);

  auto reader = Reader::open(p, Reader::Mode::kResync);
  ASSERT_TRUE(reader);
  ASSERT_TRUE(reader->next());
  EXPECT_FALSE(reader->next());
  EXPECT_TRUE(reader->error().empty());  // resync mode never sets error
  EXPECT_EQ(reader->corruption().truncated_tail, 1u);
  EXPECT_EQ(reader->corruption().events(), 1u);
}

TEST_F(PcapTest, ResyncModeOnCleanFileIsInvisible) {
  const std::string p = path("clean.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    for (int i = 0; i < 100; ++i)
      writer->write(make_frame(i * 1000, {static_cast<std::uint8_t>(i)}));
  }
  auto reader = Reader::open(p, Reader::Mode::kResync);
  ASSERT_TRUE(reader);
  std::uint64_t n = 0;
  while (reader->next()) ++n;
  EXPECT_EQ(n, 100u);
  EXPECT_EQ(reader->corruption().events(), 0u);
  EXPECT_EQ(reader->corruption().bytes_skipped, 0u);
}

// ------------------------------------------- buffer-reusing next(Frame&)

/// Frame `i` of the varied capture: lengths grow and shrink (0 to 9000
/// bytes, jumbo frames included), original lengths sometimes exceed the
/// captured bytes, payload bytes depend on both frame and offset.
Frame varied_frame(std::uint32_t i) {
  static constexpr std::uint32_t kLengths[] = {60,   1514, 0,  9000, 1,
                                               400,  8999, 64, 3000, 2};
  Frame f;
  f.timestamp = util::Timestamp::from_micros(1'000'000 + i * 1'000);
  f.data.resize(kLengths[i % 10] + (i / 10) % 7);
  for (std::size_t j = 0; j < f.data.size(); ++j)
    f.data[j] = static_cast<std::uint8_t>(i * 31 + j);
  f.original_length =
      static_cast<std::uint32_t>(f.data.size()) + (i % 3 == 0 ? 100 : 0);
  return f;
}

void write_varied_capture(const std::string& p, std::uint32_t frames) {
  auto writer = Writer::create(p);
  ASSERT_TRUE(writer);
  for (std::uint32_t i = 0; i < frames; ++i) writer->write(varied_frame(i));
}

/// What a reader yields: every frame plus its end-of-stream state.
struct ReadResult {
  std::vector<Frame> frames;
  CorruptionStats corruption;
  std::string error;
};

void expect_same_frames(const std::vector<Frame>& a,
                        const std::vector<Frame>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp, b[i].timestamp) << "frame " << i;
    EXPECT_EQ(a[i].original_length, b[i].original_length) << "frame " << i;
    EXPECT_EQ(a[i].data, b[i].data) << "frame " << i;
  }
}

ReadResult read_with_optional(const std::string& p, Reader::Mode mode) {
  ReadResult out;
  auto reader = Reader::open(p, mode);
  if (!reader) return out;
  while (auto frame = reader->next()) out.frames.push_back(std::move(*frame));
  out.corruption = reader->corruption();
  out.error = reader->error();
  return out;
}

ReadResult read_reusing(const std::string& p, Reader::Mode mode) {
  ReadResult out;
  auto reader = Reader::open(p, mode);
  if (!reader) return out;
  Frame frame;  // one buffer for the whole stream
  while (reader->next(frame)) out.frames.push_back(frame);
  out.corruption = reader->corruption();
  out.error = reader->error();
  return out;
}

TEST_F(PcapTest, ReusedFrameYieldsWhatFreshFramesYield) {
  const std::string p = path("varied.pcap");
  write_varied_capture(p, 200);
  for (const auto mode : {Reader::Mode::kStrict, Reader::Mode::kResync}) {
    const ReadResult fresh = read_with_optional(p, mode);
    const ReadResult reused = read_reusing(p, mode);
    ASSERT_EQ(fresh.frames.size(), 200u);
    expect_same_frames(reused.frames, fresh.frames);
    for (std::uint32_t i = 0; i < 200; ++i) {
      const Frame want = varied_frame(i);
      EXPECT_EQ(reused.frames[i].data, want.data) << "frame " << i;
      EXPECT_EQ(reused.frames[i].original_length, want.original_length);
      EXPECT_EQ(reused.frames[i].timestamp, want.timestamp);
    }
    EXPECT_TRUE(reused.error.empty());
  }
}

/// FNV-1a over every frame's timestamp, lengths and bytes.
std::uint64_t digest(const std::vector<Frame>& frames) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& f : frames) {
    mix(static_cast<std::uint64_t>(f.timestamp.micros_since_epoch()));
    mix(f.original_length);
    mix(f.data.size());
    for (const auto b : f.data) mix(b);
  }
  return h;
}

// Resync over every file-corruption mode of the fault injector, alone and
// combined. The expected frame counts, digests and CorruptionStats were
// produced by the reader before it reused buffers (a fresh Frame and an
// ftell per record), so the buffer-reusing reader must reproduce the
// exact frames and damage accounting of the original.
TEST_F(PcapTest, ResyncOverEveryFileFaultMatchesTheOriginalReader) {
  struct Case {
    const char* name;
    faultinject::FileFaultConfig config;
    std::size_t frames;
    std::uint64_t digest;
    CorruptionStats stats;
  };
  const auto config = [](std::uint64_t seed, double garbage, double lies,
                         bool tail) {
    faultinject::FileFaultConfig c;
    c.seed = seed;
    c.garbage_run_rate = garbage;
    c.length_lie_rate = lies;
    c.truncate_tail = tail;
    return c;
  };
  const Case cases[] = {
      {"garbage-runs", config(7, 0.02, 0, false), 2000,
       0x321ad8d2c1d118d6ULL, {41, 43509, 0}},
      {"length-lies", config(8, 0, 0.02, false), 1967,
       0xa5ea8231b96214f9ULL, {32, 68922, 0}},
      {"truncated-tail", config(9, 0, 0, true), 1999,
       0xded65912ea997874ULL, {0, 19, 1}},
      {"all-faults", config(10, 0.02, 0.02, true), 1962,
       0xc8dc9f7dd64d6558ULL, {70, 102325, 1}},
  };
  const std::string clean = path("varied_src.pcap");
  write_varied_capture(clean, 2000);
  for (const Case& c : cases) {
    const std::string damaged = path(std::string{c.name} + ".pcap");
    const auto report =
        faultinject::corrupt_pcap_file(clean, damaged, c.config);
    ASSERT_TRUE(report.has_value()) << c.name;
    ASSERT_GT(report->faults(), 0u) << c.name;
    const ReadResult reused = read_reusing(damaged, Reader::Mode::kResync);
    const ReadResult fresh = read_with_optional(damaged, Reader::Mode::kResync);
    expect_same_frames(reused.frames, fresh.frames);
    EXPECT_EQ(reused.frames.size(), c.frames) << c.name;
    EXPECT_EQ(digest(reused.frames), c.digest) << c.name;
    EXPECT_EQ(reused.corruption.resyncs, c.stats.resyncs) << c.name;
    EXPECT_EQ(reused.corruption.bytes_skipped, c.stats.bytes_skipped)
        << c.name;
    EXPECT_EQ(reused.corruption.truncated_tail, c.stats.truncated_tail)
        << c.name;
    EXPECT_TRUE(reused.error.empty()) << c.name;

    // read_any_capture (one Frame for the whole loop) agrees as well.
    CaptureReadOptions options;
    options.resync = true;
    CaptureReadReport report_any;
    std::vector<Frame> via_any;
    ASSERT_TRUE(read_any_capture(
        damaged, [&](const Frame& f) { via_any.push_back(f); }, options,
        report_any));
    expect_same_frames(via_any, reused.frames);
    EXPECT_EQ(report_any.corruption.events(), reused.corruption.events());
    EXPECT_EQ(report_any.corruption.bytes_skipped,
              reused.corruption.bytes_skipped);
  }
}

/// Heap allocations made by one read_any_capture pass over `p`.
std::uint64_t allocations_reading(const std::string& p) {
  std::uint64_t frames = 0;
  const std::function<void(const Frame&)> sink = [&frames](const Frame&) {
    ++frames;
  };
  CaptureReadOptions options;
  CaptureReadReport report;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const bool ok = read_any_capture(p, sink, options, report);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(ok) << report.error;
  EXPECT_EQ(frames, report.frames);
  return after - before;
}

TEST_F(PcapTest, ReadAnyCaptureAllocatesOncePerCaptureNotPerFrame) {
  const std::string small = path("alloc_small.pcap");
  const std::string large = path("alloc_large.pcap");
  write_varied_capture(small, 100);
  write_varied_capture(large, 10'000);
  allocations_reading(small);  // first use registers the read metrics
  const std::uint64_t a_small = allocations_reading(small);
  const std::uint64_t a_large = allocations_reading(large);
  // Same largest frame in both files: the buffer grows to it within the
  // first ten records, so 100x the frames costs no extra allocation.
  EXPECT_EQ(a_large, a_small) << a_small << " allocations for 100 frames, "
                              << a_large << " for 10000";
  EXPECT_LT(a_small, 64u);
}

}  // namespace
}  // namespace dnh::pcap

namespace dnh::pcap {
namespace {

/// Writes a minimal pcapng file: SHB + IDB (+ optional if_tsresol) + one
/// EPB per payload.
class PcapngBuilder {
 public:
  explicit PcapngBuilder(bool nanos = false) {
    // SHB: type, len=28, magic, version 1.0, section length -1, len.
    u32(0x0a0d0d0a); u32(28); u32(0x1a2b3c4d);
    u16(1); u16(0);
    u32(0xffffffff); u32(0xffffffff);
    u32(28);
    // IDB: linktype ethernet, snaplen, optional tsresol option.
    if (nanos) {
      // option if_tsresol(9) len 1 value 9 (10^-9), padded; endofopt.
      u32(1); u32(20 + 8 + 4); u16(1); u16(0); u32(65535);
      u16(9); u16(1); bytes_.push_back(9);
      bytes_.push_back(0); bytes_.push_back(0); bytes_.push_back(0);
      u16(0); u16(0);
      u32(20 + 8 + 4);
    } else {
      u32(1); u32(20); u16(1); u16(0); u32(65535); u32(20);
    }
  }

  void add_packet(std::uint64_t ts_ticks,
                  std::initializer_list<std::uint8_t> payload) {
    const std::uint32_t captured = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t padded = (captured + 3u) & ~3u;
    const std::uint32_t total = 32 + padded;
    u32(6); u32(total);
    u32(0);  // interface
    u32(static_cast<std::uint32_t>(ts_ticks >> 32));
    u32(static_cast<std::uint32_t>(ts_ticks));
    u32(captured); u32(captured);
    bytes_.insert(bytes_.end(), payload);
    for (std::uint32_t i = captured; i < padded; ++i) bytes_.push_back(0);
    u32(total);
  }

  std::string write(const std::filesystem::path& dir,
                    const std::string& name) const {
    const std::string path = (dir / name).string();
    std::ofstream out{path, std::ios::binary};
    out.write(reinterpret_cast<const char*>(bytes_.data()),
              static_cast<std::streamsize>(bytes_.size()));
    return path;
  }

 private:
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u16(std::uint16_t v) {
    bytes_.push_back(static_cast<std::uint8_t>(v));
    bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  std::vector<std::uint8_t> bytes_;
};

class PcapngTest : public PcapTest {};

TEST_F(PcapngTest, ReadsEnhancedPacketBlocks) {
  PcapngBuilder builder;
  builder.add_packet(5'000'123, {1, 2, 3, 4, 5});
  builder.add_packet(6'000'000, {9, 9});
  const auto path = builder.write(dir_, "basic.pcapng");

  auto reader = NgReader::open(path);
  ASSERT_TRUE(reader);
  EXPECT_EQ(reader->link_type(), kLinktypeEthernet);
  auto f1 = reader->next();
  ASSERT_TRUE(f1);
  EXPECT_EQ(f1->timestamp.micros_since_epoch(), 5'000'123);
  EXPECT_EQ(f1->data.size(), 5u);
  auto f2 = reader->next();
  ASSERT_TRUE(f2);
  EXPECT_EQ(f2->data, (net::Bytes{9, 9}));
  EXPECT_FALSE(reader->next());
  EXPECT_TRUE(reader->error().empty()) << reader->error();
}

TEST_F(PcapngTest, HonoursNanosecondResolution) {
  PcapngBuilder builder{/*nanos=*/true};
  builder.add_packet(1'500'000'000ull, {1});  // 1.5s in ns ticks
  const auto path = builder.write(dir_, "nanos.pcapng");
  auto reader = NgReader::open(path);
  ASSERT_TRUE(reader);
  auto frame = reader->next();
  ASSERT_TRUE(frame);
  EXPECT_EQ(frame->timestamp.micros_since_epoch(), 1'500'000);
}

TEST_F(PcapngTest, RejectsClassicPcapMagic) {
  const std::string p = path("classic.pcap");
  { ASSERT_TRUE(Writer::create(p)); }
  EXPECT_FALSE(NgReader::open(p));
}

TEST_F(PcapngTest, RejectsGarbage) {
  const std::string p = path("garbage.pcapng");
  std::ofstream out{p, std::ios::binary};
  out.write("garbage garbage garbage garbage!", 32);
  out.close();
  EXPECT_FALSE(NgReader::open(p));
}

TEST_F(PcapngTest, TruncatedBlockReportsError) {
  PcapngBuilder builder;
  builder.add_packet(1, {1, 2, 3, 4});
  const auto p = builder.write(dir_, "trunc.pcapng");
  std::filesystem::resize_file(p, std::filesystem::file_size(p) - 6);
  auto reader = NgReader::open(p);
  ASSERT_TRUE(reader);
  EXPECT_FALSE(reader->next());
  EXPECT_FALSE(reader->error().empty());
}

TEST_F(PcapngTest, SkipsUnknownBlocks) {
  PcapngBuilder builder;
  builder.add_packet(1, {0xaa});
  auto p = builder.write(dir_, "unknown.pcapng");
  // Append an unknown block (type 0x0BAD) then another valid-looking EPB
  // is unnecessary; just ensure the packet before it is still delivered
  // and the unknown trailing block is skipped cleanly at EOF.
  std::ofstream out{p, std::ios::binary | std::ios::app};
  const std::uint32_t blk[4] = {0x0BAD, 16, 0xdeadbeef, 16};
  out.write(reinterpret_cast<const char*>(blk), sizeof blk);
  out.close();
  auto reader = NgReader::open(p);
  ASSERT_TRUE(reader);
  EXPECT_TRUE(reader->next());
  EXPECT_FALSE(reader->next());
  EXPECT_TRUE(reader->error().empty()) << reader->error();
}

TEST_F(PcapngTest, ReadAnyCaptureDispatches) {
  // Classic file through the unified entry point.
  const std::string classic = path("any.pcap");
  {
    auto writer = Writer::create(classic);
    Frame f;
    f.timestamp = util::Timestamp::from_seconds(1);
    f.data = {1, 2, 3};
    f.original_length = 3;
    writer->write(f);
  }
  int classic_frames = 0;
  std::string error;
  EXPECT_TRUE(read_any_capture(classic,
                               [&](const Frame&) { ++classic_frames; },
                               error));
  EXPECT_EQ(classic_frames, 1);

  PcapngBuilder builder;
  builder.add_packet(1, {1});
  builder.add_packet(2, {2});
  const auto ng = builder.write(dir_, "any.pcapng");
  int ng_frames = 0;
  EXPECT_TRUE(read_any_capture(ng, [&](const Frame&) { ++ng_frames; },
                               error));
  EXPECT_EQ(ng_frames, 2);

  EXPECT_FALSE(read_any_capture(path("missing.pcapng"),
                                [](const Frame&) {}, error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace dnh::pcap

#include "util/rng.hpp"

namespace dnh::pcap {
namespace {

TEST_F(PcapngTest, FuzzMutatedFilesDoNotCrash) {
  PcapngBuilder builder;
  for (int i = 0; i < 5; ++i)
    builder.add_packet(i * 1000, {1, 2, 3, 4, 5, 6, 7, 8});
  const auto base_path = builder.write(dir_, "fuzz_base.pcapng");
  std::ifstream in{base_path, std::ios::binary};
  std::vector<char> base{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};

  util::Rng rng{2024};
  for (int iter = 0; iter < 300; ++iter) {
    auto mutated = base;
    const int flips = 1 + static_cast<int>(rng.uniform(0, 8));
    for (int i = 0; i < flips; ++i)
      mutated[rng.index(mutated.size())] =
          static_cast<char>(rng.next_u64());
    const std::string p = path("fuzz_mut.pcapng");
    {
      std::ofstream out{p, std::ios::binary};
      out.write(mutated.data(),
                static_cast<std::streamsize>(mutated.size()));
    }
    auto reader = NgReader::open(p);
    if (!reader) continue;
    // Reading to the end must terminate (no hang, no crash).
    int frames = 0;
    while (reader->next() && frames < 1000) ++frames;
  }
}

TEST_F(PcapngTest, FuzzRandomFilesDoNotCrash) {
  util::Rng rng{4048};
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<char> junk(rng.uniform(0, 512));
    for (auto& b : junk) b = static_cast<char>(rng.next_u64());
    const std::string p = path("fuzz_junk.pcapng");
    {
      std::ofstream out{p, std::ios::binary};
      out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
    }
    auto reader = NgReader::open(p);
    if (reader) {
      int frames = 0;
      while (reader->next() && frames < 1000) ++frames;
    }
  }
}

}  // namespace
}  // namespace dnh::pcap

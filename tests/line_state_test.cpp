// Table-driven semantics of pmem::Device's per-cacheline state (DESIGN.md
// §6/§7) on a device with both the crash shadow and the persistency checker
// attached: for each store/flush/fence sequence, the bytes a crash leaves on
// media, the number of unpersisted lines just before the crash, and the
// kinds of the checker's findings.  Plain and torn crashes, a persist onto
// sticky-bad media, a zero-length unaligned persist and a checker attached
// after unfenced traffic each get a row.
#include <pmemcpy/check/persist_checker.hpp>
#include <pmemcpy/pmem/device.hpp>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace {

using pmemcpy::check::Violation;
using pmemcpy::check::violation_name;
using pmemcpy::pmem::Device;
using pmemcpy::pmem::DeviceError;
using pmemcpy::pmem::FaultPlan;
using pmemcpy::pmem::kCacheLine;

constexpr std::size_t kDev = 1 << 16;
constexpr std::size_t kLines = 16;  // torn rows replay a sequence per line
constexpr std::uint64_t kTornSeed = 0x1234ABCDull;

/// One step of a sequence.  Offsets are relative to the line under test;
/// values are 8-byte words stored at the start of the line.
struct Op {
  enum Kind { kStore, kFlush, kPersist, kFence, kAttach } kind;
  std::uint64_t value = 0;   // kStore
  std::size_t off = 0;       // kFlush/kPersist: byte offset within the line
  std::size_t len = 8;       // kFlush/kPersist
};

Op store(std::uint64_t v) { return {Op::kStore, v}; }
Op flush() { return {Op::kFlush}; }
Op persist(std::size_t off = 0, std::size_t len = 8) {
  return {Op::kPersist, 0, off, len};
}
Op fence() { return {Op::kFence}; }
Op attach() { return {Op::kAttach}; }

struct Row {
  std::string name;
  std::vector<Op> ops;
  std::uint64_t survives;       ///< word on media after a crash that keeps
                                ///< (torn: does not revert) the line
  std::uint64_t reverts_to;     ///< word after a crash that reverts it
  std::size_t unpersisted;      ///< unpersisted_lines() per line, pre-crash
  std::vector<Violation> findings;  ///< per line, in report order
};

void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

std::vector<std::string> names(const std::vector<Violation>& kinds) {
  std::vector<std::string> out;
  for (Violation v : kinds) out.emplace_back(violation_name(v));
  return out;
}

std::vector<std::string> kinds(const pmemcpy::check::Report& rep) {
  std::vector<std::string> out;
  for (const auto& f : rep.findings) out.emplace_back(violation_name(f.kind));
  return out;
}

std::uint64_t word_at(const Device& dev, std::size_t off) {
  std::uint64_t v = 0;
  dev.read(off, &v, sizeof(v));
  return v;
}

/// Replays @p ops step by step on lines [0, @p lines), which start at 0 on
/// media.  Fences and attaches are device-wide and run once per step.
void replay(Device& dev, std::size_t lines, const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    if (op.kind == Op::kFence) dev.drain();
    if (op.kind == Op::kAttach) dev.enable_checker();
    for (std::size_t l = 0; l < lines; ++l) {
      const std::size_t base = l * kCacheLine;
      if (op.kind == Op::kStore) dev.write(base, &op.value, sizeof(op.value));
      if (op.kind == Op::kFlush) dev.flush(base + op.off, op.len);
      if (op.kind == Op::kPersist) dev.persist(base + op.off, op.len);
    }
  }
}

/// A crash-shadow device whose checker is attached now, or later by the
/// sequence when it has an attach step.  The PMEMCPY_PERSIST_CHECK env var
/// wins over the compiled default, so "0" keeps the checker off until then
/// in every build.
std::unique_ptr<Device> make_device(const std::vector<Op>& ops) {
  const char* env = std::getenv("PMEMCPY_PERSIST_CHECK");
  const std::string saved = env != nullptr ? env : "";
  ::setenv("PMEMCPY_PERSIST_CHECK", "0", 1);
  auto dev = std::make_unique<Device>(kDev, /*crash_shadow=*/true);
  if (env != nullptr) {
    ::setenv("PMEMCPY_PERSIST_CHECK", saved.c_str(), 1);
  } else {
    ::unsetenv("PMEMCPY_PERSIST_CHECK");
  }
  bool attach_later = false;
  for (const Op& op : ops) attach_later |= op.kind == Op::kAttach;
  if (!attach_later) dev->enable_checker();
  return dev;
}

const std::vector<Row>& rows() {
  static const std::vector<Row> r = {
      {"store_flush_fence_crash", {store(1), flush(), fence()}, 1, 1, 0, {}},
      {"store_flush_crash", {store(1), flush()}, 1, 0, 1, {}},
      // The fence makes the flush-time image durable, not the later store:
      // a crash reverts the line to 1, the value it held at the flush.
      {"store_flush_store_fence_crash",
       {store(1), flush(), store(2), fence()},
       2, 1, 1, {Violation::kStoreAfterFlush}},
      {"store_persist_store_crash", {store(1), persist(), store(2)}, 2, 1, 1,
       {}},
      // A zero-length persist at an unaligned offset charges, counts and
      // makes durable the line holding the offset; the checker sees that
      // same line flushed and fenced.
      {"store_zero_length_unaligned_persist_crash",
       {store(1), persist(1, 0)}, 1, 1, 0, {}},
      // The checker's view starts at attach: a line flushed but not fenced
      // before it looks clean to it, so a store after attach is no
      // store-after-flush finding, exactly as when it tracked lines alone.
      {"attach_after_unfenced_traffic",
       {store(1), flush(), store(2), attach(), store(3), persist()},
       3, 3, 0, {}},
  };
  return r;
}

class DeviceLineState : public ::testing::TestWithParam<Row> {};

TEST_P(DeviceLineState, PlainCrash) {
  const Row& row = GetParam();
  const auto owned = make_device(row.ops);
  Device& dev = *owned;
  replay(dev, 1, row.ops);
  EXPECT_EQ(dev.unpersisted_lines(), row.unpersisted);
  EXPECT_EQ(kinds(dev.take_checker_report()), names(row.findings));
  dev.simulate_crash();
  EXPECT_EQ(word_at(dev, 0), row.reverts_to);
  EXPECT_EQ(dev.unpersisted_lines(), 0u);
  EXPECT_TRUE(dev.take_checker_report().ok());
}

/// Lines a torn crash reverts under kTornSeed, probed on a fresh device by
/// storing to every line and crashing with nothing persisted.
std::vector<bool> torn_subset() {
  Device probe(kDev, /*crash_shadow=*/true);
  FaultPlan plan;
  plan.torn_writes = true;
  plan.torn_seed = kTornSeed;
  probe.set_fault_plan(plan);
  const std::uint64_t one = 1;
  for (std::size_t l = 0; l < kLines; ++l) {
    probe.write(l * kCacheLine, &one, sizeof(one));
  }
  probe.simulate_crash();
  std::vector<bool> reverts(kLines);
  for (std::size_t l = 0; l < kLines; ++l) {
    reverts[l] = word_at(probe, l * kCacheLine) == 0;
  }
  return reverts;
}

TEST_P(DeviceLineState, TornCrash) {
  const Row& row = GetParam();
  const std::vector<bool> reverts = torn_subset();
  std::size_t reverted = 0;
  for (bool r : reverts) reverted += r ? 1 : 0;
  ASSERT_GT(reverted, 0u);
  ASSERT_LT(reverted, kLines);  // the seed splits the lines both ways

  const auto owned = make_device(row.ops);
  Device& dev = *owned;
  FaultPlan plan;
  plan.torn_writes = true;
  plan.torn_seed = kTornSeed;
  dev.set_fault_plan(plan);
  replay(dev, kLines, row.ops);
  EXPECT_EQ(dev.unpersisted_lines(), row.unpersisted * kLines);
  std::vector<Violation> want;  // each step's findings, once per line
  for (Violation v : row.findings) want.insert(want.end(), kLines, v);
  EXPECT_EQ(kinds(dev.take_checker_report()), names(want));
  dev.simulate_crash();
  for (std::size_t l = 0; l < kLines; ++l) {
    EXPECT_EQ(word_at(dev, l * kCacheLine),
              reverts[l] ? row.reverts_to : row.survives)
        << "line " << l;
  }
  EXPECT_EQ(dev.unpersisted_lines(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sequences, DeviceLineState, ::testing::ValuesIn(rows()),
    [](const ::testing::TestParamInfo<Row>& info) { return info.param.name; });

// A persist onto sticky-bad media fails for good: the writeback never
// reached media, so the line's bytes revert to their last durable image and
// the line is clean again, for the crash shadow and the checker alike.  A
// later publish of the line by the same thread is therefore not flagged.
TEST(DeviceLineStateFault, StickyPersistRevertsBytesAndLineState) {
  Device dev(kDev, /*crash_shadow=*/true);
  dev.enable_checker();
  const std::uint64_t durable = 5, lost = 6;
  dev.write(128, &durable, sizeof(durable));
  dev.persist(128, sizeof(durable));
  dev.write(128, &lost, sizeof(lost));
  dev.inject_sticky_range(128, kCacheLine);
  try {
    dev.persist(128, sizeof(lost));
    FAIL() << "persist onto sticky media succeeded";
  } catch (const DeviceError& e) {
    EXPECT_EQ(e.kind, DeviceError::Kind::kMediaWrite);
  }
  EXPECT_EQ(word_at(dev, 128), durable);
  EXPECT_EQ(dev.unpersisted_lines(), 0u);
  dev.check_publish(128, sizeof(lost));
  EXPECT_EQ(kinds(dev.take_checker_report()), std::vector<std::string>{});
  dev.simulate_crash();
  EXPECT_EQ(word_at(dev, 128), durable);
}

}  // namespace

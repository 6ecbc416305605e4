// Tests for the emulated PMEM device: data integrity, cost charging,
// MAP_SYNC accounting, crash semantics.
#include <pmemcpy/check/persist_checker.hpp>
#include <pmemcpy/pmem/device.hpp>
#include <pmemcpy/trace/trace.hpp>

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

namespace {

using pmemcpy::pmem::Device;
using pmemcpy::sim::Charge;
using pmemcpy::sim::Context;
using pmemcpy::sim::ScopedContext;

TEST(DeviceTest, WriteReadRoundtrip) {
  Device dev(1 << 20);
  std::vector<std::uint8_t> in(10000);
  std::iota(in.begin(), in.end(), 0);
  dev.write(4096, in.data(), in.size());
  std::vector<std::uint8_t> out(in.size());
  dev.read(4096, out.data(), out.size());
  EXPECT_EQ(in, out);
}

TEST(DeviceTest, CapacityRoundedToPage) {
  Device dev(5000);
  EXPECT_EQ(dev.capacity(), 8192u);
}

TEST(DeviceTest, OutOfRangeThrows) {
  Device dev(4096);
  std::byte b{};
  EXPECT_THROW(dev.write(4096, &b, 1), std::out_of_range);
  EXPECT_THROW(dev.read(0, &b, 4097), std::out_of_range);
  EXPECT_THROW(dev.write(static_cast<std::size_t>(-1), &b, 2),
               std::out_of_range);
}

TEST(DeviceTest, FillSetsBytes) {
  Device dev(1 << 16);
  dev.fill(100, 50, std::byte{0x7F});
  std::vector<std::uint8_t> out(50);
  dev.read(100, out.data(), 50);
  for (auto v : out) EXPECT_EQ(v, 0x7F);
}

TEST(DeviceTest, WriteChargesLatencyPlusBandwidth) {
  Device dev(1 << 20);
  Context c;  // nranks=1
  ScopedContext sc(c);
  const std::size_t bytes = 1 << 16;
  std::vector<std::byte> buf(bytes);
  const double before = c.now();
  dev.write(0, buf.data(), bytes);
  const auto& pm = c.model().pmem;
  const double expect =
      pm.write_latency + static_cast<double>(bytes) / pm.write_stream_bw;
  EXPECT_NEAR(c.now() - before, expect, 1e-12);
  EXPECT_DOUBLE_EQ(c.charged(Charge::kPmemWrite), c.now() - before);
}

TEST(DeviceTest, ReadIsFasterThanWritePerByte) {
  Device dev(1 << 20);
  Context c;
  ScopedContext sc(c);
  std::vector<std::byte> buf(1 << 18);
  dev.write(0, buf.data(), buf.size());
  const double w = c.charged(Charge::kPmemWrite);
  dev.read(0, buf.data(), buf.size());
  const double r = c.charged(Charge::kPmemRead);
  EXPECT_LT(r, w);  // 30 GB/s read vs 8 GB/s write device
}

TEST(DeviceTest, BandwidthSharedAcrossRanks) {
  Device dev(1 << 20);
  std::vector<std::byte> buf(1 << 18);
  double t1, t24;
  {
    Context c(pmemcpy::sim::default_model(), 1, 0);
    ScopedContext sc(c);
    dev.write(0, buf.data(), buf.size());
    t1 = c.charged(Charge::kPmemWrite);
  }
  {
    Context c(pmemcpy::sim::default_model(), 24, 0);
    ScopedContext sc(c);
    dev.write(0, buf.data(), buf.size());
    t24 = c.charged(Charge::kPmemWrite);
  }
  EXPECT_GT(t24, t1);  // fair share of 8 GB/s is smaller at 24 ranks
}

TEST(DeviceTest, DaxWriteChargesFaultsOncePerPage) {
  Device dev(1 << 20);
  Context c;
  ScopedContext sc(c);
  dev.charge_dax_write(0, 4096 * 4, false);
  const double first = c.charged(Charge::kPageFault);
  EXPECT_NEAR(first, 4 * c.model().cpu.minor_fault_cost, 1e-12);
  dev.charge_dax_write(0, 4096 * 4, false);  // same pages: no new faults
  EXPECT_DOUBLE_EQ(c.charged(Charge::kPageFault), first);
  dev.reset_page_touches();
  dev.charge_dax_write(0, 4096, false);
  EXPECT_GT(c.charged(Charge::kPageFault), first);
}

TEST(DeviceTest, MapSyncFaultsCostMore) {
  Device dev(1 << 20);
  const auto& m = pmemcpy::sim::default_model();
  double plain, synced;
  {
    Context c(m);
    ScopedContext sc(c);
    dev.charge_dax_write(0, 4096 * 16, false);
    plain = c.charged(Charge::kPageFault);
  }
  dev.reset_page_touches();
  {
    Context c(m);
    ScopedContext sc(c);
    dev.charge_dax_write(0, 4096 * 16, true);
    synced = c.charged(Charge::kPageFault);
  }
  EXPECT_GT(synced, plain);
}

TEST(DeviceTest, MapSyncDeratesWriteBandwidth) {
  Device dev(1 << 20);
  const auto& m = pmemcpy::sim::default_model();
  double plain, synced;
  {
    Context c(m);
    ScopedContext sc(c);
    dev.charge_dax_write(0, 1 << 18, false);
    plain = c.charged(Charge::kPmemWrite);
  }
  {
    Context c(m);
    ScopedContext sc(c);
    dev.charge_dax_write(0, 1 << 18, true);
    synced = c.charged(Charge::kPmemWrite);
  }
  EXPECT_GT(synced, plain);
}

TEST(DeviceTest, MapSyncDeratesReadBandwidth) {
  Device dev(1 << 20);
  const auto& m = pmemcpy::sim::default_model();
  double plain, synced;
  {
    Context c(m);
    ScopedContext sc(c);
    dev.charge_dax_read(1 << 18, false);
    plain = c.charged(Charge::kPmemRead);
  }
  {
    Context c(m);
    ScopedContext sc(c);
    dev.charge_dax_read(1 << 18, true);
    synced = c.charged(Charge::kPmemRead);
  }
  EXPECT_GT(synced, plain);
}

TEST(DeviceTest, StatsCountBytes) {
  // The trace registry is the one byte counter: every counting path of the
  // device (checked and DAX, both directions) must land in it exactly.
  namespace trace = pmemcpy::trace;
  const bool was_enabled = trace::enabled();
  trace::set_enabled(true);
  const auto written = [] {
    return trace::counter(trace::Counter::kBytesWritten);
  };
  const auto read = [] { return trace::counter(trace::Counter::kBytesRead); };
  Device dev(1 << 20);
  std::vector<std::byte> buf(1000);
  const auto w0 = written(), r0 = read();
  dev.write(0, buf.data(), 1000);
  EXPECT_EQ(written() - w0, 1000u);
  dev.fill(4096, 300, std::byte{0xAB});
  EXPECT_EQ(written() - w0, 1300u);
  dev.charge_dax_write(8192, 70, false);
  EXPECT_EQ(written() - w0, 1370u);
  EXPECT_EQ(read() - r0, 0u);
  dev.read(0, buf.data(), 500);
  EXPECT_EQ(read() - r0, 500u);
  dev.charge_dax_read(40, true);
  EXPECT_EQ(read() - r0, 540u);
  EXPECT_EQ(written() - w0, 1370u);
  trace::set_enabled(was_enabled);
}

TEST(DeviceCrashTest, PersistedDataSurvives) {
  Device dev(1 << 20, true);
  const std::uint64_t v = 42;
  dev.write(128, &v, 8);
  dev.persist(128, 8);
  dev.simulate_crash();
  std::uint64_t out = 0;
  dev.read(128, &out, 8);
  EXPECT_EQ(out, 42u);
}

TEST(DeviceCrashTest, PartialPersistRevertsOnlyUnpersisted) {
  Device dev(1 << 20, true);
  const std::uint64_t a = 1, b = 2;
  dev.write(0, &a, 8);
  dev.write(256, &b, 8);
  dev.persist(0, 8);  // only the first line
  dev.simulate_crash();
  std::uint64_t out = 0;
  dev.read(0, &out, 8);
  EXPECT_EQ(out, 1u);
  // The unpersisted line reverted to its pre-image (whatever it was, it is
  // no longer the value written).
  EXPECT_EQ(dev.unpersisted_lines(), 0u);
}

TEST(DeviceCrashTest, CrashWithoutShadowModeThrows) {
  Device dev(1 << 20, false);
  EXPECT_THROW(dev.simulate_crash(), std::logic_error);
}

TEST(DeviceCrashTest, NoteWritePreImagesDaxStores) {
  Device dev(1 << 20, true);
  const std::uint64_t v1 = 7;
  dev.write(0, &v1, 8);
  dev.persist(0, 8);
  // DAX-style store through raw() with note_write.
  dev.note_write(0, 8);
  const std::uint64_t v2 = 8;
  std::memcpy(dev.raw(0), &v2, 8);
  dev.simulate_crash();
  std::uint64_t out = 0;
  dev.read(0, &out, 8);
  EXPECT_EQ(out, 7u);
}

using pmemcpy::pmem::CrashError;
using pmemcpy::pmem::DeviceError;
using pmemcpy::pmem::FaultPlan;

TEST(FaultPlanTest, PersistOpsCountsPersistAndDrain) {
  Device dev(1 << 20);
  dev.enable_checker();
  EXPECT_EQ(dev.persist_ops(), 0u);
  const std::uint32_t v = 1;
  dev.write(0, &v, 4);
  dev.persist(0, 4);
  EXPECT_EQ(dev.persist_ops(), 1u);
  dev.drain();  // nothing flushed since the persist: orders nothing
  EXPECT_EQ(dev.persist_ops(), 2u);
  dev.persist(0, 4);  // line already durable: redundant flush
  EXPECT_EQ(dev.persist_ops(), 3u);
  // Both inefficiencies above are deliberate; the checker must call them out.
  const auto rep = dev.take_checker_report();
  EXPECT_EQ(rep.count(pmemcpy::check::Violation::kEmptyFence), 1u)
      << rep.to_string();
  EXPECT_EQ(rep.count(pmemcpy::check::Violation::kCleanFlush), 1u)
      << rep.to_string();
  EXPECT_EQ(rep.correctness_violations, 0u) << rep.to_string();
}

TEST(FaultPlanTest, CrashFiresAtScheduledOpAndFreezesDevice) {
  Device dev(1 << 20, true);
  FaultPlan plan;
  plan.crash_at_persist = 3;
  dev.set_fault_plan(plan);

  std::uint64_t v = 1;
  dev.write(0, &v, 8);
  dev.persist(0, 8);  // op 1: completes
  v = 2;
  dev.write(64, &v, 8);
  dev.persist(64, 8);  // op 2: completes
  v = 3;
  dev.write(128, &v, 8);
  try {
    dev.persist(128, 8);  // op 3: scheduled crash, never completes
    FAIL() << "expected CrashError";
  } catch (const CrashError& e) {
    EXPECT_EQ(e.persist_op, 3u);
  }
  EXPECT_TRUE(dev.frozen());
  EXPECT_EQ(dev.persist_ops(), 3u);

  // Completed persists survive; the op-3 line reverted to its pre-image.
  std::uint64_t out = 0;
  dev.read(0, &out, 8);
  EXPECT_EQ(out, 1u);
  dev.read(64, &out, 8);
  EXPECT_EQ(out, 2u);
  dev.read(128, &out, 8);
  EXPECT_EQ(out, 0u);

  // Frozen like powered-off hardware: stores and persists are ignored and
  // the op counter stops.
  v = 9;
  dev.write(0, &v, 8);
  dev.persist(0, 8);
  EXPECT_EQ(dev.persist_ops(), 3u);
  dev.read(0, &out, 8);
  EXPECT_EQ(out, 1u);

  // Power back on: normal operation resumes.
  dev.revive();
  EXPECT_FALSE(dev.frozen());
  dev.write(0, &v, 8);
  dev.persist(0, 8);
  dev.read(0, &out, 8);
  EXPECT_EQ(out, 9u);
}

TEST(FaultPlanTest, SchedulingACrashRequiresShadowMode) {
  Device dev(1 << 20, false);
  FaultPlan plan;
  plan.crash_at_persist = 1;
  EXPECT_THROW(dev.set_fault_plan(plan), std::logic_error);
}

TEST(FaultPlanTest, TornCrashRevertsDeterministicSubset) {
  constexpr int kLines = 64;
  const auto run = [](std::uint64_t seed) {
    Device dev(1 << 20, true);
    FaultPlan plan;
    plan.crash_at_persist = 1;
    plan.torn_writes = true;
    plan.torn_seed = seed;
    dev.set_fault_plan(plan);
    std::vector<std::byte> ones(64, std::byte{0xFF});
    for (int i = 0; i < kLines; ++i) {
      dev.write(static_cast<std::size_t>(i) * 64, ones.data(), ones.size());
    }
    EXPECT_THROW(dev.persist(0, kLines * 64), CrashError);
    std::vector<int> survivors;
    for (int i = 0; i < kLines; ++i) {
      std::byte b{};
      dev.read(static_cast<std::size_t>(i) * 64, &b, 1);
      if (b == std::byte{0xFF}) survivors.push_back(i);
    }
    return survivors;
  };
  const auto a = run(123);
  const auto b = run(123);
  const auto c = run(456);
  EXPECT_EQ(a, b);  // same seed, same torn subset
  // A strict, nonempty subset of the lines happened to reach media.
  EXPECT_FALSE(a.empty());
  EXPECT_LT(a.size(), static_cast<std::size_t>(kLines));
  EXPECT_NE(a, c);  // different seed, different subset
}

TEST(MediaErrorTest, InjectedRangeThrowsTypedDeviceError) {
  Device dev(1 << 20);
  std::uint32_t v = 42;
  dev.write(4096, &v, 4);
  dev.persist(4096, 4);

  dev.inject_read_error(4097, 2);
  try {
    dev.read(4096, &v, 4);  // overlaps the bad range
    FAIL() << "expected DeviceError";
  } catch (const DeviceError& e) {
    EXPECT_EQ(e.kind, DeviceError::Kind::kMediaRead);
    EXPECT_EQ(e.off, 4096u);
    EXPECT_EQ(e.len, 4u);
  }
  EXPECT_THROW(dev.check_media(4000, 200), DeviceError);

  // Non-overlapping reads still work.
  std::uint32_t out = 0;
  dev.read(0, &out, 4);
  dev.check_media(0, 4096);

  dev.clear_read_errors();
  dev.read(4096, &out, 4);
  EXPECT_EQ(out, 42u);
}

}  // namespace

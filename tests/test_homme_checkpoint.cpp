// Resilience layer, recovery side: versioned checkpoints with per-field
// CRCs must round-trip bit-identically (in memory and on disk) in a pinned
// byte format, reject corruption / version skew / config mismatch with
// typed errors, let a killed Session restart bit-identically from its
// per-rank chains at any rank count, and the StateMonitor must flag
// physically impossible states.

#include "homme/checkpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "homme/driver.hpp"
#include "homme/init.hpp"
#include "model/session.hpp"
#include "state_helpers.hpp"

namespace {

using homme::CheckpointError;
using homme::CheckpointInfo;
using homme::Dims;
using homme::State;
using state_helpers::states_bitwise_equal;

Dims small_dims() {
  Dims d;
  d.nlev = 4;
  d.qsize = 2;
  return d;
}

CheckpointInfo make_info(const Dims& d, const State& s) {
  CheckpointInfo info;
  info.nelem = s.size();
  info.dims = d;
  info.config.dt = 12.5;
  info.nu = 1.0e15;
  info.config.remap_freq = 3;
  info.step_count = 17;
  info.rng_seed = 0xDEADBEEFull;
  return info;
}

TEST(Checkpoint, SerializeDeserializeRoundTripsBitIdentically) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);

  const auto image = serialize_checkpoint(make_info(d, s), s);
  State restored;
  const CheckpointInfo info = deserialize_checkpoint(image, restored);

  EXPECT_TRUE(states_bitwise_equal(s, restored));
  EXPECT_EQ(info.nelem, s.size());
  EXPECT_EQ(info.dims.nlev, d.nlev);
  EXPECT_EQ(info.dims.qsize, d.qsize);
  EXPECT_EQ(info.step_count, 17);
  EXPECT_EQ(info.rng_seed, 0xDEADBEEFull);
  EXPECT_DOUBLE_EQ(info.config.dt, 12.5);
  EXPECT_EQ(info.config.remap_freq, 3);
}

TEST(Checkpoint, FlippedPayloadByteFailsItsFieldCrc) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);

  auto image = serialize_checkpoint(make_info(d, s), s);
  image[image.size() / 2] ^= 0x40;  // one bit, deep inside the records
  State restored;
  try {
    deserialize_checkpoint(image, restored);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST(Checkpoint, UnsupportedVersionIsRejectedByName) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);

  auto image = serialize_checkpoint(make_info(d, s), s);
  // Version is checked before the header CRC, so a patched version must
  // produce "unsupported version", not a checksum complaint.
  image[homme::kCheckpointVersionOffset] += 1;
  State restored;
  try {
    deserialize_checkpoint(image, restored);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"),
              std::string::npos);
  }
}

TEST(Checkpoint, BadMagicAndTruncationAreRejected) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  auto image = serialize_checkpoint(make_info(d, s), s);

  auto bad = image;
  bad[0] ^= 0xFF;
  State restored;
  EXPECT_THROW(deserialize_checkpoint(bad, restored), CheckpointError);

  auto cut = image;
  cut.resize(cut.size() - 7);
  EXPECT_THROW(deserialize_checkpoint(cut, restored), CheckpointError);
}

TEST(Checkpoint, FileRoundTrip) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);

  const std::string path = ::testing::TempDir() + "swck_file_roundtrip.ck";
  save_checkpoint(path, make_info(d, s), s);
  State restored;
  const CheckpointInfo info = load_checkpoint(path, restored);
  EXPECT_TRUE(states_bitwise_equal(s, restored));
  EXPECT_EQ(info.step_count, 17);

  EXPECT_THROW(load_checkpoint(path + ".missing", restored), CheckpointError);
}

/// FNV-1a (64-bit) of \p bytes. The byte-format pin cannot use CRC32:
/// every block of an image ends with its own CRC32, and a running CRC32
/// over block || crc32(block) forgets the block's contents (the CRC
/// linearity that state_digest() documents), so a whole-image CRC32
/// only sees lengths.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

// The round trips above cannot see a change made alike to writer and
// reader; these constants hash SWCK and SWDK images of one fixed state,
// recorded before the two formats shared a header codec. A changed value
// means a changed on-disk format.
TEST(Checkpoint, ByteFormatIsPinned) {
  Dims d = small_dims();
  d.moist = true;
  State s(3, homme::ElementState(d));
  for (std::size_t id = 0; id < s.size() * homme::kChunksPerElement; ++id) {
    auto v = homme::state_chunk(s, id).mutable_span();
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<double>(id) * 1000.0 + static_cast<double>(i) * 0.25;
    }
  }
  CheckpointInfo info = make_info(d, s);
  info.config.limit_tracers = true;
  info.config.hypervis_on = false;

  const auto full = serialize_checkpoint(info, s);
  EXPECT_EQ(full.size(), 9884u);
  EXPECT_EQ(fnv1a(full), 0xBB36A9E9F5A81543ull);

  std::vector<std::uint32_t> crcs = homme::chunk_crcs(s);
  s[1].T.mutable_span()[0] += 0.5;
  s[2].qdp.mutable_span()[5] = -1.25;
  info.step_count = 18;
  const auto delta = homme::serialize_delta_checkpoint(
      info, s, /*base_seq=*/4, /*seq=*/5, crcs);
  EXPECT_EQ(delta.size(), 1668u);
  EXPECT_EQ(fnv1a(delta), 0x195E63F574969D24ull);
}

// ---------------------------------------------------------------------------
// Delta checkpoints
// ---------------------------------------------------------------------------

TEST(DeltaCheckpoint, CarriesOnlyDirtyChunksAndRoundTrips) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);

  // Baseline CRCs, then dirty exactly two chunks.
  std::vector<std::uint32_t> crcs = homme::chunk_crcs(s);
  State base_state = s;
  s[1].T.mutable_span()[0] += 0.5;
  s[3].dp.mutable_span()[2] *= 1.001;

  std::uint64_t written = 0;
  const auto delta = homme::serialize_delta_checkpoint(
      make_info(d, s), s, /*base_seq=*/0, /*seq=*/1, crcs, &written);
  EXPECT_EQ(written, 2u);
  const auto full = serialize_checkpoint(make_info(d, s), s);
  EXPECT_LT(delta.size(), full.size() / 4);

  // Applying onto the chain's preceding image reproduces s bit for bit.
  State target = base_state;
  // base_state aliases s's clean chunks; give target private copies so
  // the apply below cannot cheat through sharing.
  for (std::size_t id = 0; id < target.size() * homme::kChunksPerElement;
       ++id) {
    homme::state_chunk(target, id).mutable_span();
  }
  const homme::DeltaInfo di = apply_delta_checkpoint(delta, target);
  EXPECT_EQ(di.seq, 1u);
  EXPECT_EQ(di.chunks_written, 2u);
  EXPECT_TRUE(states_bitwise_equal(target, s));

  // An unchanged state writes an empty (header-only) delta.
  const auto empty_delta = homme::serialize_delta_checkpoint(
      make_info(d, s), s, 0, 2, crcs, &written);
  EXPECT_EQ(written, 0u);
  EXPECT_LT(empty_delta.size(), 128u);
}

TEST(DeltaCheckpoint, WriterChainRestoresNewestSaveBitIdentically) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);
  homme::Dycore dycore(mesh, d, homme::DycoreConfig{});

  const std::string base = ::testing::TempDir() + "swdk_chain.ck";
  homme::DeltaCheckpointWriter writer(base, /*full_interval=*/3);
  CheckpointInfo info = make_info(d, s);
  for (int i = 0; i < 3; ++i) {
    dycore.step(s);
    info.step_count = dycore.step_count();
    const auto rec = writer.save(info, s);
    EXPECT_EQ(rec.full, i == 0) << "save " << i;
  }
  EXPECT_EQ(writer.totals().fulls, 1u);
  EXPECT_EQ(writer.totals().deltas, 2u);

  State restored;
  const CheckpointInfo got =
      homme::DeltaCheckpointWriter::restore_chain(base, restored);
  EXPECT_EQ(got.step_count, 3);
  EXPECT_TRUE(states_bitwise_equal(restored, s));

  // A fourth save rolls a fresh full image and removes the stale deltas,
  // so the on-disk chain is never a new full with old deltas.
  dycore.step(s);
  info.step_count = dycore.step_count();
  EXPECT_TRUE(writer.save(info, s).full);
  State rolled;
  homme::DeltaCheckpointWriter::restore_chain(base, rolled);
  EXPECT_TRUE(states_bitwise_equal(rolled, s));

  std::remove((base + ".full").c_str());
  for (int k = 1; k < 8; ++k) {
    std::remove((base + ".d" + std::to_string(k)).c_str());
  }
}

// Regression: the async writer's shutdown ordering. A writer destroyed
// with buffered checkpoints in flight must flush every accepted save,
// never drop one — the final checkpoint of a torn-down Session is
// exactly the one a restart needs.
TEST(AsyncCheckpoint, DestructionFlushesBufferedSaves) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);
  homme::Dycore dycore(mesh, d, homme::DycoreConfig{});

  const std::string base = ::testing::TempDir() + "swdk_async_flush.ck";
  CheckpointInfo info = make_info(d, s);
  {
    homme::AsyncCheckpointWriter writer(base, /*full_interval=*/2,
                                        /*max_pending=*/2);
    for (int i = 0; i < 3; ++i) {
      dycore.step(s);
      info.step_count = dycore.step_count();
      writer.save(info, s);
    }
    // No drain(): destruction alone must put all three saves on disk.
  }
  State restored;
  const CheckpointInfo got =
      homme::DeltaCheckpointWriter::restore_chain(base, restored);
  EXPECT_EQ(got.step_count, 3);
  EXPECT_TRUE(states_bitwise_equal(restored, s));

  std::remove((base + ".full").c_str());
  for (int k = 1; k < 8; ++k) {
    std::remove((base + ".d" + std::to_string(k)).c_str());
  }
}

// The sharpest corner of the same bug: a save() blocked on a full queue
// while the destructor runs used to wake on the stop flag and silently
// drop its snapshot. The write hook holds the background thread so the
// queue is provably full, the destructor provably racing, and the
// blocked save still provably on disk afterwards.
TEST(AsyncCheckpoint, BlockedFinalSaveSurvivesTeardownRace) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);
  homme::Dycore dycore(mesh, d, homme::DycoreConfig{});

  const std::string base = ::testing::TempDir() + "swdk_async_race.ck";
  auto writer = std::make_unique<homme::AsyncCheckpointWriter>(
      base, /*full_interval=*/1, /*max_pending=*/1);
  std::atomic<bool> gate{false};
  writer->set_write_hook([&gate] {
    while (!gate.load()) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
  });

  CheckpointInfo info = make_info(d, s);
  auto save_step = [&] {
    dycore.step(s);
    info.step_count = dycore.step_count();
    writer->save(info, s);
  };
  save_step();  // popped by the background thread, held at the hook
  save_step();  // fills the single queue slot
  const State final_state = [&] {
    dycore.step(s);
    return s;
  }();
  info.step_count = dycore.step_count();
  // The second save may itself have waited for the first to be popped,
  // so wait for the count to move past where it stands now.
  const std::uint64_t blocked_before = writer->stats().blocked_saves;
  std::thread blocked([&] { writer->save(info, final_state); });
  while (writer->stats().blocked_saves == blocked_before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Start destruction while the third save is still blocked, then let
  // the writer run. Every accepted save must reach disk.
  std::thread destroyer([&] { writer.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  gate.store(true);
  blocked.join();
  destroyer.join();

  State restored;
  const CheckpointInfo got =
      homme::DeltaCheckpointWriter::restore_chain(base, restored);
  EXPECT_EQ(got.step_count, 3);
  EXPECT_TRUE(states_bitwise_equal(restored, final_state));

  std::remove((base + ".full").c_str());
  for (int k = 1; k < 8; ++k) {
    std::remove((base + ".d" + std::to_string(k)).c_str());
  }
}

TEST(DeltaCheckpoint, MidRemapCycleChainRestoreContinuesBitIdentically) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::DycoreConfig cfg;
  cfg.remap_freq = 3;

  // Reference: 8 uninterrupted steps.
  State straight = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, straight);
  {
    homme::Dycore dc(mesh, d, cfg);
    for (int i = 0; i < 8; ++i) dc.step(straight);
  }

  // Save every step through step 4 — one past a remap, mid cycle — then
  // restore from the files alone and finish the remaining steps.
  const std::string base = ::testing::TempDir() + "swdk_midremap.ck";
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);
  homme::Dycore dc(mesh, d, cfg);
  homme::DeltaCheckpointWriter writer(base, /*full_interval=*/10);
  CheckpointInfo info = make_info(d, s);
  info.config = cfg;
  for (int i = 0; i < 4; ++i) {
    dc.step(s);
    info.step_count = dc.step_count();
    writer.save(info, s);
  }

  State resumed;
  const CheckpointInfo got =
      homme::DeltaCheckpointWriter::restore_chain(base, resumed);
  ASSERT_EQ(got.step_count, 4);
  homme::Dycore dc2(mesh, d, cfg);
  dc2.set_step_count(static_cast<int>(got.step_count));
  for (int i = 4; i < 8; ++i) dc2.step(resumed);

  EXPECT_TRUE(states_bitwise_equal(resumed, straight));

  std::remove((base + ".full").c_str());
  for (int k = 1; k < 8; ++k) {
    std::remove((base + ".d" + std::to_string(k)).c_str());
  }
}

TEST(DeltaCheckpoint, BrokenChainsAreTypedErrors) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);
  homme::Dycore dycore(mesh, d, homme::DycoreConfig{});

  const std::string base = ::testing::TempDir() + "swdk_broken.ck";
  homme::DeltaCheckpointWriter writer(base, /*full_interval=*/10);
  CheckpointInfo info = make_info(d, s);
  for (int i = 0; i < 3; ++i) {
    dycore.step(s);
    info.step_count = dycore.step_count();
    writer.save(info, s);
  }  // on disk: .full, .d1, .d2

  auto slurp = [](const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(f),
                             std::istreambuf_iterator<char>());
  };
  auto spit = [](const std::string& path, const std::vector<char>& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const auto d1 = slurp(base + ".d1");
  const auto d2 = slurp(base + ".d2");

  // Swapped deltas: seq continuity fails at the second link.
  spit(base + ".d1", d2);
  spit(base + ".d2", d1);
  State restored;
  try {
    homme::DeltaCheckpointWriter::restore_chain(base, restored);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("broken chain"), std::string::npos);
  }
  spit(base + ".d1", d1);
  spit(base + ".d2", d2);

  // A flipped payload byte in a delta fails that record's CRC.
  auto corrupt = d1;
  corrupt[corrupt.size() - 9] ^= 0x10;
  spit(base + ".d1", corrupt);
  try {
    homme::DeltaCheckpointWriter::restore_chain(base, restored);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }

  // No full image, no chain.
  std::remove((base + ".full").c_str());
  EXPECT_THROW(homme::DeltaCheckpointWriter::restore_chain(base, restored),
               CheckpointError);

  for (int k = 1; k < 8; ++k) {
    std::remove((base + ".d" + std::to_string(k)).c_str());
  }
}

// ---------------------------------------------------------------------------
// StateMonitor
// ---------------------------------------------------------------------------

TEST(StateMonitor, HealthyStatePasses) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::StateMonitor mon(d);
  EXPECT_FALSE(mon.check(s).has_value());
}

TEST(StateMonitor, FlagsNaNWithFieldAndLocation) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  s[3].T.mutable_span()[homme::fidx(2, 5)] = std::numeric_limits<double>::quiet_NaN();
  homme::StateMonitor mon(d);
  const auto v = mon.check(s);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("non-finite T"), std::string::npos);
  EXPECT_NE(v->find("element 3"), std::string::npos);
}

TEST(StateMonitor, FlagsNegativeLayerMassAndPressureBounds) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::StateMonitor mon(d);

  State bad_dp = s;
  bad_dp[0].dp.mutable_span()[homme::fidx(1, 0)] = -5.0;
  auto v = mon.check(bad_dp);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("non-positive layer mass"), std::string::npos);

  State heavy = s;
  auto heavy_dp = heavy[1].dp.mutable_span();
  for (int lev = 0; lev < d.nlev; ++lev) {
    heavy_dp[homme::fidx(lev, 2)] *= 10.0;
  }
  v = mon.check(heavy);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("surface pressure"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Restart through model::Session: one chain per rank, validated as a set
// ---------------------------------------------------------------------------

model::SessionConfig restart_config(int nranks, const std::string& base,
                                    int full_interval = 1) {
  return model::SessionConfig{}
      .with_ne(3)
      .with_levels(4, 2)
      .with_ranks(nranks)
      .with_init(scenario::InitSpec::baroclinic(/*with_tracers=*/true, 25.0,
                                                295.0, 4.0))
      .with_checkpoints(base, /*freq=*/0, full_interval);
}

/// Deletes every rank's chain ("<base>.r<r>.full", ".dN") under \p base.
void remove_chains(const std::string& base, int nranks) {
  for (int r = 0; r < nranks; ++r) {
    const std::string rb = homme::checkpoint_rank_path(base, r);
    std::remove((rb + ".full").c_str());
    for (int k = 1; std::remove((rb + ".d" + std::to_string(k)).c_str()) == 0;
         ++k) {
    }
  }
}

/// Runs \p steps steps, checkpointing after each, then destroys the
/// session: the chains on disk end at step \p steps.
void write_chain(const model::SessionConfig& cfg, int steps) {
  model::Session s(cfg);
  for (int i = 0; i < steps; ++i) {
    s.step();
    s.checkpoint_now();
  }
}

TEST(CheckpointRestart, KillAtStepKThenRestartIsBitIdentical) {
  // Every rank count and both chain shapes: all-full (K = 1) and a full
  // image plus a delta (K = 3: saves 1-3 are one chain, 4-5 the next).
  // Step 5 sits mid remap cycle (remap_freq 3).
  for (const int nranks : {1, 2, 4}) {
    for (const int k : {1, 3}) {
      SCOPED_TRACE("nranks=" + std::to_string(nranks) +
                   " K=" + std::to_string(k));
      const std::string base = ::testing::TempDir() + "swck_restart.ck";
      const model::SessionConfig cfg = restart_config(nranks, base, k);

      // Reference: 7 uninterrupted steps.
      model::Session straight(cfg);
      straight.run(7);

      // Run 5 steps, checkpointing each, and "die".
      write_chain(cfg, 5);

      // Restart from the files alone and finish the remaining steps.
      model::Session restarted(cfg);
      ASSERT_TRUE(restarted.try_resume());
      EXPECT_EQ(restarted.step_count(), 5);
      restarted.run(2);
      EXPECT_TRUE(states_bitwise_equal(straight.state(), restarted.state()));
      remove_chains(base, nranks);
    }
  }
}

TEST(CheckpointRestart, TwoRankDeltaChainRestoresMidRemapCycle) {
  // Saves at steps 2, 4 and 5 of a K = 3 chain: ".full" (step 2), ".d1",
  // ".d2" per rank; step 5 sits mid remap cycle (remap_freq 3).
  const std::string base = ::testing::TempDir() + "swdk_two_rank.ck";
  const model::SessionConfig cfg =
      restart_config(2, base, /*full_interval=*/3);
  model::Session straight(cfg);
  straight.run(8);

  {
    model::Session s(cfg);
    for (int step = 1; step <= 5; ++step) {
      s.step();
      if (step != 1 && step != 3) s.checkpoint_now();
    }
    const auto st = s.checkpoint_stats();
    EXPECT_EQ(st.fulls, 2u);
    EXPECT_EQ(st.deltas, 4u);
  }
  for (int r = 0; r < 2; ++r) {
    EXPECT_TRUE(std::ifstream(homme::checkpoint_rank_path(base, r) + ".d2")
                    .is_open());
  }

  model::Session resumed(cfg);
  ASSERT_TRUE(resumed.try_resume());
  EXPECT_EQ(resumed.step_count(), 5);
  resumed.run(3);
  EXPECT_TRUE(states_bitwise_equal(straight.state(), resumed.state()));
  remove_chains(base, 2);
}

TEST(CheckpointRestart, ConfigMismatchOnRestoreIsATypedError) {
  const int nranks = 2;
  const std::string base = ::testing::TempDir() + "swck_cfg_mismatch.ck";
  write_chain(restart_config(nranks, base), 1);

  model::Session other(restart_config(nranks, base).with_remap_freq(5));
  EXPECT_THROW(other.try_resume(), CheckpointError);
  // Different dims: another vertical resolution cannot adopt the state.
  model::Session taller(restart_config(nranks, base).with_levels(8, 2));
  EXPECT_THROW(taller.try_resume(), CheckpointError);
  EXPECT_EQ(taller.step_count(), 0);
  remove_chains(base, nranks);
}

TEST(CheckpointRestart, FlippedDynamicsSwitchIsATypedError) {
  // One rank validates the same header fields as N: a chain written with
  // hyperviscosity or the tracer limiter switched the other way cannot
  // resume this run.
  const std::string base = ::testing::TempDir() + "swck_switches.ck";
  write_chain(restart_config(1, base), 1);

  model::Session no_hypervis(restart_config(1, base).with_hypervis(false));
  EXPECT_THROW(no_hypervis.try_resume(), CheckpointError);
  model::Session no_limiter(restart_config(1, base).with_limiter(false));
  EXPECT_THROW(no_limiter.try_resume(), CheckpointError);
  EXPECT_EQ(no_limiter.step_count(), 0);  // a rejected restore changes nothing
  remove_chains(base, 1);
}

TEST(CheckpointRestart, MixedStepRankSetIsATypedError) {
  // A rank-1 chain from a later save than rank 0's is a checkpoint of no
  // single step; resuming it would silently splice two model times.
  const int nranks = 2;
  const std::string early = ::testing::TempDir() + "swck_mixed_early.ck";
  const std::string late = ::testing::TempDir() + "swck_mixed_late.ck";
  write_chain(restart_config(nranks, early), 3);
  write_chain(restart_config(nranks, late), 5);
  const std::string late_r1 = homme::checkpoint_rank_path(late, 1) + ".full";
  const std::string early_r1 = homme::checkpoint_rank_path(early, 1) + ".full";
  ASSERT_EQ(std::rename(late_r1.c_str(), early_r1.c_str()), 0);

  model::Session t(restart_config(nranks, early));
  EXPECT_THROW(t.try_resume(), CheckpointError);
  EXPECT_EQ(t.step_count(), 0);
  remove_chains(early, nranks);
  remove_chains(late, nranks);
}

}  // namespace

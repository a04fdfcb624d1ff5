// Copy-on-write field store: Chunk handles must alias on copy, un-share
// exactly the written chunk on the first mutable_span(), and drop
// refcounts on destruction; FieldStore::fork / Session::fork must be
// refcount bumps whose members step bit-identically to deep copies; and
// the async checkpoint writer must serialize COW snapshots race-free
// while the stepping thread keeps mutating (the TSan target).

#include "homme/field_store.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "homme/checkpoint.hpp"
#include "homme/driver.hpp"
#include "homme/init.hpp"
#include "homme/state.hpp"
#include "model/session.hpp"
#include "state_helpers.hpp"

namespace {

using homme::Chunk;
using homme::Dims;
using homme::State;
using state_helpers::deep_copy;
using state_helpers::states_bitwise_equal;

Dims small_dims() {
  Dims d;
  d.nlev = 4;
  d.qsize = 2;
  return d;
}

// ---------------------------------------------------------------------------
// Chunk
// ---------------------------------------------------------------------------

TEST(Chunk, CopyAliasesAndReadsNeverUnshare) {
  Chunk a(8, 3.0);
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_FALSE(a.shared());

  Chunk b = a;
  EXPECT_EQ(a.buffer_id(), b.buffer_id());
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_TRUE(a.shared());

  // Every const accessor leaves the sharing intact.
  EXPECT_EQ(b.size(), 8u);
  EXPECT_EQ(b.size_bytes(), 8 * sizeof(double));
  EXPECT_DOUBLE_EQ(b[3], 3.0);
  EXPECT_EQ(b.span().data(), a.data());
  EXPECT_EQ(b.begin() + b.size(), b.end());
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(a.buffer_id(), b.buffer_id());
}

TEST(Chunk, FirstWriteUnsharesExactlyThatHandle) {
  Chunk a(4, 1.0);
  Chunk b = a;
  Chunk c = a;
  EXPECT_EQ(a.use_count(), 3u);

  const void* shared_buf = a.buffer_id();
  b.mutable_span()[0] = 99.0;

  // b moved to a private buffer; a and c still share the original.
  EXPECT_NE(b.buffer_id(), shared_buf);
  EXPECT_EQ(a.buffer_id(), shared_buf);
  EXPECT_EQ(c.buffer_id(), shared_buf);
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(b.use_count(), 1u);
  EXPECT_DOUBLE_EQ(a[0], 1.0);
  EXPECT_DOUBLE_EQ(b[0], 99.0);

  // A write through an already-unique handle stays in place.
  const void* b_buf = b.buffer_id();
  b.mutable_span()[1] = -1.0;
  EXPECT_EQ(b.buffer_id(), b_buf);
  EXPECT_EQ(b.use_count(), 1u);
}

TEST(Chunk, DestructionDropsTheRefcount) {
  Chunk a(4, 2.0);
  {
    Chunk b = a;
    EXPECT_EQ(a.use_count(), 2u);
  }
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_FALSE(a.shared());

  // Move transfers ownership without touching the count.
  Chunk c = std::move(a);
  EXPECT_EQ(c.use_count(), 1u);
  EXPECT_EQ(a.buffer_id(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(a.empty());
}

TEST(Chunk, AssignReplacesWithAPrivateBuffer) {
  const double src[3] = {1.0, 2.0, 3.0};
  Chunk a(5, 0.0);
  Chunk b = a;
  a.assign(src, 3);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(b.use_count(), 1u);  // b keeps the old payload alive
  EXPECT_EQ(b.size(), 5u);
  EXPECT_DOUBLE_EQ(a[2], 3.0);

  // assign_bytes accepts unaligned sources (checkpoint payloads).
  std::vector<unsigned char> raw(1 + 2 * sizeof(double));
  std::memcpy(raw.data() + 1, src, 2 * sizeof(double));
  b.assign_bytes(raw.data() + 1, 2);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
}

TEST(Chunk, EqualityComparesValuesWithAliasShortCircuit) {
  Chunk a(4, 7.0);
  Chunk b = a;
  EXPECT_TRUE(a == b);  // same buffer

  Chunk c(4, 7.0);
  EXPECT_TRUE(a == c);  // equal values, different buffers
  c.mutable_span()[2] = 0.0;
  EXPECT_FALSE(a == c);

  Chunk shorter(3, 7.0);
  EXPECT_FALSE(a == shorter);
}

// ---------------------------------------------------------------------------
// FieldStore
// ---------------------------------------------------------------------------

TEST(FieldStore, ForkSharesEveryChunkAndStatsAgree) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);

  const homme::StoreStats solo = s.stats();
  EXPECT_EQ(solo.chunks, s.size() * homme::kChunksPerElement);
  EXPECT_EQ(solo.shared_chunks, 0u);
  EXPECT_EQ(solo.resident_bytes, solo.logical_bytes);
  EXPECT_EQ(solo.exclusive_bytes, solo.logical_bytes);
  EXPECT_DOUBLE_EQ(solo.shared_fraction(), 0.0);

  State f = s.fork();
  ASSERT_EQ(f.size(), s.size());
  for (std::size_t id = 0; id < s.size() * homme::kChunksPerElement; ++id) {
    EXPECT_EQ(homme::state_chunk(f, id).buffer_id(),
              homme::state_chunk(s, id).buffer_id());
  }

  const homme::StoreStats shared = f.stats();
  EXPECT_EQ(shared.shared_chunks, shared.chunks);
  EXPECT_DOUBLE_EQ(shared.shared_fraction(), 1.0);
  EXPECT_EQ(shared.exclusive_bytes, 0u);
  // Two owners: each member's amortized share is half the logical bytes.
  EXPECT_EQ(shared.resident_bytes, shared.logical_bytes / 2);
}

TEST(FieldStore, FirstWriteUnsharesExactlyOneChunk) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  State f = s.fork();

  f[2].T.mutable_span()[0] += 1.0;

  const std::size_t nchunks = s.size() * homme::kChunksPerElement;
  std::size_t diverged = 0;
  for (std::size_t id = 0; id < nchunks; ++id) {
    if (homme::state_chunk(f, id).buffer_id() !=
        homme::state_chunk(s, id).buffer_id()) {
      ++diverged;
    }
  }
  EXPECT_EQ(diverged, 1u);
  EXPECT_EQ(f.stats().shared_chunks, nchunks - 1);
  EXPECT_EQ(s[2].T.use_count(), 1u);

  // Dropping the fork returns the parent to exclusive ownership.
  f.clear();
  EXPECT_EQ(s.stats().shared_chunks, 0u);
}

TEST(FieldStore, ForkedStateStepsBitIdenticallyToDeepCopy) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);

  State forked = s.fork();
  State copied = deep_copy(s);
  ASSERT_TRUE(states_bitwise_equal(forked, copied));

  // Same dynamics over aliased vs private storage: COW must be invisible
  // to the numbers, and the untouched parent must survive the stepping.
  const State before = deep_copy(s);
  homme::Dycore da(mesh, d, homme::DycoreConfig{});
  homme::Dycore db(mesh, d, homme::DycoreConfig{});
  for (int i = 0; i < 4; ++i) {
    da.step(forked);
    db.step(copied);
  }
  EXPECT_TRUE(states_bitwise_equal(forked, copied));
  EXPECT_TRUE(states_bitwise_equal(s, before));
  EXPECT_FALSE(states_bitwise_equal(forked, s));
}

// ---------------------------------------------------------------------------
// model::Session::fork
// ---------------------------------------------------------------------------

TEST(SessionFork, ChildContinuesBitIdenticallyAndSharesAtBirth) {
  const model::SessionConfig cfg =
      model::SessionConfig{}.with_ne(2).with_levels(4, 2).with_remap_freq(3);

  model::Session parent(cfg);
  parent.run(2);  // fork mid remap cycle: the cadence must carry over

  auto child = parent.fork();
  EXPECT_EQ(child->step_count(), parent.step_count());
  EXPECT_EQ(child->bundle_ptr().get(), parent.bundle_ptr().get());

  // At birth the child aliases everything: full sharing, no extra bytes.
  const homme::StoreStats born = child->store_stats();
  EXPECT_DOUBLE_EQ(born.shared_fraction(), 1.0);
  EXPECT_EQ(born.exclusive_bytes, 0u);
  EXPECT_LE(born.resident_bytes, born.logical_bytes / 2);

  // The child's future equals the parent's future, bit for bit.
  child->run(3);
  parent.run(3);
  EXPECT_TRUE(states_bitwise_equal(child->state(), parent.state()));
}

TEST(SessionFork, MultiRankChildContinuesBitIdentically) {
  // fork() builds its child through the same per-rank construction as
  // the constructor, so a 2-rank parent forks like a 1-rank one: every
  // rank's chunks aliased at birth, the same future bit for bit.
  model::Session parent(model::SessionConfig{}
                            .with_ne(2)
                            .with_levels(4, 2)
                            .with_remap_freq(3)
                            .with_ranks(2));
  parent.run(2);

  auto child = parent.fork();
  EXPECT_EQ(child->step_count(), parent.step_count());
  EXPECT_EQ(child->config().nranks, 2);
  EXPECT_DOUBLE_EQ(child->store_stats().shared_fraction(), 1.0);

  child->run(3);
  parent.run(3);
  EXPECT_TRUE(states_bitwise_equal(child->state(), parent.state()));
}

// ---------------------------------------------------------------------------
// AsyncCheckpointWriter under concurrent stepping (TSan target)
// ---------------------------------------------------------------------------

// The writer thread serializes COW snapshots while the stepping thread
// keeps dirtying the same chunks through mutable_span(). Under TSan this
// validates the copy-before-release protocol; everywhere it validates
// that the last snapshot restores bit-identically.
TEST(AsyncCheckpointWriter, SnapshotsSurviveConcurrentStepping) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);
  homme::Dycore dycore(mesh, d, homme::DycoreConfig{});

  const std::string base = ::testing::TempDir() + "swck_async_race.ck";
  const int kSteps = 6;
  State at_last_save;
  homme::AsyncCheckpointWriter::Stats stats;
  {
    homme::AsyncCheckpointWriter writer(base, /*full_interval=*/3,
                                        /*max_pending=*/2);
    homme::CheckpointInfo info;
    info.nelem = s.size();
    info.dims = d;
    info.config = homme::DycoreConfig{};
    info.config.dt = dycore.dt();
    info.nu = dycore.nu();
    for (int i = 0; i < kSteps; ++i) {
      dycore.step(s);
      info.step_count = dycore.step_count();
      // save() snapshots via refcount bumps; the next step's writes
      // un-share while the background thread reads the snapshot.
      writer.save(info, s);
    }
    at_last_save = deep_copy(s);
    writer.drain();
    stats = writer.stats();
  }

  EXPECT_EQ(stats.saves, static_cast<std::uint64_t>(kSteps));
  EXPECT_EQ(stats.fulls + stats.deltas, stats.saves);
  EXPECT_GT(stats.fulls, 0u);
  EXPECT_GT(stats.deltas, 0u);
  EXPECT_GT(stats.bytes_written, 0u);

  State restored;
  const homme::CheckpointInfo info =
      homme::DeltaCheckpointWriter::restore_chain(base, restored);
  EXPECT_EQ(info.step_count, kSteps);
  EXPECT_TRUE(states_bitwise_equal(restored, at_last_save));

  std::remove((base + ".full").c_str());
  for (int k = 1; k < 8; ++k) {
    std::remove((base + ".d" + std::to_string(k)).c_str());
  }
}

// Many threads forking and writing disjoint members of one shared parent:
// the refcount traffic itself must be clean (TSan) and every member must
// end with private, correct values.
TEST(FieldStore, ConcurrentForkAndDivergeIsRaceFree) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  const State parent = homme::baroclinic(mesh, d);

  const int kThreads = 4;
  std::vector<State> members(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      State m = parent.fork();
      for (auto& es : m) {
        auto tt = es.T.mutable_span();
        for (double& v : tt) v += 1.0 + t;
      }
      members[static_cast<std::size_t>(t)] = std::move(m);
    });
  }
  for (auto& th : pool) th.join();

  for (int t = 0; t < kThreads; ++t) {
    const State& m = members[static_cast<std::size_t>(t)];
    ASSERT_EQ(m.size(), parent.size());
    for (std::size_t e = 0; e < m.size(); ++e) {
      EXPECT_NE(m[e].T.buffer_id(), parent[e].T.buffer_id());
      EXPECT_EQ(m[e].dp.buffer_id(), parent[e].dp.buffer_id());
      EXPECT_DOUBLE_EQ(m[e].T[0], parent[e].T[0] + 1.0 + t);
    }
  }
}

}  // namespace

#include "net/mini_mpi.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

using net::Cluster;
using net::Rank;

TEST(MiniMpi, PointToPointRoundTrip) {
  Cluster cluster(2);
  std::vector<double> received(4, 0.0);
  cluster.run([&](Rank& r) {
    std::vector<double> data = {1, 2, 3, 4};
    if (r.rank() == 0) {
      r.send(1, 7, data);
    } else {
      r.recv(0, 7, received);
    }
  });
  EXPECT_EQ(received, (std::vector<double>{1, 2, 3, 4}));
}

TEST(MiniMpi, TagsDisambiguateMessages) {
  Cluster cluster(2);
  double a = 0, b = 0;
  cluster.run([&](Rank& r) {
    if (r.rank() == 0) {
      std::vector<double> x = {10.0}, y = {20.0};
      r.send(1, 2, x);
      r.send(1, 1, y);
    } else {
      // Receive in the opposite order of sending.
      r.recv(0, 1, std::span<double>(&b, 1));
      r.recv(0, 2, std::span<double>(&a, 1));
    }
  });
  EXPECT_EQ(a, 10.0);
  EXPECT_EQ(b, 20.0);
}

TEST(MiniMpi, ManyRanksHaloPattern) {
  // A ring halo exchange: every rank sends to both sides, receives both.
  constexpr int kN = 12;
  Cluster cluster(kN);
  std::vector<double> sums(kN, 0.0);
  cluster.run([&](Rank& r) {
    const int left = (r.rank() + kN - 1) % kN;
    const int right = (r.rank() + 1) % kN;
    std::vector<double> mine = {static_cast<double>(r.rank())};
    r.send(left, 0, mine);
    r.send(right, 1, mine);
    std::vector<double> from_left(1), from_right(1);
    r.recv(left, 1, from_left);
    r.recv(right, 0, from_right);
    sums[static_cast<std::size_t>(r.rank())] = from_left[0] + from_right[0];
  });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(sums[static_cast<std::size_t>(i)],
              static_cast<double>((i + kN - 1) % kN + (i + 1) % kN));
  }
}

TEST(MiniMpi, LengthMismatchThrows) {
  Cluster cluster(2);
  EXPECT_THROW(cluster.run([&](Rank& r) {
    if (r.rank() == 0) {
      std::vector<double> data = {1, 2, 3};
      r.send(1, 0, data);
    } else {
      std::vector<double> out(5);
      r.recv(0, 0, out);
    }
  }),
               std::runtime_error);
}

TEST(MiniMpi, RankExceptionPropagates) {
  Cluster cluster(3);
  EXPECT_THROW(cluster.run([&](Rank& r) {
    if (r.rank() == 2) throw std::logic_error("boom");
  }),
               std::logic_error);
}

TEST(MiniMpi, ClusterReusableAcrossRuns) {
  // Each run starts from empty mailboxes: a message left unreceived by
  // one run is never matched by a receive of the next.
  Cluster cluster(3);
  for (int iter = 0; iter < 3; ++iter) {
    std::vector<double> got(3, 0.0);
    cluster.run([&](Rank& r) {
      const int next = (r.rank() + 1) % r.size();
      const int prev = (r.rank() + r.size() - 1) % r.size();
      const double mine = 10.0 * iter + r.rank(), stale = -1.0;
      r.send(next, 0, std::span<const double>(&mine, 1));
      r.send(next, 0, std::span<const double>(&stale, 1));  // left unread
      r.recv(prev, 0,
             std::span<double>(&got[static_cast<std::size_t>(r.rank())], 1));
    });
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(i)], 10.0 * iter + (i + 2) % 3);
    }
  }
}

}  // namespace

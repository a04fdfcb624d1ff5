#include "io/model_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "homme/init.hpp"

namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(HistoryIo, RoundTripsNamedFields) {
  io::HistoryWriter w(4, 8, 1);
  w.add(io::Field{"alpha", {2, 3}, {1, 2, 3, 4, 5, 6}});
  w.add(io::Field{"beta", {4}, {9, 8, 7, 6}});
  const auto path = temp_path("swcam_hist_test.bin");
  ASSERT_TRUE(w.write(path));

  io::HistoryReader r(path);
  EXPECT_EQ(r.ne(), 4);
  EXPECT_EQ(r.nlev(), 8);
  EXPECT_EQ(r.qsize(), 1);
  ASSERT_TRUE(r.has("alpha"));
  ASSERT_TRUE(r.has("beta"));
  EXPECT_FALSE(r.has("gamma"));
  EXPECT_EQ(r.get("alpha").shape, (std::vector<std::int64_t>{2, 3}));
  EXPECT_EQ(r.get("alpha").data, (std::vector<double>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(r.get("beta").data, (std::vector<double>{9, 8, 7, 6}));
  EXPECT_EQ(r.names().size(), 2u);
  std::remove(path.c_str());
}

TEST(HistoryIo, SurfaceDiagnosticsHaveRightShapeAndValues) {
  auto m = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::Dims d;
  d.nlev = 4;
  d.qsize = 0;
  auto s = homme::isothermal_rest(m, d, 287.0);
  io::HistoryWriter w(2, d.nlev, d.qsize);
  w.add_surface_diagnostics(d, s);
  const auto path = temp_path("swcam_diag_test.bin");
  ASSERT_TRUE(w.write(path));
  io::HistoryReader r(path);
  const auto& ps = r.get("ps");
  const auto& ts = r.get("t_surface");
  EXPECT_EQ(ps.data.size(), static_cast<std::size_t>(m.nelem()) * 16);
  for (double v : ps.data) EXPECT_NEAR(v, homme::kP0, 1.0);
  for (double v : ts.data) EXPECT_DOUBLE_EQ(v, 287.0);
  std::remove(path.c_str());
}

TEST(HistoryIo, RejectsCorruptFiles) {
  const auto path = temp_path("swcam_corrupt_test.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("definitely not a history file", f);
    std::fclose(f);
  }
  EXPECT_THROW(io::HistoryReader r(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(io::HistoryReader r2("/nonexistent/path/x.bin"),
               std::runtime_error);
}

}  // namespace

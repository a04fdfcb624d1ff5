// The unified bench reporting layer: the insertion-ordered Json writer
// and the Report envelope every --json bench output shares.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace {

TEST(Json, PreservesInsertionOrder) {
  obs::Json j;
  j.set("zeta", 1.0);
  j.set("alpha", 2.0);
  j.set("mid", 3.0);
  const std::string doc = j.dump();
  const auto z = doc.find("\"zeta\"");
  const auto a = doc.find("\"alpha\"");
  const auto m = doc.find("\"mid\"");
  ASSERT_NE(z, std::string::npos);
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  EXPECT_LT(z, a);
  EXPECT_LT(a, m);
}

TEST(Json, SetOverwritesInPlace) {
  obs::Json j;
  j.set("k", std::int64_t{1});
  j.set("other", std::int64_t{2});
  j.set("k", std::int64_t{42});  // same key: value replaced, order kept
  const std::string doc = j.dump();
  EXPECT_NE(doc.find("\"k\": 42"), std::string::npos);
  EXPECT_EQ(doc.find("\"k\": 1,"), std::string::npos);
  EXPECT_LT(doc.find("\"k\""), doc.find("\"other\""));
}

TEST(Json, ScalarFormats) {
  obs::Json j;
  j.set("d", 0.5);
  j.set("i", std::int64_t{-3});
  j.set("u", std::uint64_t{18446744073709551615ULL});
  j.set("b", true);
  j.set("s", "hi");
  const std::string doc = j.dump();
  EXPECT_NE(doc.find("\"d\": 0.5"), std::string::npos);
  EXPECT_NE(doc.find("\"i\": -3"), std::string::npos);
  // uint64 max survives: no double round-trip in the integer paths.
  EXPECT_NE(doc.find("\"u\": 18446744073709551615"), std::string::npos);
  EXPECT_NE(doc.find("\"b\": true"), std::string::npos);
  EXPECT_NE(doc.find("\"s\": \"hi\""), std::string::npos);
}

TEST(Json, EscapesStrings) {
  obs::Json j;
  j.set("s", "a\"b\\c\nd");
  const std::string doc = j.dump();
  EXPECT_NE(doc.find("a\\\"b\\\\c\\nd"), std::string::npos);
}

TEST(Json, NestedObjectsAndArrays) {
  obs::Json j;
  j.obj("config").set("nelem", std::int64_t{24}).set("nlev", std::int64_t{8});
  obs::Json& arr = j.arr("records");
  arr.push().set("name", "a").set("v", 1.0);
  arr.push().set("name", "b").set("v", 2.0);
  // obj()/arr() are get-or-create: a second call returns the same node.
  j.obj("config").set("qsize", std::int64_t{2});
  const std::string doc = j.dump();
  EXPECT_NE(doc.find("\"config\": {"), std::string::npos);
  EXPECT_NE(doc.find("\"records\": ["), std::string::npos);
  EXPECT_NE(doc.find("\"qsize\": 2"), std::string::npos);
  EXPECT_EQ(doc.find("\"config\"", doc.find("\"config\"") + 1),
            std::string::npos)
      << "second obj(\"config\") must not create a duplicate key";
  EXPECT_LT(doc.find("\"name\": \"a\""), doc.find("\"name\": \"b\""));
}

TEST(Json, EmptyContainers) {
  obs::Json j;
  j.obj("o");
  j.arr("a");
  const std::string doc = j.dump();
  EXPECT_NE(doc.find("\"o\": {}"), std::string::npos);
  EXPECT_NE(doc.find("\"a\": []"), std::string::npos);
}

TEST(Report, CarriesBenchNameFirst) {
  obs::Report rep("fig6_sypd");
  rep.config().set("nelem", std::int64_t{6});
  const std::string doc = rep.json();
  EXPECT_EQ(doc.rfind("{\n  \"bench\": \"fig6_sypd\"", 0), 0u);
  EXPECT_LT(doc.find("\"bench\""), doc.find("\"config\""));
}

TEST(Report, AddSummaryEmitsPhaseRecords) {
  obs::Tracer tr(obs::ClockDomain::kVirtual);
  tr.enable();
  obs::Track& t = tr.track("t");
  const obs::Counter args[1] = {{"dma_get_bytes", 640}};
  t.begin("launch:rhs");
  t.end(args);
  t.instant("cg:fault");

  obs::Report rep("test");
  rep.add_summary(tr.summary());
  const std::string doc = rep.json();
  EXPECT_NE(doc.find("\"phases\": ["), std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"launch:rhs\""), std::string::npos);
  EXPECT_NE(doc.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"total_us\""), std::string::npos);
  EXPECT_NE(doc.find("\"max_us\""), std::string::npos);
  EXPECT_NE(doc.find("\"self_us\""), std::string::npos);
  EXPECT_NE(doc.find("\"dma_get_bytes\": 640"), std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"cg:fault\""), std::string::npos);
}

}  // namespace

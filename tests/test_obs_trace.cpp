// The obs:: tracing subsystem: span nesting and self-time math, ring
// overflow, disabled-tracing zero-allocation, and the deterministic
// virtual-clock golden for a 2-rank distributed dycore step.

#include <gtest/gtest.h>

#include <string>

#include "alloc_counter.hpp"
#include "model/session.hpp"
#include "obs/trace.hpp"

namespace {

TEST(Span, NestingAndSelfTime) {
  obs::Tracer tr(obs::ClockDomain::kVirtual);
  tr.enable();
  obs::Track& t = tr.track("t");

  t.begin_at("parent", 0.0);
  t.begin_at("child", 10.0);
  t.end_at(40.0);                    // child: 30 us
  t.complete_at("leaf", 50.0, 20.0); // counted as a child of parent
  t.end_at(100.0);                   // parent: 100 us total

  const obs::Summary s = tr.summary();
  ASSERT_EQ(s.count("parent"), 1u);
  const obs::PhaseSummary& parent = s.at("parent");
  EXPECT_EQ(parent.count, 1u);
  EXPECT_DOUBLE_EQ(parent.total_us, 100.0);
  EXPECT_DOUBLE_EQ(parent.max_us, 100.0);
  EXPECT_DOUBLE_EQ(parent.self_us, 100.0 - 30.0 - 20.0);
  EXPECT_DOUBLE_EQ(s.at("child").total_us, 30.0);
  EXPECT_DOUBLE_EQ(s.at("child").self_us, 30.0);
  EXPECT_DOUBLE_EQ(s.at("leaf").total_us, 20.0);
}

TEST(Span, GrandchildOnlyReducesItsParent) {
  obs::Tracer tr(obs::ClockDomain::kVirtual);
  tr.enable();
  obs::Track& t = tr.track("t");
  t.begin_at("a", 0.0);
  t.begin_at("b", 10.0);
  t.begin_at("c", 20.0);
  t.end_at(30.0);  // c: 10
  t.end_at(50.0);  // b: 40, self 30
  t.end_at(100.0); // a: 100, self 100 - 40 (b only; c charged to b)
  const obs::Summary s = tr.summary();
  EXPECT_DOUBLE_EQ(s.at("a").self_us, 60.0);
  EXPECT_DOUBLE_EQ(s.at("b").self_us, 30.0);
  EXPECT_DOUBLE_EQ(s.at("c").self_us, 10.0);
}

TEST(Span, UnbalancedEndIsDropped) {
  obs::Tracer tr(obs::ClockDomain::kVirtual);
  tr.enable();
  obs::Track& t = tr.track("t");
  t.end();  // no open span: must not crash or record
  EXPECT_EQ(t.retained(), 0u);
  EXPECT_TRUE(tr.summary().empty());
  EXPECT_EQ(t.depth(), 0);
}

TEST(Span, CountersMergeIntoSummary) {
  obs::Tracer tr(obs::ClockDomain::kVirtual);
  tr.enable();
  obs::Track& t = tr.track("t");
  const obs::Counter a[2] = {{"bytes", 100}, {"ops", 3}};
  const obs::Counter b[2] = {{"bytes", 50}, {"ops", 1}};
  t.begin("phase");
  t.end(a);
  t.begin("phase");
  t.end(b);
  const obs::Summary s = tr.summary();
  EXPECT_EQ(s.at("phase").count, 2u);
  EXPECT_EQ(s.at("phase").counters.at("bytes"), 150u);
  EXPECT_EQ(s.at("phase").counters.at("ops"), 4u);
}

TEST(Ring, OverflowDropsOldestKeepsSummary) {
  obs::Tracer tr(obs::ClockDomain::kVirtual);
  tr.set_ring_capacity(4);
  tr.enable();
  obs::Track& t = tr.track("t");
  for (int i = 0; i < 10; ++i) t.instant("tick");
  EXPECT_EQ(t.retained(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  // Virtual clock ticks once per event: the survivors are the newest four.
  const auto events = t.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events.front().ts, 6.0);
  EXPECT_DOUBLE_EQ(events.back().ts, 9.0);
  // The summary is accumulated online, so overflow loses nothing there.
  EXPECT_EQ(tr.summary().at("tick").count, 10u);
}

TEST(Ring, OverflowedBeginsDoNotOrphanExportedEnds) {
  obs::Tracer tr(obs::ClockDomain::kVirtual);
  tr.set_ring_capacity(2);
  tr.enable();
  obs::Track& t = tr.track("t");
  // begin / many instants / end: the 'B' is evicted, the 'E' survives,
  // and the exporter must skip the orphan 'E' rather than corrupt depth.
  t.begin("span");
  for (int i = 0; i < 5; ++i) t.instant("tick");
  t.end();
  const std::string doc = tr.chrome_trace();
  EXPECT_EQ(doc.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_EQ(doc.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
}

TEST(DisabledTracing, AllocatesNothing) {
  obs::Tracer tr(obs::ClockDomain::kVirtual);  // disabled by default
  obs::Track& t = tr.track("t");               // registry alloc up front
  const obs::Counter args[1] = {{"bytes", 1}};

  alloc_counter::arm();
  for (int i = 0; i < 1000; ++i) {
    t.begin("span", args);
    t.instant("evt", args);
    t.complete_at("x", 0.0, 1.0, args);
    t.end();
    obs::ScopedSpan s(&t, "scoped");
  }
  EXPECT_EQ(alloc_counter::disarm(), 0u);
  EXPECT_EQ(t.retained(), 0u);
}

TEST(ScopedSpan, NullTrackIsNoop) {
  obs::ScopedSpan s(nullptr, "nothing");  // must not crash
}

TEST(Tracer, TrackRegistryGetOrCreate) {
  obs::Tracer tr;
  obs::Track& a = tr.track("rank0", 0, 0);
  obs::Track& b = tr.track("rank0", 99, 99);  // pid/tid fixed at creation
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.pid(), 0);
  obs::Track& c = tr.track("rank1", 1, 0);
  EXPECT_NE(&a, &c);
}

TEST(Tracer, InternDeduplicates) {
  obs::Tracer tr;
  const char* a = tr.intern(std::string("launch:") + "rhs");
  const char* b = tr.intern("launch:rhs");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "launch:rhs");
}

// -- deterministic golden ---------------------------------------------------

std::string traced_step(homme::BndryExchange::Mode mode) {
  model::Session s(model::SessionConfig{}
                       .with_ne(2)
                       .with_levels(4, 1)
                       .with_remap_freq(1)
                       .with_ranks(2)
                       .with_exchange(mode)
                       .with_trace(true, obs::ClockDomain::kVirtual));
  s.step();
  return s.tracer().chrome_trace();
}

std::size_t count_of(const std::string& doc, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = doc.find(needle); pos != std::string::npos;
       pos = doc.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(ChromeTrace, TwoRankStepGoldenIsByteIdentical) {
  // The virtual clock is per-track and every track is single-owner, so
  // two runs of the same collective step export byte-identical documents
  // regardless of thread interleaving.
  const std::string a = traced_step(homme::BndryExchange::Mode::kOverlap);
  const std::string b = traced_step(homme::BndryExchange::Mode::kOverlap);
  EXPECT_EQ(a, b);
}

TEST(ChromeTrace, OverlapWindowOnlyInRedesign) {
  const std::string over = traced_step(homme::BndryExchange::Mode::kOverlap);
  const std::string orig = traced_step(homme::BndryExchange::Mode::kOriginal);

  EXPECT_NE(over.find("\"bndry:inner_compute\""), std::string::npos);
  EXPECT_NE(over.find("\"bndry:post_send\""), std::string::npos);
  EXPECT_EQ(over.find("\"bndry:compute\""), std::string::npos);

  EXPECT_EQ(orig.find("\"bndry:inner_compute\""), std::string::npos);
  EXPECT_EQ(orig.find("\"bndry:post_send\""), std::string::npos);
  EXPECT_NE(orig.find("\"bndry:compute\""), std::string::npos);
  EXPECT_NE(orig.find("\"bndry:send\""), std::string::npos);
}

TEST(ChromeTrace, TwoRankStepIsWellFormed) {
  const std::string doc = traced_step(homme::BndryExchange::Mode::kOverlap);
  // Shape: a traceEvents array, both rank tracks named, every 'B'
  // balanced by an 'E' (nothing overflowed at default ring capacity),
  // and the dycore + net layers both present on the same tracks.
  EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(doc.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(doc.find("\"rank0\""), std::string::npos);
  EXPECT_NE(doc.find("\"rank1\""), std::string::npos);
  EXPECT_EQ(count_of(doc, "\"ph\":\"B\""), count_of(doc, "\"ph\":\"E\""));
  EXPECT_EQ(count_of(doc, "\"dyn:step\""), 4u);  // 2 ranks x B/E
  EXPECT_NE(doc.find("\"net:send\""), std::string::npos);
  EXPECT_NE(doc.find("\"net:recv\""), std::string::npos);
  EXPECT_NE(doc.find("\"dyn:remap\""), std::string::npos);
}

TEST(ChromeTrace, EveryDssIsOneSpanAndOneMessageRound) {
  // At 2 tracers a step makes 27 DSS calls: 3 rhs stages x (the vector
  // DSS of the wind, then T and dp), 3 euler stages x 2 tracers, and 12 in
  // hyperviscosity (6 for the Cartesian wind, 3 for T, 3 for dp). Each is
  // one dyn:dss span on the dycore's track; at 2 ranks each is also one
  // message from each rank to the other, the vector DSS included.
  for (int nranks : {1, 2}) {
    model::Session s(model::SessionConfig{}
                         .with_ne(2)
                         .with_levels(4, 2)
                         .with_ranks(nranks)
                         .with_trace(true, obs::ClockDomain::kVirtual));
    s.step();
    const obs::Summary sum = s.tracer().summary();
    const std::uint64_t per_rank = 27;
    ASSERT_EQ(sum.count("dyn:dss"), 1u);
    EXPECT_EQ(sum.at("dyn:dss").count, per_rank * nranks) << nranks;
    if (nranks == 2) {
      EXPECT_EQ(sum.at("net:send").count, per_rank * nranks);
      EXPECT_EQ(sum.count("bndry:rotate"), 0u);
    }
  }
}

TEST(ChromeTrace, MergedExportSeparatesTracersByPidOffset) {
  obs::Tracer a(obs::ClockDomain::kVirtual), b(obs::ClockDomain::kVirtual);
  a.enable();
  b.enable();
  a.set_label("original");
  b.set_label("overlap");
  b.set_pid_offset(1000);
  a.track("t", 1, 0).instant("evt_a");
  b.track("t", 1, 0).instant("evt_b");
  obs::Tracer* both[] = {&a, &b};
  const std::string doc = obs::chrome_trace(both);
  EXPECT_NE(doc.find("\"pid\":1,"), std::string::npos);
  EXPECT_NE(doc.find("\"pid\":1001,"), std::string::npos);
  EXPECT_NE(doc.find("\"original\""), std::string::npos);
  EXPECT_NE(doc.find("\"overlap\""), std::string::npos);
}

}  // namespace

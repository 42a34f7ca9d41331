// Unit tests for the observability layer (src/obs): metrics registry
// bucket math, logger level filtering and formatting, trace JSON
// well-formedness, and span nesting across ThreadPool workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "json/json.h"
#include "obs/jsonw.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "support/thread_pool.h"

namespace fsdep::obs {
namespace {

// ---------------------------------------------------------------- jsonw

TEST(JsonWriter, EscapesStrings) {
  std::string out;
  appendJsonString(out, "a\"b\\c\nd\te\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonWriter, WritesNestedStructures) {
  JsonWriter w;
  w.beginObject();
  w.field("name", "x");
  w.field("n", std::uint64_t{3});
  w.key("list");
  w.beginArray();
  w.value(std::int64_t{-1});
  w.value(true);
  w.valueNull();
  w.endArray();
  w.key("raw");
  w.rawValue("{\"k\":1}");
  w.endObject();
  const Result<json::Value> parsed = json::parse(w.str());
  ASSERT_TRUE(parsed.ok()) << w.str();
  const json::Object& root = parsed.value().asObject();
  EXPECT_EQ(root.find("name")->asString(), "x");
  EXPECT_EQ(root.find("n")->asInt(), 3);
  EXPECT_EQ(root.find("list")->asArray().size(), 3u);
  EXPECT_EQ(root.find("raw")->asObject().find("k")->asInt(), 1);
}

// -------------------------------------------------------------- metrics

TEST(Metrics, CounterAndGaugeBasics) {
  Registry reg;
  Counter& c = reg.counter("test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(reg.counterValue("test.counter"), 42u);
  EXPECT_EQ(&reg.counter("test.counter"), &c);  // same handle on re-lookup

  Gauge& g = reg.gauge("test.gauge");
  g.set(7);
  g.set(9);
  EXPECT_EQ(reg.gaugeValue("test.gauge"), 9u);
}

TEST(Metrics, LabeledSeriesAreDistinctAndSummable) {
  Registry reg;
  reg.counter("deps", {{"scenario", "s1"}}).add(10);
  reg.counter("deps", {{"scenario", "s2"}}).add(5);
  // Label order must not matter for identity.
  Counter& a = reg.counter("multi", {{"x", "1"}, {"y", "2"}});
  Counter& b = reg.counter("multi", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.counterValue("deps", {{"scenario", "s1"}}), 10u);
  EXPECT_EQ(reg.counterValue("deps", {{"scenario", "s3"}}), 0u);
  EXPECT_EQ(reg.counterSum("deps"), 15u);
}

TEST(Metrics, HistogramBucketMath) {
  Registry reg;
  Histogram& h = reg.histogram("lat", {}, {10, 100, 1000});
  ASSERT_EQ(h.bucketCount(), 4u);  // 3 bounds + overflow
  h.observe(0);     // <= 10
  h.observe(10);    // <= 10 (inclusive upper edge)
  h.observe(11);    // <= 100
  h.observe(100);   // <= 100
  h.observe(101);   // <= 1000
  h.observe(5000);  // overflow
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 0u + 10 + 11 + 100 + 101 + 5000);
  EXPECT_EQ(h.bucketValue(0), 2u);
  EXPECT_EQ(h.bucketValue(1), 2u);
  EXPECT_EQ(h.bucketValue(2), 1u);
  EXPECT_EQ(h.bucketValue(3), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucketValue(0), 0u);
}

TEST(Metrics, HistogramQuantileInterpolates) {
  Registry reg;
  Histogram& h = reg.histogram("lat", {}, {10, 100, 1000});
  // 10 observations spread evenly across the <=10 bucket...
  for (int i = 0; i < 10; ++i) h.observe(5);
  // ...and 10 in the (10, 100] bucket.
  for (int i = 0; i < 10; ++i) h.observe(50);
  // p50 lands on the last rank of the first bucket: its upper edge.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 10.0);
  // p95 is rank 19 of 20 — 90% into the (10, 100] bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 91.0);
  // p25 interpolates inside the first bucket: rank 5 of 10 → half way.
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);  // rank 1 of 10 in [0, 10]
}

TEST(Metrics, HistogramQuantileEdgeCases) {
  Registry reg;
  // Empty histogram: no data, quantiles are 0 by definition.
  Histogram& empty = reg.histogram("empty", {}, {10});
  EXPECT_DOUBLE_EQ(empty.quantile(0.50), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.99), 0.0);

  // All observations in the overflow bucket: no upper edge exists, so
  // the estimate is max(largest finite bound, mean).
  Histogram& overflow = reg.histogram("overflow", {}, {10});
  overflow.observe(1000);
  overflow.observe(3000);
  EXPECT_DOUBLE_EQ(overflow.quantile(0.50), 2000.0);  // mean > bound
  EXPECT_DOUBLE_EQ(overflow.quantile(0.99), 2000.0);

  // Overflow rank but a mean below the last finite bound: clamp up to
  // the bound (the true value is known to exceed it).
  Histogram& mixed = reg.histogram("mixed", {}, {100});
  for (int i = 0; i < 99; ++i) mixed.observe(1);
  mixed.observe(101);
  EXPECT_DOUBLE_EQ(mixed.quantile(1.0), 100.0);

  // No finite bounds at all: every observation is "overflow"; the mean
  // is the only estimate available.
  Histogram& unbounded = reg.histogram("unbounded", {}, {});
  unbounded.observe(4);
  unbounded.observe(8);
  EXPECT_DOUBLE_EQ(unbounded.quantile(0.50), 6.0);

  // Out-of-range q is clamped, not UB.
  EXPECT_DOUBLE_EQ(unbounded.quantile(-1.0), unbounded.quantile(0.0));
  EXPECT_DOUBLE_EQ(unbounded.quantile(2.0), unbounded.quantile(1.0));
}

TEST(Metrics, RenderJsonCarriesQuantileEstimates) {
  Registry reg;
  Histogram& h = reg.histogram("lat", {}, {10, 100});
  for (int i = 0; i < 10; ++i) h.observe(5);
  const Result<json::Value> parsed = json::parse(reg.renderJson());
  ASSERT_TRUE(parsed.ok()) << reg.renderJson();
  const json::Object& hist =
      parsed.value().asObject().find("histograms")->asArray().at(0).asObject();
  ASSERT_TRUE(hist.contains("p50"));
  ASSERT_TRUE(hist.contains("p95"));
  ASSERT_TRUE(hist.contains("p99"));
  EXPECT_GT(hist.find("p50")->asDouble(), 0.0);
  EXPECT_LE(hist.find("p50")->asDouble(), 10.0);
  EXPECT_LE(hist.find("p50")->asDouble(), hist.find("p99")->asDouble());
}

TEST(Metrics, ResetByPrefix) {
  Registry reg;
  reg.counter("pipeline.parse_ns").add(100);
  reg.counter("cache.hits").add(3);
  reg.reset("pipeline.");
  EXPECT_EQ(reg.counterValue("pipeline.parse_ns"), 0u);
  EXPECT_EQ(reg.counterValue("cache.hits"), 3u);
  reg.reset();
  EXPECT_EQ(reg.counterValue("cache.hits"), 0u);
}

TEST(Metrics, RenderJsonIsParseable) {
  Registry reg;
  reg.counter("c1", {{"k", "v\"q"}}).add(2);
  reg.gauge("g1").set(4);
  reg.histogram("h1", {}, {1, 2}).observe(3);
  const Result<json::Value> parsed = json::parse(reg.renderJson());
  ASSERT_TRUE(parsed.ok()) << reg.renderJson();
  const json::Object& root = parsed.value().asObject();
  ASSERT_TRUE(root.contains("counters"));
  ASSERT_TRUE(root.contains("gauges"));
  ASSERT_TRUE(root.contains("histograms"));
  const json::Object& c = root.find("counters")->asArray().at(0).asObject();
  EXPECT_EQ(c.find("name")->asString(), "c1");
  EXPECT_EQ(c.find("labels")->asObject().find("k")->asString(), "v\"q");
  EXPECT_EQ(c.find("value")->asInt(), 2);
  const json::Object& h = root.find("histograms")->asArray().at(0).asObject();
  EXPECT_EQ(h.find("count")->asInt(), 1);
  EXPECT_EQ(h.find("buckets")->asArray().size(), 3u);
}

TEST(Metrics, ConcurrentIncrementsDoNotTear) {
  Registry reg;
  Counter& c = reg.counter("race");
  Histogram& h = reg.histogram("race_h", {}, {8});
  constexpr int kPerThread = 10000;
  ThreadPool::parallelFor(4, 4, [&](std::size_t) {
    for (int i = 0; i < kPerThread; ++i) {
      c.add();
      h.observe(static_cast<std::uint64_t>(i % 16));
    }
  });
  EXPECT_EQ(c.value(), 4u * kPerThread);
  EXPECT_EQ(h.count(), 4u * kPerThread);
  EXPECT_EQ(h.bucketValue(0) + h.bucketValue(1), 4u * kPerThread);
}

TEST(Metrics, LookupsOfOneSeriesRaceInsertsOfNewOnes) {
  // Finding an existing series takes the registry's shared lock and
  // inserting a new one its exclusive lock; lookups racing inserts must
  // keep returning the one instrument and lose no series.
  Registry reg;
  Counter& shared = reg.counter("lookup.shared", {{"component", "c"}});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<int> wrong_handles{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &shared, &wrong_handles, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Counter& found = reg.counter("lookup.shared", {{"component", "c"}});
        if (&found != &shared) wrong_handles.fetch_add(1);
        found.add();
        reg.counter("lookup.inserted", {{"thread", std::to_string(t)}, {"i", std::to_string(i)}})
            .add();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong_handles.load(), 0);
  EXPECT_EQ(shared.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(reg.counterSum("lookup.inserted"), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(reg.counterValue("lookup.inserted", {{"i", "7"}, {"thread", "3"}}), 1u);
}

// ------------------------------------------------------------------ log

TEST(Log, ParsesLevels) {
  EXPECT_EQ(parseLogLevel("debug", LogLevel::Warn), LogLevel::Debug);
  EXPECT_EQ(parseLogLevel("info", LogLevel::Warn), LogLevel::Info);
  EXPECT_EQ(parseLogLevel("warn", LogLevel::Debug), LogLevel::Warn);
  EXPECT_EQ(parseLogLevel("error", LogLevel::Warn), LogLevel::Error);
  EXPECT_EQ(parseLogLevel("off", LogLevel::Warn), LogLevel::Off);
  EXPECT_EQ(parseLogLevel("bogus", LogLevel::Warn), LogLevel::Warn);
  EXPECT_EQ(parseLogLevel(nullptr, LogLevel::Error), LogLevel::Error);
}

TEST(Log, LevelFiltering) {
  const LogLevel saved = logLevel();
  setLogLevel(LogLevel::Warn);
  EXPECT_FALSE(logEnabled(LogLevel::Debug));
  EXPECT_FALSE(logEnabled(LogLevel::Info));
  EXPECT_TRUE(logEnabled(LogLevel::Warn));
  EXPECT_TRUE(logEnabled(LogLevel::Error));
  setLogLevel(LogLevel::Off);
  EXPECT_FALSE(logEnabled(LogLevel::Error));
  setLogLevel(saved);
}

TEST(Log, FormatsTextAndJsonLines) {
  EXPECT_EQ(formatLogLine(LogLevel::Info, "cli", "hello", /*json=*/false, 12),
            "fsdep[info] cli: hello\n");
  std::string line =
      formatLogLine(LogLevel::Error, "crashck", "a \"quoted\" msg", /*json=*/true, 34);
  ASSERT_EQ(line.back(), '\n');
  line.pop_back();
  const Result<json::Value> parsed = json::parse(line);
  ASSERT_TRUE(parsed.ok()) << line;
  const json::Object& root = parsed.value().asObject();
  EXPECT_EQ(root.find("ts_ms")->asInt(), 34);
  EXPECT_EQ(root.find("level")->asString(), "error");
  EXPECT_EQ(root.find("component")->asString(), "crashck");
  EXPECT_EQ(root.find("msg")->asString(), "a \"quoted\" msg");
}

// ---------------------------------------------------------------- trace

TEST(Trace, DisabledSpansRecordNothing) {
  ASSERT_FALSE(Trace::enabled());
  {
    Span span("cat", "ignored");
    span.arg("k", "v");
    EXPECT_FALSE(span.active());
  }
  Trace::instant("cat", "also-ignored");
  Trace::start();
  EXPECT_EQ(Trace::snapshot().size(), 0u);
  Trace::stop();
}

TEST(Trace, StopRendersChromeTraceJson) {
  Trace::start();
  {
    Span span("pipeline", "outer");
    span.arg("component", "mke2fs");
    span.arg("n", std::uint64_t{7});
    Span inner("pipeline", "inner");
  }
  Trace::instant("cache", "cache-hit");
  const std::string text = Trace::stop();
  const Result<json::Value> parsed = json::parse(text);
  ASSERT_TRUE(parsed.ok()) << text;
  const json::Array& events = parsed.value().asObject().find("traceEvents")->asArray();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by timestamp: outer opened before inner.
  const json::Object& outer = events.at(0).asObject();
  EXPECT_EQ(outer.find("name")->asString(), "outer");
  EXPECT_EQ(outer.find("ph")->asString(), "X");
  EXPECT_EQ(outer.find("cat")->asString(), "pipeline");
  EXPECT_EQ(outer.find("args")->asObject().find("component")->asString(), "mke2fs");
  EXPECT_EQ(outer.find("args")->asObject().find("n")->asInt(), 7);
  ASSERT_TRUE(outer.contains("ts"));
  ASSERT_TRUE(outer.contains("dur"));
  ASSERT_TRUE(outer.contains("tid"));
  const json::Object& inner = events.at(1).asObject();
  EXPECT_EQ(inner.find("name")->asString(), "inner");
  // The inner span nests inside the outer one on the same thread.
  EXPECT_EQ(inner.find("tid")->asInt(), outer.find("tid")->asInt());
  EXPECT_GE(inner.find("ts")->asInt(), outer.find("ts")->asInt());
  EXPECT_LE(inner.find("ts")->asInt() + inner.find("dur")->asInt(),
            outer.find("ts")->asInt() + outer.find("dur")->asInt());
  const json::Object& instant = events.at(2).asObject();
  EXPECT_EQ(instant.find("ph")->asString(), "i");
  // After stop() tracing is off again and the buffers are drained.
  EXPECT_FALSE(Trace::enabled());
}

TEST(Trace, SpansNestCorrectlyAcrossPoolWorkers) {
  Trace::start();
  ThreadPool::parallelFor(16, 4, [](std::size_t i) {
    Span outer("test", "outer");
    outer.arg("i", static_cast<std::uint64_t>(i));
    for (int k = 0; k < 3; ++k) {
      Span inner("test", "inner");
    }
  });
  std::vector<TraceEvent> events = Trace::snapshot();
  Trace::stop();

  std::size_t outers = 0;
  std::size_t inners = 0;
  for (const TraceEvent& e : events) {
    if (e.name == "outer") ++outers;
    if (e.name == "inner") ++inners;
  }
  EXPECT_EQ(outers, 16u);
  EXPECT_EQ(inners, 48u);

  // Per thread, every inner span must lie inside some outer span of the
  // same thread (parallelFor bodies do not interleave within a worker).
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& e : events) by_tid[e.tid].push_back(&e);
  for (const auto& [tid, tid_events] : by_tid) {
    for (const TraceEvent* inner : tid_events) {
      if (inner->name != "inner") continue;
      const bool contained =
          std::any_of(tid_events.begin(), tid_events.end(), [&](const TraceEvent* outer) {
            return outer->name == "outer" && outer->ts_us <= inner->ts_us &&
                   inner->ts_us + inner->dur_us <= outer->ts_us + outer->dur_us;
          });
      EXPECT_TRUE(contained) << "orphan inner span on tid " << tid;
    }
  }

  // The merged snapshot is ordered by timestamp.
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.ts_us < b.ts_us;
                             }));
}

TEST(Trace, BoundedBuffersCountDrops) {
  const std::size_t saved_limit = Trace::bufferLimit();
  Trace::setBufferLimit(4);
  Registry::global().reset("trace.");
  Trace::start();
  EXPECT_EQ(Trace::droppedEvents(), 0u);
  for (int i = 0; i < 10; ++i) {
    Span span("test", "burst");
  }
  const std::vector<TraceEvent> events = Trace::stopEvents();
  Trace::setBufferLimit(saved_limit);

  // 4 events fit this thread's buffer; the 6 overflowing ones are
  // dropped and counted in the registry series droppedEvents() reads.
  EXPECT_EQ(events.size(), 4u);
  EXPECT_EQ(Trace::droppedEvents(), 6u);
  EXPECT_EQ(Registry::global().counterValue("trace.dropped_events"), 6u);

  // start() resets the drop count for the next collection.
  Trace::start();
  EXPECT_EQ(Trace::droppedEvents(), 0u);
  EXPECT_EQ(Registry::global().counterValue("trace.dropped_events"), 0u);
  {
    Span span("test", "fits");
  }
  EXPECT_EQ(Trace::stopEvents().size(), 1u);
  EXPECT_EQ(Trace::droppedEvents(), 0u);
}

// --------------------------------------------------------------- report

TEST(Report, RendersStructuredRunReport) {
  RunReport report;
  report.setCommand("table5", {"--jobs", "4"});
  report.setJobs(4);
  report.setWallMillis(12.5);
  report.setExitCode(0);
  // The report reads trace saturation from the registry's counter.
  Registry::global().reset("trace.dropped_events");
  Registry::global().counter("trace.dropped_events").add(7);
  report.note("unique_deps", std::uint64_t{64});
  report.note("outcome", "ok");
  report.note("unique_deps", std::uint64_t{65});  // overwrite, not duplicate
  const Result<json::Value> parsed = json::parse(report.renderJson());
  ASSERT_TRUE(parsed.ok()) << report.renderJson();
  const json::Object& root = parsed.value().asObject();
  EXPECT_EQ(root.find("schema_version")->asInt(), kReportSchemaVersion);
  EXPECT_EQ(root.find("tool")->asString(), "fsdep");
  EXPECT_EQ(root.find("version")->asString(), kFsdepVersion);
  EXPECT_EQ(root.find("command")->asString(), "table5");
  EXPECT_EQ(root.find("args")->asArray().size(), 2u);
  EXPECT_EQ(root.find("jobs")->asInt(), 4);
  EXPECT_DOUBLE_EQ(root.find("wall_ms")->asDouble(), 12.5);
  EXPECT_EQ(root.find("trace_dropped_events")->asInt(), 7);
  Registry::global().reset("trace.dropped_events");
  const json::Object& facts = root.find("facts")->asObject();
  EXPECT_EQ(facts.size(), 2u);
  EXPECT_EQ(facts.find("unique_deps")->asInt(), 65);
  EXPECT_EQ(facts.find("outcome")->asString(), "ok");
  // The metrics registry snapshot is embedded.
  EXPECT_TRUE(root.find("metrics")->asObject().contains("counters"));
}

}  // namespace
}  // namespace fsdep::obs

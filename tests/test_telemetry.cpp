// Tests for the telemetry layer: counter/gauge/histogram semantics, the
// log-bucket boundaries and deterministic percentiles, registry label
// handling, snapshot determinism, the per-FID counter family memo, the
// global recording gate, and the JSON-lines trace schema's writer and
// reader.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace artmt::telemetry {
namespace {

// Every test runs with recording enabled and restores the gate, so an
// aborted expectation can't leak a disabled gate into later tests.
class TelemetryTest : public ::testing::Test {
 protected:
  TelemetryTest() { set_enabled(true); }
  ~TelemetryTest() override { set_enabled(true); }

  MetricsRegistry registry_;
};

TEST_F(TelemetryTest, CounterCountsMonotonically) {
  Counter& c = registry_.counter("comp", "events");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(registry_.counter_value("comp", "events"), 42u);
  // Never-registered names read as zero, not as an error.
  EXPECT_EQ(registry_.counter_value("comp", "nonexistent"), 0u);
}

TEST_F(TelemetryTest, GaugeSetsAndAdds) {
  Gauge& g = registry_.gauge("comp", "depth");
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
  EXPECT_EQ(registry_.gauge_value("comp", "depth"), -3);
}

TEST_F(TelemetryTest, DisabledGateDropsUpdatesButKeepsValues) {
  Counter& c = registry_.counter("comp", "gated");
  Histogram& h = registry_.histogram("comp", "gated_h");
  c.inc(5);
  h.record(5);
  set_enabled(false);
  EXPECT_FALSE(enabled());
  c.inc(100);
  h.record(100);
  EXPECT_EQ(c.value(), 5u);  // kept, not reset
  EXPECT_EQ(h.count(), 1u);
  set_enabled(true);
  c.inc();
  EXPECT_EQ(c.value(), 6u);
}

TEST(HistogramBuckets, BoundariesArePowersOfTwo) {
  // Bucket 0 holds only the value 0; bucket b holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(255), 8u);
  EXPECT_EQ(Histogram::bucket_index(256), 9u);
  EXPECT_EQ(Histogram::bucket_index(~0ull), 64u);

  EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper_bound(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper_bound(9), 511u);
  EXPECT_EQ(Histogram::bucket_upper_bound(64), ~0ull);

  // Round-trip: every value lands in a bucket whose bound contains it.
  for (const u64 v : {0ull, 1ull, 2ull, 17ull, 1000ull, 123456789ull}) {
    const std::size_t b = Histogram::bucket_index(v);
    EXPECT_LE(v, Histogram::bucket_upper_bound(b));
    if (b > 0) {
      EXPECT_GT(v, Histogram::bucket_upper_bound(b - 1));
    }
  }
}

TEST_F(TelemetryTest, HistogramAggregates) {
  Histogram& h = registry_.histogram("comp", "lat");
  for (const u64 v : {3u, 5u, 7u, 100u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 115u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucket_count(2), 1u);  // 3
  EXPECT_EQ(h.bucket_count(3), 2u);  // 5, 7
  EXPECT_EQ(h.bucket_count(7), 1u);  // 100
}

TEST_F(TelemetryTest, PercentilesAreBucketBoundsClampedToMax) {
  Histogram& h = registry_.histogram("comp", "p");
  // Nine small values and one outlier: p50 resolves inside the small
  // bucket, p99 lands in the outlier's bucket but clamps to the exact
  // observed maximum rather than the bucket bound (128-1).
  for (int i = 0; i < 9; ++i) h.record(1);
  h.record(100);
  EXPECT_EQ(h.percentile(0.50), 1u);
  EXPECT_EQ(h.percentile(0.90), 1u);   // rank 9 of 10 is still a 1
  EXPECT_EQ(h.percentile(0.99), 100u);  // bucket bound 127, clamped
  EXPECT_EQ(h.percentile(1.0), 100u);

  Histogram& empty = registry_.histogram("comp", "empty");
  EXPECT_EQ(empty.percentile(0.99), 0u);
}

TEST_F(TelemetryTest, PercentilesAreDeterministicAcrossOrder) {
  Histogram& a = registry_.histogram("comp", "fwd");
  Histogram& b = registry_.histogram("comp", "rev");
  std::vector<u64> values;
  for (u64 v = 1; v <= 1000; ++v) values.push_back(v * 7 % 997);
  for (const u64 v : values) a.record(v);
  for (auto it = values.rbegin(); it != values.rend(); ++it) b.record(*it);
  for (const double p : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.percentile(p), b.percentile(p)) << "p=" << p;
  }
}

TEST_F(TelemetryTest, SameLabelReturnsSameHandle) {
  Counter& a = registry_.counter("comp", "shared", 3);
  Counter& b = registry_.counter("comp", "shared", 3);
  EXPECT_EQ(&a, &b);  // a re-registration is a shared metric
  a.inc();
  b.inc();
  EXPECT_EQ(registry_.counter_value("comp", "shared", 3), 2u);

  // Different fid, different component, or different kind: distinct.
  EXPECT_NE(&a, &registry_.counter("comp", "shared", 4));
  EXPECT_NE(&a, &registry_.counter("other", "shared", 3));
  registry_.gauge("comp", "shared", 3).set(9);  // no clash across kinds
  EXPECT_EQ(registry_.counter_value("comp", "shared", 3), 2u);
  EXPECT_EQ(registry_.gauge_value("comp", "shared", 3), 9);
}

TEST_F(TelemetryTest, SumCountersSpansAllFids) {
  registry_.counter("comp", "pkts", 1).inc(10);
  registry_.counter("comp", "pkts", 2).inc(20);
  registry_.counter("comp", "pkts").inc(3);  // kNoFid participates
  registry_.counter("comp", "other", 1).inc(500);
  EXPECT_EQ(registry_.sum_counters("comp", "pkts"), 33u);
}

TEST_F(TelemetryTest, CounterFamilyMemoisesPerFid) {
  CounterFamily family(registry_, "comp", "pkts");
  Counter& one = family.at(1);
  one.inc();
  EXPECT_EQ(&family.at(1), &one);  // memo hit, same handle
  family.at(2).inc(5);
  family.at(1).inc();  // back to a previously seen fid
  EXPECT_EQ(registry_.counter_value("comp", "pkts", 1), 2u);
  EXPECT_EQ(registry_.counter_value("comp", "pkts", 2), 5u);
  EXPECT_EQ(&family.at(kNoFid), &registry_.counter("comp", "pkts", kNoFid));
}

TEST_F(TelemetryTest, SnapshotIsDeterministic) {
  // Register in scrambled order; the snapshot sorts by (component, name,
  // fid), so two dumps are byte-identical.
  registry_.counter("z", "last").inc(1);
  registry_.counter("a", "x", 2).inc(4);
  registry_.counter("a", "x", 1).inc(3);
  registry_.gauge("m", "depth").set(-2);
  registry_.histogram("m", "lat").record(5);
  std::ostringstream first;
  std::ostringstream second;
  registry_.snapshot_json(first);
  registry_.snapshot_json(second);
  EXPECT_EQ(first.str(), second.str());

  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"a.x{fid=1}\": 3,\n"
      "    \"a.x{fid=2}\": 4,\n"
      "    \"z.last\": 1\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"m.depth\": -2\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"m.lat\": {\"count\": 1, \"sum\": 5, \"max\": 5, \"p50\": 5, "
      "\"p90\": 5, \"p99\": 5, \"buckets\": [[7, 1]]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(first.str(), expected);
}

TEST_F(TelemetryTest, EmptyRegistrySnapshotsEmptySections) {
  std::ostringstream out;
  registry_.snapshot_json(out);
  EXPECT_EQ(out.str(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {}\n}\n");
}

TEST_F(TelemetryTest, MergeAddBypassesTheRecordingGate) {
  Counter& c = registry_.counter("comp", "merged");
  Gauge& g = registry_.gauge("comp", "depth");
  set_enabled(false);
  c.merge_add(7);   // merges fold already-recorded data; never gated
  g.merge_add(-3);
  set_enabled(true);
  EXPECT_EQ(c.value(), 7u);
  EXPECT_EQ(g.value(), -3);
  c.merge_add(5);
  EXPECT_EQ(c.value(), 12u);
}

TEST(TraceSinkTest, EmitsOneJsonObjectPerLine) {
  std::ostringstream out;
  write_trace_line(out, 1500, "alloc", "allocate", 3,
                   {{"app", 3u}, {"blocks", 12u}, {"elastic", true}});
  write_trace_line(out, 2500, "netsim", "frame_dropped", kNoFid,
                   {{"node", "switch"}, {"delta", -4}});

  EXPECT_EQ(out.str(),
            "{\"v\":3,\"ts\":1500,\"component\":\"alloc\","
            "\"event\":\"allocate\","
            "\"fid\":3,\"app\":3,\"blocks\":12,\"elastic\":true}\n"
            "{\"v\":3,\"ts\":2500,\"component\":\"netsim\","
            "\"event\":\"frame_dropped\",\"node\":\"switch\",\"delta\":-4}\n");
}

TEST(TraceSinkTest, EscapesStringsAndDefaultsClockToZero) {
  std::ostringstream out;
  write_trace_line(out, 0, "c", "ev", kNoFid, {{"msg", "a\"b\\c\nd"}});
  EXPECT_EQ(out.str(),
            "{\"v\":3,\"ts\":0,\"component\":\"c\",\"event\":\"ev\","
            "\"msg\":\"a\\\"b\\\\c\\nd\"}\n");
}

TEST(TraceSinkTest, ParseTraceLineRoundTrips) {
  std::ostringstream out;
  write_trace_line(out, 1500, "alloc", "allocate", 3,
                   {{"app", 3u}, {"blocks", 12u}, {"elastic", true},
                    {"msg", "a\"b\\c\nd"}, {"delta", -4}});

  TraceRecord rec;
  std::string error;
  ASSERT_TRUE(parse_trace_line(out.str(), &rec, &error)) << error;
  EXPECT_EQ(rec.version, kTraceSchemaVersion);
  EXPECT_EQ(rec.ts, 1500);
  EXPECT_EQ(rec.component, "alloc");
  EXPECT_EQ(rec.event, "allocate");
  EXPECT_EQ(rec.fid, 3);
  EXPECT_EQ(rec.unum("app"), 3u);
  EXPECT_EQ(rec.unum("blocks"), 12u);
  EXPECT_EQ(rec.unum("blocks", 11), std::nullopt);  // above the bound
  EXPECT_EQ(rec.str("elastic"), "true");
  EXPECT_EQ(rec.unum("elastic"), std::nullopt);  // not a number
  EXPECT_EQ(rec.str("msg"), "a\"b\\c\nd");  // escapes round-trip
  EXPECT_EQ(rec.str("delta"), "-4");
  EXPECT_EQ(rec.unum("delta"), std::nullopt);  // negative
  EXPECT_EQ(rec.unum("absent"), std::nullopt);
}

TEST(TraceSinkTest, ParseTraceLineRejectsDriftAndGarbage) {
  TraceRecord rec;
  std::string error;
  // v1 line (no "v" field): the schema-drift case the version stamp
  // exists to catch.
  EXPECT_FALSE(parse_trace_line(
      "{\"ts\":0,\"component\":\"c\",\"event\":\"e\"}", &rec, &error));
  EXPECT_EQ(error, "trace schema version mismatch");
  // The previous version is refused too: v3 changed kExec's `parent`.
  EXPECT_FALSE(parse_trace_line("{\"v\":2,\"ts\":0}", &rec, &error));
  EXPECT_EQ(error, "trace schema version mismatch");
  EXPECT_FALSE(parse_trace_line("{\"v\":999,\"ts\":0}", &rec, &error));
  EXPECT_FALSE(parse_trace_line("not json", &rec, &error));
  EXPECT_FALSE(parse_trace_line("{\"v\":3,\"ts\":}", &rec, &error));
  EXPECT_FALSE(parse_trace_line("{\"v\":3} trailing", &rec, &error));
  // Envelope numbers must be integers that fit their fields.
  EXPECT_FALSE(parse_trace_line("{\"v\":3}", &rec, &error));
  EXPECT_EQ(error, "missing \"ts\"");
  EXPECT_FALSE(parse_trace_line("{\"v\":3,\"ts\":\"x\"}", &rec, &error));
  EXPECT_FALSE(parse_trace_line("{\"v\":3,\"ts\":1.5}", &rec, &error));
  EXPECT_FALSE(
      parse_trace_line("{\"v\":3,\"ts\":0,\"fid\":\"x\"}", &rec, &error));
  EXPECT_FALSE(parse_trace_line("{\"v\":3,\"ts\":0,\"fid\":99999999999}",
                                &rec, &error));
  EXPECT_EQ(error, "bad \"fid\"");
}

}  // namespace
}  // namespace artmt::telemetry

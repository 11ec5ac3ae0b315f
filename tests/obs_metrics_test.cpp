// MetricsRegistry semantics (stable references, deterministic export), the
// JSON writer, and the engine's metrics collection on a real run.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "core/engine.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "test_support.hpp"

namespace mcsim {
namespace {

TEST(MetricsRegistry, CounterReferencesStayValidAcrossInserts) {
  obs::MetricsRegistry metrics;
  std::uint64_t& first = metrics.counter("a.first");
  for (int i = 0; i < 100; ++i) {
    metrics.counter("filler." + std::to_string(i));
  }
  first += 7;
  EXPECT_EQ(metrics.counters().at("a.first"), 7u);
}

TEST(MetricsRegistry, GaugesAndSeriesCreateOnFirstUse) {
  obs::MetricsRegistry metrics;
  metrics.gauge("g") = 2.5;
  metrics.series("s").start(0.0, 1.0);
  metrics.series("s").update(10.0, 3.0);
  EXPECT_DOUBLE_EQ(metrics.gauges().at("g"), 2.5);
  EXPECT_DOUBLE_EQ(metrics.all_series().at("s").time_average(10.0), 1.0);
}

TEST(MetricsRegistry, JsonExportIsDeterministicallyOrdered) {
  obs::MetricsRegistry metrics;
  metrics.counter("z.last") = 1;
  metrics.counter("a.first") = 2;
  std::ostringstream out;
  metrics.write_json(out, 0.0);
  const std::string json = out.str();
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"series\""), std::string::npos);
}

TEST(MetricsRegistry, UnstartedSeriesExportsZeros) {
  obs::MetricsRegistry metrics;
  metrics.series("never.updated");
  std::ostringstream out;
  metrics.write_json(out, 100.0);
  EXPECT_NE(out.str().find("never.updated"), std::string::npos);
  EXPECT_EQ(out.str().find("inf"), std::string::npos);
}

TEST(JsonWriter, EscapesStringsAndFormatsDoubles) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  // One third is not representable; max_digits10 round-trips it.
  const std::string third = obs::json_double(1.0 / 3.0);
  EXPECT_EQ(std::strtod(third.c_str(), nullptr), 1.0 / 3.0);
  EXPECT_EQ(obs::json_double(std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriter, NestedStructure) {
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  json.key("list").begin_array();
  json.value(std::uint64_t{1});
  json.value("two");
  json.begin_object().key("three").value(3.0).end_object();
  json.end_array();
  json.key("flag").value(true);
  json.key("nothing").null();
  json.end_object();
  const std::string text = out.str();
  EXPECT_NE(text.find("\"list\": ["), std::string::npos);
  EXPECT_NE(text.find("\"three\": 3"), std::string::npos);
  EXPECT_NE(text.find("\"flag\": true"), std::string::npos);
  EXPECT_NE(text.find("\"nothing\": null"), std::string::npos);
}

TEST(EngineMetrics, CountsMatchTheRunAndBooksBalance) {
  auto config = testing::paper_point(PolicyKind::kGS, 0.4, 4000, /*seed=*/7);
  MulticlusterSimulation simulation(config);
  obs::MetricsRegistry metrics;
  simulation.set_metrics(&metrics);
  const auto result = simulation.run();

  EXPECT_EQ(metrics.counters().at("jobs.arrived"), 4000u);
  EXPECT_EQ(metrics.counters().at("jobs.started"), result.completed_jobs);
  EXPECT_EQ(metrics.counters().at("jobs.finished"), result.completed_jobs);
  // Every started job needed at least one successful attempt.
  EXPECT_GE(metrics.counters().at("placement.attempts"), result.completed_jobs);
  EXPECT_EQ(metrics.counters().at("placement.attempts") -
                metrics.counters().at("placement.rejects"),
            result.completed_jobs);
  // run.* gauges are filled at the end of run().
  EXPECT_GT(metrics.gauges().at("run.events_per_sec"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.gauges().at("run.sim_end_time"), result.end_time);
  EXPECT_DOUBLE_EQ(metrics.gauges().at("run.unstable"), 0.0);
  // The calendar-occupancy series observed the whole run.
  EXPECT_GT(metrics.all_series().at("calendar.pending").max(), 0.0);
  // Snapshot of the engine's own processes.
  EXPECT_DOUBLE_EQ(metrics.gauges().at("cluster.0.busy_fraction"),
                   result.per_cluster_busy_fraction[0]);
}

TEST(EngineMetrics, GsNeverRejectsLocally) {
  MulticlusterSimulation simulation(testing::paper_point(PolicyKind::kGS, 0.4, 2000, 3));
  obs::MetricsRegistry metrics;
  simulation.set_metrics(&metrics);
  simulation.run();
  // GS only does system-wide placements; local rejects belong to LS/LP.
  EXPECT_EQ(metrics.counters().at("placement.rejects.local"), 0u);
}

TEST(EngineMetrics, LsAttributesRejectsToLocalClusters) {
  MulticlusterSimulation simulation(testing::paper_point(PolicyKind::kLS, 0.55, 6000, 3));
  obs::MetricsRegistry metrics;
  simulation.set_metrics(&metrics);
  simulation.run();
  EXPECT_GT(metrics.counters().at("placement.rejects.local"), 0u);
}

}  // namespace
}  // namespace mcsim

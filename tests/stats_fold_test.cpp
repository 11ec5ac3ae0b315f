// The statistics folds, bit for bit against the reference copies in
// tests/stats_reference.hpp: BatchMeans against its earlier form (a full
// RunningStats per batch and one over every observation), P2Quantile
// against its fold out of line, and the engine's departure folds against
// the same references fed from a job observer. Seeded streams cross batch
// boundaries, leave partial batches, and (in the engine) cross the
// warm-up edge. Comparisons are memcmp, so a fold that moved one ulp —
// a reciprocal, a reordered sum — fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/engine.hpp"
#include "stats/batch_means.hpp"
#include "stats/percentile.hpp"
#include "stats_reference.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace mcsim {
namespace {

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const ConfidenceInterval& a, const ConfidenceInterval& b) {
  return same_bits(a.mean, b.mean) && same_bits(a.halfwidth, b.halfwidth);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// A seeded stream with the spread of response times: mostly moderate,
/// a heavy tail, exact repeats and the occasional zero.
std::vector<double> response_stream(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t shape = rng.uniform_int(10);
    if (shape == 0) {
      out.push_back(0.0);
    } else if (shape == 1 && !out.empty()) {
      out.push_back(out.back());
    } else if (shape == 2) {
      out.push_back(rng.exponential_mean(50000.0));
    } else {
      out.push_back(rng.uniform(1.0, 900.0) + rng.exponential_mean(300.0));
    }
  }
  return out;
}

TEST(FoldReference, BatchMeansMatchesReferenceBitForBit) {
  for (std::uint64_t seed : {1u, 2u, 20031128u}) {
    for (std::uint64_t batch : {1u, 2u, 3u, 7u, 50u, 997u}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", batch " << batch);
      const std::vector<double> stream = response_stream(seed, 20 * batch + batch / 2 + 3);
      BatchMeans lean(batch);
      reference::BatchMeansReference full(batch);
      RunningStats raw;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        lean.add(stream[i]);
        full.add(stream[i]);
        raw.add(stream[i]);
        // Every prefix: before the first batch closes the fallbacks read
        // `raw`; with one batch closed, still; from two on, the batches.
        if (i < 3 * batch || i % 17 == 0) {
          SCOPED_TRACE(::testing::Message() << "after " << i + 1);
          ASSERT_TRUE(same_bits(lean.means(), full.means()));
          ASSERT_TRUE(same_bits(lean.confidence(raw), full.confidence()));
          ASSERT_TRUE(same_bits(lean.grand_mean(raw), full.grand_mean()));
        }
      }
      EXPECT_EQ(lean.completed_batches(), stream.size() / batch);
      EXPECT_TRUE(same_bits(lean.means(), full.means()));
      EXPECT_TRUE(same_bits(lean.confidence(raw, 0.9), full.confidence(0.9)));
    }
  }
}

TEST(FoldReference, P2QuantileMatchesReferenceBitForBit) {
  for (std::uint64_t seed : {3u, 4u, 20031128u}) {
    for (double q : {0.5, 0.9, 0.95}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", q " << q);
      const std::vector<double> stream = response_stream(seed, 30000);
      P2Quantile inline_fold(q);
      reference::P2QuantileReference reference(q);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        inline_fold.add(stream[i]);
        reference.add(stream[i]);
        ASSERT_TRUE(same_bits(inline_fold.value(), reference.value())) << "after " << i + 1;
      }
    }
  }
}

bool same_bits(const RunningStats& a, const RunningStats& b) {
  return a.count() == b.count() && same_bits(a.mean(), b.mean()) &&
         same_bits(a.variance(), b.variance()) && same_bits(a.min(), b.min()) &&
         same_bits(a.max(), b.max());
}

/// Recomputes the engine's departure folds from a job observer with the
/// reference accumulators: a departure is measured from the warm-up
/// completion on (the engine begins measuring on the departure that
/// reaches the warm-up count).
struct ReferenceFolds {
  ReferenceFolds(std::uint64_t warmup, std::uint64_t batch_size)
      : warmup_completions(warmup), batches(batch_size) {}

  void observe(const Job& job, double finish) {
    ++completions;
    if (completions < warmup_completions) return;
    const double wait = job.start_time - job.spec.arrival_time;
    const double response = wait + (finish - job.start_time);
    response_all.add(response);
    wait_all.add(wait);
    batches.add(response);
    p95.add(response);
    slowdown_all.add(response / job.spec.gross_service_time);
  }

  std::uint64_t warmup_completions;
  std::uint64_t completions = 0;
  RunningStats response_all;
  RunningStats wait_all;
  RunningStats slowdown_all;
  reference::BatchMeansReference batches;
  reference::P2QuantileReference p95{0.95};
};

TEST(FoldReference, EngineFoldsMatchReferenceAcrossWarmup) {
  struct Case {
    PolicyKind policy;
    double utilization;
    std::uint64_t jobs;
    double warmup_fraction;
    std::uint64_t batch_count;
  };
  // Batch sizes from 1 (every response closes a batch) to partial final
  // batches; warm-up from none to half the run. One batch (batch_count 1)
  // leaves the CI to the fallback over the raw statistics.
  const Case cases[] = {
      {PolicyKind::kGS, 0.5, 3000, 0.1, 20},  {PolicyKind::kLS, 0.6, 2500, 0.0, 7},
      {PolicyKind::kLP, 0.55, 1999, 0.33, 13}, {PolicyKind::kSC, 0.45, 600, 0.1, 540},
      {PolicyKind::kGS, 0.4, 40, 0.5, 30},    {PolicyKind::kLS, 0.5, 1500, 0.1, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << policy_name(c.policy) << " " << c.jobs << " jobs");
    SimulationConfig config = testing::paper_point(c.policy, c.utilization, c.jobs, 77);
    config.warmup_fraction = c.warmup_fraction;
    config.batch_count = c.batch_count;
    const auto warmup = static_cast<std::uint64_t>(config.warmup_fraction *
                                                   static_cast<double>(config.total_jobs));
    const std::uint64_t batch = std::max<std::uint64_t>(1, (c.jobs - warmup) / c.batch_count);
    ReferenceFolds folds(warmup, batch);
    MulticlusterSimulation sim(config);
    sim.set_job_observer([&](const Job& job, double finish) { folds.observe(job, finish); });
    const SimulationResult result = sim.run();

    ASSERT_FALSE(result.unstable);
    EXPECT_EQ(result.measured_jobs, folds.response_all.count());
    EXPECT_TRUE(same_bits(result.response_all, folds.response_all));
    EXPECT_TRUE(same_bits(result.wait_all, folds.wait_all));
    EXPECT_TRUE(same_bits(result.slowdown_all, folds.slowdown_all));
    EXPECT_TRUE(same_bits(result.response_ci, folds.batches.confidence()));
    EXPECT_TRUE(same_bits(result.response_p95, folds.p95.value()));
  }
}

}  // namespace
}  // namespace mcsim

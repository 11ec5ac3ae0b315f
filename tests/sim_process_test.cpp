#include "sim/process.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "queueing.hpp"
#include "stats/welford.hpp"
#include "util/rng.hpp"

namespace mcsim {
namespace {

TEST(Process, DelayAdvancesSimulatedTime) {
  Simulator sim;
  std::vector<double> times;
  auto body = [](Simulator& s, std::vector<double>& out) -> Process {
    out.push_back(s.now());
    co_await delay(s, 2.0);
    out.push_back(s.now());
    co_await delay(s, 3.5);
    out.push_back(s.now());
  };
  body(sim, times);
  sim.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 0.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
  EXPECT_DOUBLE_EQ(times[2], 5.5);
}

TEST(Process, ZeroDelayDoesNotSuspend) {
  Simulator sim;
  bool done = false;
  auto body = [](Simulator& s, bool& flag) -> Process {
    co_await delay(s, 0.0);
    flag = true;
  };
  body(sim, done);
  EXPECT_TRUE(done);  // completed synchronously
}

TEST(Process, InterleavesMultipleProcesses) {
  Simulator sim;
  std::vector<int> order;
  auto body = [](Simulator& s, std::vector<int>& out, int id, double step) -> Process {
    for (int i = 0; i < 2; ++i) {
      co_await delay(s, step);
      out.push_back(id);
    }
  };
  body(sim, order, 1, 1.0);  // resumes at 1, 2
  body(sim, order, 2, 1.5);  // resumes at 1.5, 3
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

TEST(Resource, FastPathAcquiresImmediately) {
  Simulator sim;
  Resource cpu(sim, 4);
  bool acquired = false;
  auto body = [](Resource& r, bool& flag) -> Process {
    co_await r.acquire(3);
    flag = true;
  };
  body(cpu, acquired);
  EXPECT_TRUE(acquired);
  EXPECT_EQ(cpu.available(), 1u);
}

TEST(Resource, BlocksUntilRelease) {
  Simulator sim;
  Resource cpu(sim, 1);
  std::vector<int> order;
  auto worker = [](Simulator& s, Resource& r, std::vector<int>& out, int id,
                   double hold) -> Process {
    co_await r.acquire();
    out.push_back(id);
    co_await delay(s, hold);
    r.release();
  };
  worker(sim, cpu, order, 1, 5.0);
  worker(sim, cpu, order, 2, 1.0);
  EXPECT_EQ(order, (std::vector<int>{1}));  // 2 is waiting
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(cpu.available(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 6.0);  // 5 (held by 1) + 1 (held by 2)
}

TEST(Resource, FifoNoBarging) {
  // A large request at the head must block later small ones even when the
  // small ones would fit (matches the paper's FCFS queues).
  Simulator sim;
  Resource cpu(sim, 4);
  std::vector<int> order;
  auto worker = [](Simulator& s, Resource& r, std::vector<int>& out, int id,
                   std::uint32_t units, double hold) -> Process {
    co_await r.acquire(units);
    out.push_back(id);
    co_await delay(s, hold);
    r.release(units);
  };
  worker(sim, cpu, order, 1, 3, 10.0);  // holds 3 of 4
  worker(sim, cpu, order, 2, 4, 1.0);   // head waiter, needs all 4
  worker(sim, cpu, order, 3, 1, 1.0);   // would fit now, must wait behind 2
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(cpu.waiters(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Resource, ReleaseWakesMultipleWaiters) {
  Simulator sim;
  Resource cpu(sim, 4);
  std::vector<int> order;
  auto worker = [](Simulator& s, Resource& r, std::vector<int>& out, int id,
                   std::uint32_t units, double hold) -> Process {
    co_await r.acquire(units);
    out.push_back(id);
    co_await delay(s, hold);
    r.release(units);
  };
  worker(sim, cpu, order, 1, 4, 2.0);
  worker(sim, cpu, order, 2, 2, 1.0);
  worker(sim, cpu, order, 3, 2, 1.0);
  sim.run();
  // Releasing all 4 units lets both 2-unit waiters start together.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Resource, OverReleaseThrows) {
  Simulator sim;
  Resource cpu(sim, 2);
  EXPECT_THROW(cpu.release(1), std::invalid_argument);
}

TEST(Resource, OversizedAcquireThrows) {
  Simulator sim;
  Resource cpu(sim, 2);
  EXPECT_THROW(cpu.acquire(3), std::invalid_argument);
}

TEST(Resource, ZeroCapacityThrows) {
  Simulator sim;
  EXPECT_THROW(Resource(sim, 0), std::invalid_argument);
}

// The CSIM-fidelity check: an M/M/2 queue written in the process style must
// reproduce the Erlang-C mean response time.
TEST(ProcessModel, MM2MatchesErlangC) {
  Simulator sim;
  Resource servers(sim, 2);
  Rng rng(321);
  const double lambda = 1.2, mu = 1.0;
  RunningStats responses;
  constexpr int kJobs = 30000;

  auto customer = [](Simulator& s, Resource& r, Rng& random, RunningStats& stats,
                     double mu_rate) -> Process {
    const double arrived = s.now();
    co_await r.acquire();
    co_await delay(s, random.exponential_mean(1.0 / mu_rate));
    r.release();
    stats.add(s.now() - arrived);
  };
  auto source = [&customer](Simulator& s, Resource& r, Rng& random, RunningStats& stats,
                            double rate, double mu_rate, int n) -> Process {
    for (int i = 0; i < n; ++i) {
      co_await delay(s, random.exponential_mean(1.0 / rate));
      customer(s, r, random, stats, mu_rate);
    }
  };
  source(sim, servers, rng, responses, lambda, mu, kJobs);
  sim.run();

  ASSERT_EQ(responses.count(), static_cast<std::uint64_t>(kJobs));
  const double expected = queueing::mmc_mean_response(2, lambda, mu);
  EXPECT_NEAR(responses.mean(), expected, 0.12 * expected);
}

}  // namespace
}  // namespace mcsim

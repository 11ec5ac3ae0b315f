// A single space-shared cluster: a pool of identical processors allocated
// exclusively to job components until they complete (no preemption).
#pragma once

#include <cstdint>

#include "util/assert.hpp"

namespace mcsim {

using ClusterId = std::uint32_t;

class Cluster {
 public:
  /// `speed` is the relative service rate of this cluster's processors
  /// (1.0 = the paper's homogeneous case; heterogeneity is an extension
  /// toward the grid setting the paper's introduction motivates).
  Cluster(ClusterId id, std::uint32_t num_processors, double speed = 1.0);

  [[nodiscard]] ClusterId id() const { return id_; }
  [[nodiscard]] std::uint32_t capacity() const { return capacity_; }
  [[nodiscard]] double speed() const { return speed_; }
  [[nodiscard]] std::uint32_t idle() const { return capacity_ - busy_; }
  [[nodiscard]] std::uint32_t busy() const { return busy_; }
  [[nodiscard]] bool fits(std::uint32_t processors) const { return processors <= idle(); }

  /// Allocate `processors` CPUs; precondition: fits(processors).
  void allocate(std::uint32_t processors) {
    MCSIM_REQUIRE(fits(processors), "allocation exceeds idle processors");
    busy_ += processors;
  }

  /// Release `processors` CPUs; precondition: busy() >= processors.
  void release(std::uint32_t processors) {
    MCSIM_REQUIRE(busy_ >= processors, "releasing more processors than busy");
    busy_ -= processors;
  }

 private:
  ClusterId id_;
  std::uint32_t capacity_;
  double speed_;
  std::uint32_t busy_ = 0;
};

}  // namespace mcsim

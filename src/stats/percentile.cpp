#include "stats/percentile.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace mcsim {

P2Quantile::P2Quantile(double q) : q_(q) {
  MCSIM_REQUIRE(q > 0.0 && q < 1.0, "quantile must be in (0,1)");
  desired_ = {1.0, 1.0 + 2.0 * q_, 1.0 + 4.0 * q_, 3.0 + 2.0 * q_, 5.0};
  increments_ = {0.0, q_ / 2.0, q_, (1.0 + q_) / 2.0, 1.0};
}

void P2Quantile::add_initial(double x) {
  heights_[count_] = x;
  ++count_;
  if (count_ == 5) {
    std::sort(heights_.begin(), heights_.end());
    for (int i = 0; i < 5; ++i) positions_[i] = i + 1;
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    std::array<double, 5> copy = heights_;
    std::sort(copy.begin(), copy.begin() + static_cast<long>(count_));
    const auto idx = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(count_ - 1),
                         std::floor(q_ * static_cast<double>(count_))));
    return copy[idx];
  }
  return heights_[2];
}

}  // namespace mcsim

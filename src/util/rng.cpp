#include "util/rng.hpp"

namespace mcsim {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t derive_stream_seed(std::uint64_t master_seed, std::string_view stream_name) {
  // FNV-1a over the stream name...
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (char c : stream_name) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash *= 0x100000001B3ULL;
  }
  // ...mixed with the master seed through splitmix64 twice.
  std::uint64_t state = master_seed ^ hash;
  splitmix64(state);
  return splitmix64(state);
}

Rng make_stream(std::uint64_t master_seed, std::string_view stream_name) {
  return Rng(derive_stream_seed(master_seed, stream_name));
}

}  // namespace mcsim

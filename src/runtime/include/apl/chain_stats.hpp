// Lazy loop-chain statistics, one type for both front ends: op2 (sparse
// tiling over unstructured sets) and ops (skewed cache blocking over
// structured blocks) accumulate the same counters, exposed through their
// Context::chain_stats() and reported by the benches.
#pragma once

#include <cstdint>

namespace apl {

struct ChainStats {
  std::uint64_t flushes = 0;    ///< chains executed
  std::uint64_t loops = 0;      ///< loops executed through chains
  std::uint64_t tiles = 0;      ///< tiles executed (1 per loop if untiled)
  std::uint64_t rounds = 0;     ///< color rounds run by op2's team path (ops: 0)
  std::uint64_t verbatim = 0;   ///< chains replayed with no tiled segment
  std::uint64_t max_chain = 0;  ///< longest chain seen
  /// Modeled DRAM traffic: each loop streaming all its arguments (what
  /// eager execution does) vs. each dataset entering cache once per tile
  /// it is touched in.
  std::uint64_t eager_bytes = 0;
  std::uint64_t tiled_bytes = 0;

  double traffic_saved_fraction() const {
    return eager_bytes == 0
               ? 0.0
               : 1.0 - static_cast<double>(tiled_bytes) /
                           static_cast<double>(eager_bytes);
  }
};

}  // namespace apl

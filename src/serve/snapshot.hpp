// Cache snapshot / warm-start for worker shards (DESIGN.md §17).
//
// A shard restart without its caches is a stampede in waiting: every
// key it owned storms the compile path at once when traffic returns.
// CacheSnapshot captures the shard's *semantic* state — the encoded
// (WireRequest, WireResponse) pairs of every exhausted, cacheable tune
// and every cost/legality answer it computed — and restore() replays
// them into a fresh Worker: results re-enter the result cache via
// Service::warm(), and each distinct tune triple re-enters the compile
// cache via Service::precompile().  The restore-time compiles *are* the
// snapshot's miss set; replaying the original key sequence afterwards
// adds zero compile misses (pinned by tests/serve_dist_test.cpp).
//
// The format is versioned and self-delimiting — pairs of
// length-prefixed byte strings — so a snapshot taken by one build can
// be rejected cleanly (WireError) rather than misparsed by another.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/wire.hpp"

namespace harmony::serve {

struct SnapshotEntry {
  std::vector<std::uint8_t> request;   ///< encoded WireRequest
  std::vector<std::uint8_t> response;  ///< encoded WireResponse
};

struct CacheSnapshot {
  static constexpr std::uint32_t kVersion = 1;
  std::vector<SnapshotEntry> entries;
};

[[nodiscard]] std::vector<std::uint8_t> encode(const CacheSnapshot& snap);
[[nodiscard]] CacheSnapshot decode_snapshot(
    const std::vector<std::uint8_t>& bytes);

}  // namespace harmony::serve

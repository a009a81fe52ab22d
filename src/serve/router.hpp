// Router front of the distributed serve tier (DESIGN.md §17).
//
// The router owns the consistent-hash ring and a Channel per worker
// shard.  submit() hashes the request's routing key to its *affinity*
// shard — the shard whose result and CompiledSpec caches have answered
// this key before — and sends one kSubmit frame; a per-shard reader
// thread matches kReply frames back to waiters by correlation id.
//
// Hot keys get two defenses:
//   * duplicate coalescing — a request whose key is already in flight
//     attaches to the leader's reply instead of re-asking the shard
//     (deadline-carrying requests opt out, exactly like the Service's
//     in-flight coalescing: different patience deserves a different
//     frontier);
//   * overflow stealing — when the affinity shard's outstanding count
//     exceeds the least-loaded active shard's by steal_margin, the
//     request routes to the least-loaded shard instead.  The stolen
//     shard computes the same pure function, so the reply is
//     semantically byte-identical (semantic_bytes; pinned by test) —
//     stealing trades cache affinity for queue depth, nothing else.
//
// drain(shard) removes a shard from rotation without dropping work:
// the ring deactivates it (its keys rehash to ring successors — the
// bounded-movement property), in-flight requests finish normally, and
// the call returns when the shard's outstanding count reaches zero.
// rejoin() reactivates the same ring points, restoring the exact
// pre-drain placement.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/metrics.hpp"
#include "serve/ring.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"

namespace harmony::serve {

struct RouterConfig {
  RingConfig ring;
  /// Attach duplicate in-flight keys to one shard ask.
  bool coalesce = true;
  /// Steal to the least-loaded shard when the affinity shard is this
  /// many outstanding requests deeper.  0 steals on any imbalance;
  /// disable with enable_steal.
  std::uint64_t steal_margin = 8;
  bool enable_steal = true;
};

struct RouterStats {
  std::uint64_t routed = 0;     ///< frames sent to shards
  std::uint64_t coalesced = 0;  ///< waiters attached to an in-flight ask
  std::uint64_t stolen = 0;     ///< asks moved off their affinity shard
  std::vector<std::uint64_t> per_shard;    ///< asks sent per shard
  std::vector<std::uint64_t> outstanding;  ///< currently in flight
};

class Router {
 public:
  using Callback = std::function<void(const WireResponse&)>;

  explicit Router(RouterConfig cfg = {});
  ~Router();  // shutdown()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Registers a shard and starts its reader thread.  Shards must be
  /// added before the first submit; the returned index is the ring
  /// shard id.
  std::size_t add_shard(std::string name, std::shared_ptr<Channel> channel);

  /// Routes one request; `on_reply` runs on the shard's reader thread
  /// when the reply arrives (keep it cheap — the open-loop bench
  /// records a timestamp and returns).  The reply carries delivery
  /// metadata: shard, stolen, coalesced.
  void submit(const WireRequest& req, Callback on_reply);

  /// submit() + wait.
  [[nodiscard]] WireResponse call(const WireRequest& req);

  /// Stops routing to `shard` and blocks until its in-flight requests
  /// have all been answered.  Zero requests are dropped or errored by
  /// a drain (pinned by tests/serve_dist_test.cpp).
  void drain(std::size_t shard);

  /// Returns a drained shard to rotation (same ring points, same keys).
  void rejoin(std::size_t shard);

  /// Control RPCs (synchronous).
  [[nodiscard]] std::vector<std::uint8_t> snapshot_shard(std::size_t shard);
  std::uint64_t restore_shard(std::size_t shard,
                              const std::vector<std::uint8_t>& snapshot);
  [[nodiscard]] WireMetrics shard_metrics(std::size_t shard);

  /// Fleet-wide view: counters summed, latency buckets merged — so
  /// percentiles computed from it (via LatencyHistogram::add_counts)
  /// are true fleet percentiles, not averages of shard percentiles.
  [[nodiscard]] WireMetrics fleet_metrics();

  [[nodiscard]] RouterStats stats() const;
  [[nodiscard]] std::size_t num_shards() const;

  /// Sends kShutdown to every shard, fails any stragglers, joins the
  /// readers.  Idempotent; called by the destructor.
  void shutdown();

 private:
  struct Shard {
    std::string name;
    std::shared_ptr<Channel> channel;
    std::thread reader;
  };

  struct PendingAsk {
    std::size_t shard = 0;
    bool stolen = false;
    bool coalesceable = false;
    CacheKey key;
    std::uint64_t begin_ns = 0;
    /// Leader first; coalesced followers appended.
    std::vector<Callback> waiters;
  };

  void reader_loop(std::size_t shard);
  void finish_ask(std::uint64_t id, WireResponse resp);
  /// Fails every pending ask routed to `shard` (reader saw EOF).
  void fail_shard(std::size_t shard, const std::string& reason);
  [[nodiscard]] Frame control(std::size_t shard, MsgType send_type,
                              std::vector<std::uint8_t> body,
                              MsgType want_type);

  RouterConfig cfg_;
  mutable std::mutex mu_;
  std::condition_variable drain_cv_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, PendingAsk> pending_;
  /// key -> in-flight correlation id (coalescing).
  std::unordered_map<CacheKey, std::uint64_t, CacheKeyHash> inflight_;
  /// Control RPC rendezvous: id -> reply frame slot.
  struct ControlWait {
    bool done = false;
    Frame frame;
  };
  std::unordered_map<std::uint64_t, std::shared_ptr<ControlWait>> control_;
  std::condition_variable control_cv_;
  std::vector<std::uint64_t> outstanding_;
  RouterStats stats_;
  bool shutdown_ = false;
};

}  // namespace harmony::serve

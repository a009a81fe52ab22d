// Worker shard of the distributed serve tier (DESIGN.md §17).
//
// A Worker is one shard's whole backend: a private Service (its own
// result cache, CompiledSpec cache, scheduler pool — *affinity state*
// that the router's consistent-hash routing keeps hot), a SpecCatalog
// rebuilding named specs off the wire, and a serve() loop speaking the
// frame protocol over one Channel.
//
// serve()'s receive thread decodes each kSubmit and submits it to the
// Service.  An answer that is ready at once — a cache hit, a rejection,
// or the error for a bad frame — is sent from the receive thread
// itself, with no handoff.  Only queued work goes to a small responder
// pool that waits on the Service future and sends the kReply, so the
// receive loop never blocks on an oracle and a hit never waits behind
// a tune.  Replies therefore return in completion order, not arrival
// order — the correlation id, not position, matches them up.
//
// The snapshot log retains the (request, response) pair of every
// *converged* non-hit answer, deduplicated by routing key; the request
// bytes are the received kSubmit body with its QoS tail zeroed.
// snapshot()/restore() round-trip it so a restarted shard starts warm:
// restore replays results into the result cache (Service::warm) and
// recompiles each distinct tune triple once (Service::precompile) —
// the snapshot's miss set, paid at restore time instead of as a
// stampede when traffic returns.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serve/catalog.hpp"
#include "serve/queue.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"

namespace harmony::serve {

struct WorkerConfig {
  ServiceConfig service;
};

class Worker {
 public:
  explicit Worker(WorkerConfig cfg = {});
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Serves frames from `channel` until kShutdown arrives or the peer
  /// closes.  Blocking — run on a dedicated thread (or as a child
  /// process's main loop).  Reentrant serve() calls are not supported.
  void serve(std::shared_ptr<Channel> channel);

  /// The shard's semantic cache state (see file comment).
  [[nodiscard]] CacheSnapshot snapshot() const;

  /// Replays a snapshot into this shard's caches; returns the number of
  /// entries restored.  Also primes the local snapshot log, so a
  /// restored shard re-snapshots what it knows.
  std::uint64_t restore(const CacheSnapshot& snap);

  /// Direct access for in-process tests and benches.
  [[nodiscard]] Service& service() { return service_; }
  [[nodiscard]] SpecCatalog& catalog() { return catalog_; }

 private:
  /// Responder threads waiting on queued Service futures.  2 keeps a
  /// slow tune from head-of-line-blocking a stream of cheap misses
  /// without meaningfully adding threads.
  static constexpr unsigned kResponders = 2;
  /// Snapshot-log entries retained.  Once the log is full, answers for
  /// keys it does not hold yet are not logged (nothing is evicted).
  static constexpr std::size_t kSnapshotCapacity = 4096;

  /// A submitted request on its way to its kReply.
  struct Reply {
    std::uint64_t id = 0;
    std::uint64_t begin_ns = 0;  ///< shard span start; 0 when untraced
    std::vector<std::uint8_t> request;  ///< the received kSubmit body
    std::future<Response> future;
  };

  /// Waits for the answer, logs it when it is fresh and converged, and
  /// sends the kReply.  The receive thread runs it for answers that are
  /// ready at submit, the responder pool for the rest.
  void respond(Channel& channel, Reply& reply);
  void responder_loop(Channel& channel);

  SpecCatalog catalog_;
  Service service_;
  BoundedQueue<Reply> replies_;

  mutable std::mutex snap_mu_;
  std::vector<SnapshotEntry> snap_entries_;
  std::unordered_map<CacheKey, std::size_t, CacheKeyHash> snap_index_;
};

}  // namespace harmony::serve

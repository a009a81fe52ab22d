// harmony::serve — concurrent mapping-tuning service (server core).
//
// Wraps the F&M oracles (cost evaluation, legality checking, mapping
// autotuning) behind an embeddable request/response service:
//
//   submit() ── cache hit ──────────────────────────▶ ready future
//        │
//        └─ miss ─▶ admission (bounded: queue_capacity admitted and
//                   unanswered, else kRejected + kRetryAfter)
//                   ├─ duplicate of a running miss ─▶ parked on it
//                   └─ otherwise ─▶ one sched::Scheduler root ─▶ oracle
//                      on the first free worker ─▶ its promise and its
//                      parked duplicates' fulfilled, converged results
//                      memoized.
//
// Deadlines: every request may carry one.  A tune that reaches its
// deadline is not failed — the autotuner's cancel hook (fm/search.hpp)
// stops the enumeration and the response carries the best legal mapping
// found so far (deadline_cut = true).  This is Dally's serial↔parallel
// mapping range operationally: the frontier always holds *some* legal
// point (the serial end is found almost immediately), and more budget
// buys a better one.
//
// Shutdown is graceful: new submits are rejected and everything already
// admitted is answered; the worker pool stops with the Service.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "sched/scheduler.hpp"
#include "serve/cache.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"

namespace harmony::analyze {
struct ExecWitness;  // analyze/exec.hpp
}  // namespace harmony::analyze

namespace harmony::serve {

/// Backoff hint attached to kRejected responses, by the Service and by
/// a shard whose responder backlog is full.
inline constexpr std::chrono::nanoseconds kRetryAfter{
    std::chrono::milliseconds(1)};

struct ServiceConfig {
  /// Scheduler pool threads.  Each admitted miss runs as one root on
  /// this pool, and tunes fork their enumeration grains into the same
  /// pool, so request-level and search-level parallelism share one set
  /// of deques.
  unsigned num_workers = 4;
  /// Bound on admitted and not yet answered misses (running, waiting
  /// for a worker, or parked on a running duplicate); a miss beyond it
  /// is rejected with kRetryAfter.  Cache hits never count.
  std::size_t queue_capacity = 1024;
  std::size_t cache_capacity = 4096;
  std::size_t cache_shards = 8;
  /// A deadline-cut tune stops searching this far *before* the deadline
  /// so the response is delivered strictly before it.
  std::chrono::nanoseconds deadline_margin{std::chrono::microseconds(200)};
};

class Service {
 public:
  explicit Service(ServiceConfig cfg = {});
  ~Service();  // shutdown()

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admits a request.  The future is ready immediately on a cache hit
  /// or rejection; otherwise it completes when a worker answers.  Never
  /// throws on bad requests — oracle preconditions surface as kError
  /// responses.
  [[nodiscard]] std::future<Response> submit(Request req);

  /// submit() + wait.
  [[nodiscard]] Response call(Request req);

  /// Rejects new work and waits until everything admitted is answered.
  /// Idempotent; called by the destructor.
  void shutdown();

  /// Warm-start hook (snapshot restore, DESIGN.md §17): seeds the
  /// result cache with a previously computed response for `req`, as if
  /// the service had answered it.  Delivery metadata (cache_hit,
  /// latency) is sanitized; non-cacheable requests are ignored.
  void warm(const Request& req, Response resp);

  /// Warm-start hook for the compile path: populates the CompiledSpec
  /// cache for a tune request (no-op for other kinds).  A restored
  /// shard pays its compile misses *here*, at restore time, instead of
  /// stampeding fm::compile_spec when traffic returns — replaying the
  /// snapshot's key sequence afterwards adds zero compile misses.
  void precompile(const Request& req);

  [[nodiscard]] MetricsSnapshot metrics() const;
  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Request req;
    CacheKey key;
    bool use_cache = false;
    /// Shares one oracle run with its duplicates (cacheable, and not a
    /// deadline tune).  A spawned request with it set owns the in-flight
    /// entry for `key`; duplicates admitted while it runs park there.
    bool coalesce = false;
    Clock::time_point enqueued;
    Clock::time_point deadline;  ///< meaningful when has_deadline
    bool has_deadline = false;
    /// Request id stitching this request's trace spans together
    /// (admit → queue_wait → cache_probe → execute → reply).
    std::uint64_t rid = 0;
    /// trace::now_ns() at admission when tracing; 0 otherwise.  The
    /// queue-wait span begins here and ends when a worker starts it.
    std::uint64_t enqueue_ns = 0;
    std::promise<Response> promise;
  };

  /// One admitted miss, run as a scheduler root: re-probe the cache, run
  /// the oracle, memoize, then answer it and every duplicate parked on
  /// its in-flight entry.
  void run_request(Pending& leader);
  [[nodiscard]] Response execute(const Pending& p);
  /// kTune with strategy == kAnneal / kBeam: fm::search_table over the
  /// TableMap space, with the same service-owned scheduler / compile
  /// cache / deadline plumbing as the exhaustive path.
  void execute_strategy_tune(const Pending& p, Response& r);
  /// kPipelineTune: fm::tune_pipeline_greedy / _paired over the request's
  /// stage DAG.  Per-stage compiles route through the compile cache via
  /// the tuner's compile hook; every committed stage winner is then
  /// certified through ExecChecker with its producer-substituted input
  /// homes (the diagnostics aggregate into Response::exec / lint).
  void execute_pipeline_tune(const Pending& p, Response& r);
  /// Post-hoc ExecChecker replay of a tune winner's execution witness.
  /// Appends to Response::exec — pipeline tunes certify one winner per
  /// stage.
  void check_winner_exec(Response& r, const analyze::ExecWitness& witness);
  void respond(Pending& p, Response r);
  /// spec_fingerprint(*spec), memoized per live spec object (spec_fps_).
  [[nodiscard]] CacheKey spec_fp(
      const std::shared_ptr<const fm::FunctionSpec>& spec);
  /// make_cache_key(req) with the spec fingerprint from the memo.
  [[nodiscard]] CacheKey result_key(const Request& req);
  /// CompiledSpec for a tune request, via the LRU compile cache (may
  /// compile — propagates oracle preconditions as exceptions, which
  /// execute() converts to kError).
  [[nodiscard]] std::shared_ptr<const fm::CompiledSpec> compiled_for(
      const Request& req);
  /// CompiledSpec for one pipeline stage under the resolved input-home
  /// prototype `proto` (fingerprinted by `home_fp`).  Stages with
  /// un-fingerprintable homes (a distributed *external* binding —
  /// producer-fixed distributed homes are covered by home_fp) bypass the
  /// cache and compile directly.
  [[nodiscard]] std::shared_ptr<const fm::CompiledSpec> compiled_for_stage(
      const Request& req, std::size_t stage, const fm::Mapping& proto,
      std::uint64_t home_fp);
  /// The compile cache's general entry point: probe by key, else run
  /// `compile` — with in-flight coalescing, so concurrent misses on one
  /// key run a single compile and the duplicates block on the first
  /// (they need the tables to go on with their own request, unlike
  /// parked request duplicates, which need only the answer).  Both
  /// single-spec tunes (compiled_for) and per-stage pipeline compiles
  /// route through here.
  [[nodiscard]] std::shared_ptr<const fm::CompiledSpec> compiled_cached(
      const CacheKey& key,
      const std::function<std::shared_ptr<const fm::CompiledSpec>()>&
          compile);

  /// One compile-cache entry: the compiled tables plus the LRU hook.
  struct CompiledEntry {
    std::shared_ptr<const fm::CompiledSpec> compiled;
    std::list<CacheKey>::iterator lru;
  };

  /// Rendezvous for one in-flight compile: the first miss publishes the
  /// result (or the exception) here; coalesced duplicates block on the
  /// condition variable instead of compiling again.
  struct InflightCompile {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const fm::CompiledSpec> compiled;
    std::exception_ptr error;
  };

  /// One spec_fps_ entry: the fingerprint and the spec's owner.
  struct SpecFp {
    std::weak_ptr<const fm::FunctionSpec> owner;
    CacheKey fp;
  };

  ServiceConfig cfg_;
  /// Spec fingerprints by spec address, so a cache hit never re-samples
  /// the dependence function.  An entry answers only a pointer that
  /// shares ownership with its unexpired weak_ptr: a spec freed and
  /// replaced at the same address is fingerprinted afresh.  Bounded
  /// (service.cpp kSpecFpCapacity); keeps no spec alive.
  std::mutex spec_fp_mu_;
  std::unordered_map<const fm::FunctionSpec*, SpecFp> spec_fps_;
  ResultCache cache_;
  Metrics metrics_;
  std::atomic<std::uint64_t> next_rid_{1};
  /// Admission state: the stop flag, the admitted-and-unanswered count
  /// (bounded by queue_capacity; shutdown() waits on idle_cv_ for it to
  /// reach 0) and the in-flight request map.
  std::mutex admit_mu_;
  std::condition_variable idle_cv_;
  bool stopping_ = false;
  std::size_t admitted_ = 0;
  /// Duplicates parked on a running miss, by cache key.  An entry exists
  /// exactly while its leader runs; the leader erases it after storing
  /// its result, so a later duplicate hits the cache instead.
  std::unordered_map<CacheKey, std::vector<std::unique_ptr<Pending>>,
                     CacheKeyHash>
      inflight_;
  /// Spawned requests no worker has started yet (queue_depth).
  std::atomic<std::size_t> waiting_{0};
  /// LRU cache of CompiledSpecs shared across tunes (front = freshest).
  /// Guarded by its own mutex: probes are cheap, and compiles happen
  /// *outside* the lock so one slow compile never stalls the pool.
  std::mutex compile_mu_;
  std::list<CacheKey> compile_lru_;
  std::unordered_map<CacheKey, CompiledEntry, CacheKeyHash> compile_cache_;
  /// Compiles currently running out-of-lock, keyed like the cache;
  /// guarded by compile_mu_.  An entry exists exactly while its leader
  /// compiles — it is erased (after publication) before the leader
  /// returns, so the map stays empty at rest.
  std::unordered_map<CacheKey, std::shared_ptr<InflightCompile>, CacheKeyHash>
      compile_inflight_;
  /// Declared last, so it is destroyed first: ~Scheduler joins the
  /// workers while every member a running root touches still exists.
  sched::Scheduler scheduler_;
};

}  // namespace harmony::serve

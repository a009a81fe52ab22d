// harmony::trace — always-available, low-overhead span tracing.
//
// The paper's central claim (Dally §3) is that cost lives in the mapping
// of work onto (space, time), not in the ops themselves.  A span trace is
// exactly a measured (space, time) mapping of the runtime's *own*
// execution: which worker (space) ran which task over which interval
// (time), which lane evaluated which slot range of a mapping search,
// where a serving request spent its life between admission and reply.
// This module records that mapping cheaply enough to leave compiled in.
//
// Design:
//   * One fixed-capacity ring buffer per thread.  The owning thread is
//     the only writer — no locks, no CAS on the hot path.  A full ring
//     drops the *oldest* events (the interesting tail of a run survives)
//     and counts what it dropped.
//   * Event sites cost one relaxed atomic load when tracing is disabled
//     (the `enabled()` check in the Span constructor / emit functions);
//     nothing else happens, nothing is allocated.
//   * A TraceSession is the RAII on/off guard: construction sizes the
//     rings and enables collection, stop() (or destruction) disables it.
//     Only one session may be active at a time.
//   * capture() snapshots every thread's ring into a time-sorted Capture.
//     It requires the session to be stopped AND the traced threads to be
//     quiescent (joined, or idle outside any Span) — the rings are
//     single-writer, so reading them concurrently with their owner would
//     be a data race.  In practice: destroy (or drain) the Scheduler /
//     Service under trace before capturing, as serve_demo's `--trace`
//     flag does.
//
// Exporters live in trace/export.hpp: Chrome trace-event JSON (loadable
// in Perfetto / chrome://tracing) and an in-process summarizer
// (per-worker utilization, steal counts, critical path).  DESIGN.md §11.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace harmony::trace {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True while a TraceSession is active.  One relaxed load — this is the
/// whole disabled-mode cost of every event site.
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Monotonic (steady-clock) nanoseconds.  All event timestamps share
/// this clock, so intervals measured on different threads compose.
[[nodiscard]] std::uint64_t now_ns();

enum class EventKind : std::uint8_t {
  kSpan,     ///< an interval [begin_ns, end_ns) on one thread
  kCounter,  ///< a sampled value at begin_ns (value in arg0)
};

/// One trace record.  `cat` and `name` must be string literals (or
/// otherwise outlive the session) — the ring stores the pointers.
struct Event {
  const char* cat = nullptr;
  const char* name = nullptr;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  /// Correlation id stitching related events together (0 = none).  The
  /// serving layer uses the request id; the search uses the lane.
  std::uint64_t id = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint32_t tid = 0;
  EventKind kind = EventKind::kSpan;
};

/// Records a completed span with explicit endpoints.  Used directly when
/// the endpoints were measured at different places (e.g. the serving
/// queue-wait span begins on the submitting thread and ends on the
/// worker that starts the request); prefer the RAII Span for
/// same-thread intervals.
void emit_span(const char* cat, const char* name, std::uint64_t begin_ns,
               std::uint64_t end_ns, std::uint64_t id = 0,
               std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

/// Records a counter sample (rendered as a value track in Perfetto).
void emit_counter(const char* cat, const char* name, std::uint64_t value);

/// Names the calling thread in captures and exports ("sched-w3",
/// "serve-router", ...).  Cheap; callable whether or not a session is
/// active (the name outlives sessions).
void set_thread_name(std::string name);

/// Total events dropped by full rings, summed over all threads, since
/// the current (or last) session began.  Safe to call while tracing is
/// live — this is what MetricsSnapshot::trace_dropped reports.
[[nodiscard]] std::uint64_t dropped_total();

/// RAII span: records [construction, destruction) on the calling thread.
/// Disabled-mode cost is the single relaxed load in the constructor.
class Span {
 public:
  explicit Span(const char* cat, const char* name, std::uint64_t id = 0,
                std::uint64_t arg0 = 0, std::uint64_t arg1 = 0)
      : active_(enabled()) {
    if (!active_) return;
    cat_ = cat;
    name_ = name;
    id_ = id;
    arg0_ = arg0;
    arg1_ = arg1;
    begin_ns_ = now_ns();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    // Re-check enabled(): a session stopped mid-span must not record
    // into rings that a capture may be about to read.
    if (active_ && enabled()) {
      emit_span(cat_, name_, begin_ns_, now_ns(), id_, arg0_, arg1_);
    }
  }

  /// Updates the args recorded at span end (e.g. a result discovered
  /// while the span was open).
  void set_args(std::uint64_t arg0, std::uint64_t arg1) {
    arg0_ = arg0;
    arg1_ = arg1;
  }

 private:
  bool active_;
  const char* cat_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t begin_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t arg0_ = 0;
  std::uint64_t arg1_ = 0;
};

/// Per-thread identity in a capture.
struct CapturedThread {
  std::uint32_t tid = 0;
  std::string name;
  std::uint64_t events = 0;   ///< events retained in the capture
  std::uint64_t dropped = 0;  ///< events overwritten by ring wrap
};

/// A snapshot of every thread's ring, merged and time-sorted.
struct Capture {
  std::vector<Event> events;  ///< sorted by (begin_ns, tid)
  std::vector<CapturedThread> threads;
  std::uint64_t dropped = 0;  ///< sum over threads
};

/// Enables tracing for its lifetime.  At most one active at a time.
class TraceSession {
 public:
  /// `events_per_thread` is each ring's capacity; a thread that exceeds
  /// it keeps the newest events and counts the rest as dropped.
  explicit TraceSession(std::size_t events_per_thread = 1u << 14);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Disables event collection.  Idempotent; implied by destruction.
  void stop();

  /// Snapshots all rings.  Requires stop() first, and the traced
  /// threads to be quiescent (see file comment) — enforced for the
  /// session flag, by contract for quiescence.
  [[nodiscard]] Capture capture() const;

 private:
  bool stopped_ = false;
};

}  // namespace harmony::trace

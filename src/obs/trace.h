// Structured tracing: scoped span events over the serve pipeline, the
// Runner lifecycles and deployment/health transitions, exported as
// chrome://tracing (trace_event) JSON loadable in Perfetto.
//
// Design constraints, in order:
//   1. The disabled path must be free. BER_TRACE_SCOPE compiles to a stack
//      object whose constructor is one relaxed atomic load + branch when
//      tracing is off.
//   2. Recording must not serialize worker threads: events append to
//      per-thread buffers (own mutex each, uncontended in steady state);
//      the global lock is only taken when a thread first appears and when
//      the trace is collected.
//
// Spans are "complete" events (ph "X": name, category, thread, start,
// duration, optional args); instants are ph "i". Buffers cap at
// kMaxEventsPerThread events; overflow increments a drop counter instead of
// growing without bound.
//
// Usage:
//   obs::start_tracing();
//   { BER_TRACE_SCOPE("serve", "forward"); ... }
//   BER_TRACE_SCOPE_ARGS("serve", "batch", {"images", n}, {"replica", i});
//   BER_TRACE_INSTANT("health", "trip");
//   obs::write_trace("trace.json");   // or trace_json()
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "core/json.h"

namespace ber::obs {

namespace detail {
extern std::atomic<bool> g_tracing;
}

// True while a trace is being collected. Inline relaxed load: this is the
// whole cost of a disabled BER_TRACE_SCOPE.
inline bool tracing_enabled() {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

// Starts a fresh trace (clears any previous events and re-bases the clock).
void start_tracing();
// Stops recording; collected events stay available to trace_json().
void stop_tracing();

// {"traceEvents": [...], "displayTimeUnit": "ms"} — the chrome://tracing /
// Perfetto JSON object model. Events are sorted by timestamp.
Json trace_json();
// Writes trace_json() to `path` (pretty-printed). Throws on I/O failure.
void write_trace(const std::string& path);

// Spans recorded but discarded because a thread buffer was full. Resets
// with start_tracing(); the cumulative process-wide count is additionally
// mirrored into the registry counter "trace.events_dropped", so a long
// traffic run with tracing on surfaces its truncation in every metrics
// snapshot instead of growing memory without bound.
std::uint64_t trace_events_dropped();

// The per-thread event-buffer bound (events beyond it are dropped).
std::size_t trace_events_capacity();

// Names the calling thread in the trace (chrome "thread_name" metadata).
// Cheap no-op when tracing is off.
void set_thread_name(const std::string& name);

// One span argument; value is numeric or a (static or outliving) C string.
struct TraceArg {
  const char* key;
  double num = 0.0;
  const char* str = nullptr;
  TraceArg(const char* k, double v) : key(k), num(v) {}
  TraceArg(const char* k, long v) : key(k), num(static_cast<double>(v)) {}
  TraceArg(const char* k, int v) : key(k), num(v) {}
  TraceArg(const char* k, std::size_t v)
      : key(k), num(static_cast<double>(v)) {}
  TraceArg(const char* k, const char* v) : key(k), str(v) {}
};

// RAII span. `cat` and `name` must be string literals (or otherwise outlive
// the trace); args are serialized eagerly at construction.
class TraceScope {
 public:
  TraceScope(const char* cat, const char* name) {
    if (tracing_enabled()) begin(cat, name, {});
  }
  TraceScope(const char* cat, const char* name,
             std::initializer_list<TraceArg> args) {
    if (tracing_enabled()) begin(cat, name, args);
  }
  ~TraceScope() {
    if (active_) end();
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  void begin(const char* cat, const char* name,
             std::initializer_list<TraceArg> args);
  void end();

  const char* cat_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t start_us_ = 0;
  std::string args_json_;
  bool active_ = false;
};

// Zero-duration marker event.
void trace_instant(const char* cat, const char* name,
                   std::initializer_list<TraceArg> args = {});

}  // namespace ber::obs

#define BER_TRACE_CONCAT2(a, b) a##b
#define BER_TRACE_CONCAT(a, b) BER_TRACE_CONCAT2(a, b)
#define BER_TRACE_SCOPE(cat, name) \
  ::ber::obs::TraceScope BER_TRACE_CONCAT(ber_trace_scope_, __LINE__)(cat, name)
#define BER_TRACE_SCOPE_ARGS(cat, name, ...)                             \
  ::ber::obs::TraceScope BER_TRACE_CONCAT(ber_trace_scope_, __LINE__)(   \
      cat, name, {__VA_ARGS__})
#define BER_TRACE_INSTANT(cat, name, ...)                              \
  do {                                                                 \
    if (::ber::obs::tracing_enabled()) {                               \
      ::ber::obs::trace_instant(cat, name, {__VA_ARGS__});             \
    }                                                                  \
  } while (0)

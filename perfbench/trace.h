// In-memory span recorder of the traced benchmark run.
//
// Spans are recorded by the benchmark itself around each call into the
// library's public API (open, CreateSession, Run, ParseXPathUnion,
// BeginEdit, the edit ops, Commit, Compact); nothing inside the library
// is instrumented. Each Session::Run span additionally gets children
// placed from the timings its QueryResult reports: one "evaluate" span
// (QueryResult::millis: parse or plan lookup, then the steps) and one
// "step" span per StepTrace, laid flush against the end of the Run. A
// layer's self time is then its spans' duration minus what their
// children cover. The evaluate span's self time is the snapshot pin plus
// parsing and planning, since Session::Run pins inside the time that
// QueryResult::millis covers; the step spans are the kernels (core); the
// Run span's own self time is only the return of the result. Runs are
// flagged by whether they compiled their plan and whether they rebound
// the session to a new snapshot, so the benchmark can tell the pin
// (api) from planning (xpath) by comparing flagged groups.
//
// Each recording thread owns one SpanBuffer, so recording takes no lock;
// spans of one query or one edit transaction share a trace id.

#ifndef SJ_PERFBENCH_TRACE_H_
#define SJ_PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <iterator>
#include <vector>

namespace sjb {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanName : uint8_t {
  kQuery,          ///< one client query: Run plus the answer check
  kRun,            ///< Session::Run
  kEvaluate,       ///< derived: QueryResult::millis
  kStep,           ///< derived: one StepTrace::millis
  kOpen,           ///< Database::FromTable
  kCreateSession,  ///< Database::CreateSession
  kParse,          ///< xpath::ParseXPathUnion
  kTxn,            ///< one edit transaction, BeginEdit through Commit
  kBeginEdit,      ///< Database::BeginEdit
  kEditOp,         ///< InsertLastChild / DeleteSubtree / ReplaceSubtree
  kCommit,         ///< EditTxn::Commit
  kCompact,        ///< Database::Compact
  kCheckRun,       ///< the writer's Session::Run of its own check query
  kCount,
};

inline const char* SpanNameString(SpanName name) {
  static const char* const kNames[] = {
      "query",         "Session::Run",       "evaluate",
      "step",          "Database::FromTable", "Database::CreateSession",
      "ParseXPathUnion", "edit-txn",          "Database::BeginEdit",
      "EditTxn::op",   "EditTxn::Commit",    "Database::Compact",
      "Session::Run(check)"};
  static_assert(std::size(kNames) == static_cast<size_t>(SpanName::kCount));
  return kNames[static_cast<size_t>(name)];
}

/// Span flag: the query compiled its plan (QueryResult::plan_cached was
/// false).
inline constexpr uint8_t kSpanUncached = 1;
/// Span flag: the query's snapshot epoch differed from the session's
/// previous answer, so Run rebound the session before evaluating.
inline constexpr uint8_t kSpanRebind = 2;

struct Span {
  uint64_t trace_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index in the same buffer; -1 for a root
  SpanName name = SpanName::kQuery;
  uint8_t flags = 0;
};

/// The spans of one thread.
class SpanBuffer {
 public:
  /// Opens a span starting now; returns its index for Close/children.
  int32_t Open(SpanName name, int32_t parent, uint64_t trace_id,
               uint8_t flags = 0) {
    return Add({trace_id, NowNs(), 0, parent, name, flags});
  }
  void Close(int32_t index) { spans_[index].end_ns = NowNs(); }
  int32_t Add(const Span& span) {
    spans_.push_back(span);
    return static_cast<int32_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time and count of one span name (optionally one flag value).
struct SelfTime {
  double total_ns = 0;
  uint64_t count = 0;
  double MeanUs() const { return count == 0 ? 0.0 : total_ns / count / 1e3; }
};

/// Owns the per-thread buffers and derives self times from them.
class SpanRecorder {
 public:
  /// A buffer for one thread; stable for the recorder's lifetime.
  SpanBuffer* NewBuffer() { return &buffers_.emplace_back(); }

  /// Self time of every span named `name` whose flags contain
  /// `with_flags` and none of `without_flags`: duration minus the time
  /// its children cover. Children of one span come from the same thread
  /// in sequence and never overlap, so what they cover is the sum of
  /// their clipped durations.
  SelfTime Self(SpanName name, uint8_t with_flags = 0,
                uint8_t without_flags = 0) const {
    SelfTime out;
    std::vector<double> covered;
    for (const SpanBuffer& buffer : buffers_) {
      const std::vector<Span>& spans = buffer.spans();
      covered.assign(spans.size(), 0.0);
      for (const Span& s : spans) {
        if (s.parent < 0) continue;
        const Span& p = spans[s.parent];
        const int64_t lo = std::max(s.start_ns, p.start_ns);
        const int64_t hi = std::min(s.end_ns, p.end_ns);
        if (hi > lo) covered[s.parent] += static_cast<double>(hi - lo);
      }
      for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if (s.name != name || (s.flags & with_flags) != with_flags ||
            (s.flags & without_flags) != 0) {
          continue;
        }
        out.total_ns += static_cast<double>(s.end_ns - s.start_ns) -
                        covered[i];
        ++out.count;
      }
    }
    return out;
  }

  uint64_t SpanCount() const {
    uint64_t n = 0;
    for (const SpanBuffer& b : buffers_) n += b.spans().size();
    return n;
  }

  /// Writes up to `limit` spans as JSON lines (thread, index, trace id,
  /// name, start and end in ns, parent index, flags). Returns false when
  /// the file cannot be written.
  bool WriteJsonLines(const char* path, uint64_t limit) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return false;
    uint64_t written = 0;
    for (size_t t = 0; t < buffers_.size(); ++t) {
      const std::vector<Span>& spans = buffers_[t].spans();
      for (size_t i = 0; i < spans.size() && written < limit;
           ++i, ++written) {
        const Span& s = spans[i];
        std::fprintf(f,
                     "{\"thread\":%zu,\"span\":%zu,\"trace\":%llu,"
                     "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"parent\":%d,\"flags\":%u}\n",
                     t, i, static_cast<unsigned long long>(s.trace_id),
                     SpanNameString(s.name),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns), s.parent,
                     static_cast<unsigned>(s.flags));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  std::deque<SpanBuffer> buffers_;
};

}  // namespace sjb

#endif  // SJ_PERFBENCH_TRACE_H_

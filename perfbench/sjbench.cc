// sjbench: the end-to-end benchmark of the stairjoin library.
//
//   sjbench --workload <serve-resident|scan-paged|update-mix> --seed N
//           --seconds S --trace <0|1> [--spans-out PATH]
//
// Everything goes through the public facade (sj::Database, sj::Session,
// sj::EditTxn); layers are measured from outside, by timing the public
// calls and reading the counters they already return (QueryResult,
// PlanSummary(), DatabaseStats, PoolStats, SimulatedDisk). The seed
// drives the XMark document, the query population, the zipf and scan
// schedules and the edit script. Every answer is compared with a
// reference digest computed before timing (oracle.h).
//
// --trace 0 measures the end-to-end metrics in one untraced window.
// --trace 1 runs an untraced and a traced window of S/2 seconds each and
// reports the per-layer metrics of the traced one (trace.h), the tracing
// overhead, and set-up split by image from extra opens.
//
// Output: one JSON line of run details and provenance, then, as the last
// line, {"correct", "attempted", "failed", "metrics"}.

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "oracle.h"
#include "storage/buffer_pool.h"
#include "trace.h"
#include "util/rng.h"
#include "xmlgen/xmark.h"
#include "xpath/parser.h"

namespace sjb {
namespace {

using sj::Database;
using sj::DatabaseOptions;
using sj::QueryResult;
using sj::Session;
using sj::SessionOptions;
using sj::StorageBackend;

struct WorkloadSpec {
  const char* name;
  double size_mb;     ///< XMark size (MB-equivalents)
  unsigned readers;   ///< closed-loop client sessions
  bool scan;          ///< paged + compressed sessions over ScanChains()
  bool writer;        ///< a scheduled writer commits during the window
  int setup_opens;    ///< opens whose median is setup_s
};

constexpr WorkloadSpec kWorkloads[] = {
    {"serve-resident", 11.0, 4, false, false, 9},
    {"scan-paged", 33.0, 1, true, false, 5},
    {"update-mix", 11.0, 3, false, true, 9},
};

constexpr double kZipfExponent = 1.1;
/// update-mix readers cycle over this many queries from the middle of the
/// population's cost ranking. Odd, so the median falls inside one query's
/// latency cluster rather than in the gap between two.
constexpr size_t kUpdateReaderQueries = 63;
/// The writer's schedule: one commit every period, a compaction after
/// every kCompactEvery commits.
constexpr double kCommitPeriodMs = 5.0;
constexpr int kCompactEvery = 400;
/// <upd> subtrees the writer keeps live (see EditScript::Plan).
constexpr size_t kLiveSubtrees = 16;
/// The writer's own check: every <rec> it inserted and did not remove.
constexpr const char* kCheckQuery = "/descendant::upd/child::rec";
/// Model of the simulated device for storage.modeled_disk_us.
constexpr double kSeekUs = 50.0;
/// Spans written to --spans-out at most (all are kept in memory).
constexpr uint64_t kSpansWritten = 50'000;
/// Traced runs: opens per DatabaseOptions variant of the set-up split.
constexpr int kAblationOpens = 3;
/// Traced windows record spans for one query in k, k chosen from the
/// warm-up's rate so each reader keeps about this many spans.
constexpr double kSpansPerReader = 250'000;

// --- small helpers -----------------------------------------------------------

/// Nearest rank of sorted `v`: the smallest value with at least q of the
/// sample at or below it.
double SortedQuantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return SortedQuantile(v, q);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// One timed operation: how long it took in ns (saturating at 4.29 s)
/// and when it ended, in µs since the start of its window. 8 bytes: a
/// window holds millions.
struct Sample {
  uint32_t ns = 0;
  uint32_t end_us = 0;
};

Sample MakeSample(int64_t start_ns, int64_t end_ns, int64_t window_start_ns) {
  return {static_cast<uint32_t>(
              std::min<int64_t>(end_ns - start_ns, UINT32_MAX)),
          static_cast<uint32_t>((end_ns - window_start_ns) / 1000)};
}

/// Rate and latency percentiles of a window, each the median over equal
/// time slices of the window. Slices hold about 1000 samples each (at
/// most 10 slices), so every slice has 10 samples beyond its p99; the
/// median over slices keeps a short stall elsewhere on the machine from
/// moving the figure.
struct SliceSummary {
  double rate = 0;
  double p50 = 0;
  double p99 = 0;
  size_t slices = 0;
  size_t beyond_p99 = 0;  ///< samples above p99 in the smallest slice
};

SliceSummary Summarize(const std::vector<const std::vector<Sample>*>& parts,
                       double seconds) {
  SliceSummary out;
  size_t n = 0;
  for (const std::vector<Sample>* part : parts) n += part->size();
  if (n == 0 || !(seconds > 0)) return out;
  const size_t k = std::clamp<size_t>(n / 1000, 1, 10);
  const double slice_us = seconds * 1e6 / k;
  std::vector<std::vector<double>> slices(k);
  for (const std::vector<Sample>* part : parts) {
    for (const Sample& s : *part) {
      slices[std::min(k - 1, static_cast<size_t>(s.end_us / slice_us))]
          .push_back(s.ns / 1e6);
    }
  }
  std::vector<double> rate, p50, p99;
  size_t min_slice = n;
  for (std::vector<double>& slice : slices) {
    std::sort(slice.begin(), slice.end());
    min_slice = std::min(min_slice, slice.size());
    rate.push_back(slice.size() / (slice_us / 1e6));
    p50.push_back(SortedQuantile(slice, 0.50));
    p99.push_back(SortedQuantile(slice, 0.99));
  }
  const size_t beyond =
      min_slice - static_cast<size_t>(std::ceil(0.99 * min_slice));
  return {Median(rate), Median(p50), Median(p99), k, beyond};
}

/// Resident set of the process once the allocator has returned its free
/// pages: what stays resident for the data still alive. (The peak is not
/// used: whether the allocator kept freed set-up memory varies from run
/// to run by a third.)
double RssMb() {
  malloc_trim(0);
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  const bool ok = std::fscanf(f, "%ld %ld", &pages, &resident) == 2;
  std::fclose(f);
  return ok ? resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20)
            : 0;
}

/// A JSON number: the shortest text that reads back as `v`.
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

std::vector<double> ZipfCdf(size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

/// 0..n-1 in an order drawn by `rng`.
std::vector<size_t> Shuffled(size_t n, sj::Rng& rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Below(i)]);
  return order;
}

size_t DrawZipf(const std::vector<double>& cdf, sj::Rng& rng) {
  const double u = rng.NextDouble();
  const size_t i = static_cast<size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  return std::min(i, cdf.size() - 1);
}

/// Moves the calling thread to the next CPU it may run on, in turn, at
/// most every quarter second; restores the full set on destruction. A
/// single-threaded phase that ticks it spreads over every core instead of
/// sitting on the one the scheduler picked: on a shared host, one core
/// can run a third slower than another for minutes at a time.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (pthread_getaffinity_np(pthread_self(), sizeof(all_), &all_) != 0) {
      return;
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) {
      pthread_setaffinity_np(pthread_self(), sizeof(all_), &all_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Tick() {
    const int64_t now = NowNs();
    if (cpus_.size() < 2 || now < next_ns_) return;
    next_ns_ = now + 250'000'000;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  size_t turn_ = 0;
  int64_t next_ns_ = 0;
};

// --- storage counters -------------------------------------------------------

/// Buffer-pool and disk counters, summed or differenced.
struct Io {
  uint64_t pins = 0, hits = 0, faults = 0, evictions = 0, prefetched = 0;
  uint64_t reads = 0, batch_reads = 0;

  static Io Read(const sj::DatabaseImages& images) {
    Io io;
    if (images.pool != nullptr) {
      const sj::storage::PoolStats s = images.pool->stats();
      io = {s.pins, s.hits, s.faults, s.evictions, s.prefetched, 0, 0};
    }
    if (images.disk != nullptr) {
      io.reads = images.disk->reads();
      io.batch_reads = images.disk->batch_reads();
    }
    return io;
  }
  Io operator-(const Io& o) const {
    return {pins - o.pins,           hits - o.hits,
            faults - o.faults,       evictions - o.evictions,
            prefetched - o.prefetched, reads - o.reads,
            batch_reads - o.batch_reads};
  }
  Io& operator+=(const Io& o) {
    pins += o.pins, hits += o.hits, faults += o.faults;
    evictions += o.evictions, prefetched += o.prefetched;
    reads += o.reads, batch_reads += o.batch_reads;
    return *this;
  }
  /// Device time under a fixed latency model: a seek per single-page
  /// read and per batched request, plus seek / kBatchTransferDivisor per
  /// further page of a batch. Prefetched pages are the batched ones.
  double ModeledUs() const {
    const double batched_pages = static_cast<double>(prefetched);
    const double single = static_cast<double>(reads) - batched_pages;
    const double extra = batched_pages - static_cast<double>(batch_reads);
    return kSeekUs * (single + static_cast<double>(batch_reads)) +
           kSeekUs / sj::storage::kBatchTransferDivisor * std::max(0.0, extra);
  }
};

/// Pool/disk deltas of the served database over a window. Compaction
/// publishes new images (a new pool and disk); the writer folds the old
/// images' delta in before compacting and re-arms on the new ones, so the
/// pins of the rebuild itself are not charged to queries.
class IoWatch {
 public:
  explicit IoWatch(const Database& db) { Arm(db); }
  void Arm(const Database& db) {
    snap_ = db.CurrentSnapshot();
    start_ = Io::Read(snap_->images());
  }
  void Fold() {
    total_ += Io::Read(snap_->images()) - start_;
    start_ = Io::Read(snap_->images());
  }
  Io Total() {
    Fold();
    return total_;
  }

 private:
  std::shared_ptr<const sj::DatabaseSnapshot> snap_;
  Io start_;
  Io total_;
};

// --- the writer's edit script ------------------------------------------------

/// The writer's model of its own edits: <upd> subtrees of <rec/>
/// children, appended as last children of the document element (so they
/// follow every original node and leave every original rank in place),
/// later deleted or replaced. Coordinates are logical pre ranks of the
/// working state: live subtree i starts at base_size + the sizes of the
/// live subtrees before it.
class EditScript {
 public:
  struct Op {
    enum Kind { kInsert, kDelete, kReplace } kind = kInsert;
    sj::NodeId pre = 0;
    std::string xml;
  };

  EditScript(uint64_t seed, uint64_t base_size)
      : rng_(seed ^ 0x5eed0fed17ULL), base_size_(base_size) {}

  /// The next commit's ops; the model moves only on Adopt().
  /// Every commit inserts one subtree, replaces a random live one and,
  /// once kLiveSubtrees are live, deletes a random one: the same op mix
  /// each time, so commit latency has one mode rather than one per mix.
  std::vector<Op> Plan() {
    pending_ = live_;
    std::vector<Op> ops;
    const auto recs = [this] {
      return 1 + static_cast<uint32_t>(rng_.Below(3));
    };
    ops.push_back({Op::kInsert, 0, Fragment(pending_.emplace_back(recs()))});
    const size_t replaced = rng_.Below(pending_.size());
    pending_[replaced] = recs();
    ops.push_back(
        {Op::kReplace, PreOf(replaced), Fragment(pending_[replaced])});
    if (pending_.size() > kLiveSubtrees) {
      const size_t deleted = rng_.Below(pending_.size());
      ops.push_back({Op::kDelete, PreOf(deleted), ""});
      pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(deleted));
    }
    return ops;
  }
  void Adopt() { live_ = pending_; }
  uint64_t expected_recs() const {
    uint64_t n = 0;
    for (uint32_t r : live_) n += r;
    return n;
  }

 private:
  sj::NodeId PreOf(size_t index) const {
    uint64_t pre = base_size_;
    for (size_t i = 0; i < index; ++i) pre += 1 + pending_[i];
    return static_cast<sj::NodeId>(pre);
  }
  static std::string Fragment(uint32_t recs) {
    std::string xml = "<upd>";
    for (uint32_t i = 0; i < recs; ++i) xml += "<rec/>";
    return xml + "</upd>";
  }

  sj::Rng rng_;
  uint64_t base_size_;
  std::vector<uint32_t> live_;     ///< <rec> counts of committed subtrees
  std::vector<uint32_t> pending_;  ///< the same, as planned
};

// --- tallies ----------------------------------------------------------------

/// What one reader thread saw in a window.
struct ReadTally {
  int64_t start_ns = 0;  ///< the window's start
  std::vector<Sample> latency;
  uint64_t ok = 0, wrong = 0, failed = 0;
  uint64_t rebinds = 0;  ///< answers from a newer snapshot than the last
  // Traced windows only, over the traced (sampled) queries.
  uint64_t sampled = 0;
  uint64_t cached = 0, accessed = 0, skipped = 0, result = 0, delta_nodes = 0;
  std::vector<double> q_errors;
  Io io[2];               ///< scan-paged: per backend (paged, compressed)
  uint64_t io_queries[2] = {0, 0};

  /// Adds `o`'s counters; its samples stay with `o`.
  void Merge(const ReadTally& o) {
    ok += o.ok, wrong += o.wrong, failed += o.failed;
    rebinds += o.rebinds;
    sampled += o.sampled;
    cached += o.cached, accessed += o.accessed, skipped += o.skipped;
    result += o.result;
    delta_nodes += o.delta_nodes;
    q_errors.insert(q_errors.end(), o.q_errors.begin(), o.q_errors.end());
    for (int b = 0; b < 2; ++b) {
      io[b] += o.io[b];
      io_queries[b] += o.io_queries[b];
    }
  }
};

/// What the writer did.
struct WriteTally {
  std::vector<Sample> commit;   ///< BeginEdit..Commit from the due time
  std::vector<double> late_ms;  ///< how late each scheduled commit began
  std::vector<double> compact_ms;
  uint64_t commits = 0, failed = 0, wrong = 0;
  double seconds = 0;
  double busy_s = 0;  ///< summed BeginEdit..Commit time
};

struct Window {
  double seconds = 0;
  std::vector<ReadTally> readers;  ///< per reader thread, with samples
  ReadTally reads;                 ///< their counters, summed
  uint64_t queries = 0;
  WriteTally writes;
  sj::DatabaseStats before, after;
  Io io;
};

struct Reader {
  std::vector<Session> sessions;  ///< memory; or paged + compressed
  sj::Rng rng{0};
  uint64_t issued = 0;
  /// scan-paged and update-mix: the current cycle of the schedule, per
  /// session (see RunOne).
  std::vector<size_t> cycle[2];
  /// The snapshot epoch each session's last answer came from: a new one
  /// means Run rebound the session.
  uint64_t epoch[2] = {0, 0};
};

// --- the benchmark -----------------------------------------------------------

class Bench {
 public:
  Bench(const WorkloadSpec& spec, uint64_t seed, double seconds, bool trace,
        std::string spans_out)
      : spec_(spec),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        spans_out_(std::move(spans_out)) {}

  int Main();

 private:
  bool Setup();
  bool Warmup();
  Window RunWindow(double seconds, bool traced, bool writer);
  void ReaderLoop(Reader& reader, int64_t deadline_ns, ReadTally& tally,
                  SpanBuffer* spans, uint64_t trace_base);
  void RunOne(Reader& reader, ReadTally& tally, SpanBuffer* spans,
              uint64_t trace_id);
  void WriterLoop(int64_t start_ns, int64_t deadline_ns, WriteTally& tally,
                  IoWatch& io, SpanBuffer* spans);
  bool Commit(SpanBuffer* spans, uint64_t trace_id, WriteTally& tally);
  double TimedOpen(const DatabaseOptions& options,
                   std::unique_ptr<Database>* keep);
  void Fail(const std::string& why) {
    std::fprintf(stderr, "sjbench: %s\n", why.c_str());
    errors_.push_back(why);
  }

  const WorkloadSpec& spec_;
  uint64_t seed_;
  double seconds_;
  bool trace_;
  std::string spans_out_;

  std::unique_ptr<sj::DocTable> base_;  ///< the generated input (set-up)
  size_t doc_nodes_ = 0;
  std::unique_ptr<Database> db_;
  std::vector<QuerySpec> queries_;  ///< ranked (zipf rank = index)
  std::vector<double> cdf_;
  std::vector<Reader> readers_;
  std::unique_ptr<EditScript> script_;
  std::optional<Session> writer_session_;
  SpanRecorder recorder_;
  SpanBuffer* main_spans_ = nullptr;
  std::vector<std::string> errors_;

  std::vector<double> setup_s_;
  /// Traced runs: median open time with the tag index, the paged or the
  /// compressed image switched off.
  double setup_without_[3] = {0, 0, 0};
  double disk_bytes_per_node_ = 0;
  uint64_t warmup_wrong_ = 0;
  /// Scheduled commits so far; compaction cadence runs across windows.
  uint64_t writer_commits_ = 0;
  /// Traced windows trace one query in this many (see kSpansPerReader).
  uint64_t trace_every_ = 1;
  double warmup_s_ = 0;
  size_t naive_refs_ = 0;
};

double Bench::TimedOpen(const DatabaseOptions& options,
                        std::unique_ptr<Database>* keep) {
  auto copy = std::make_unique<sj::DocTable>(*base_);
  const int32_t span =
      main_spans_ ? main_spans_->Open(SpanName::kOpen, -1, 0) : -1;
  const int64_t t0 = NowNs();
  auto db = Database::FromTable(std::move(copy), options);
  const double s = (NowNs() - t0) / 1e9;
  if (main_spans_) main_spans_->Close(span);
  if (!db.ok()) {
    Fail("open failed: " + db.status().ToString());
    return 0;
  }
  if (keep != nullptr) *keep = std::move(db).value();
  return s;
}

bool Bench::Setup() {
  if (trace_) main_spans_ = recorder_.NewBuffer();
  sj::xmlgen::XMarkOptions gen;
  gen.size_mb = spec_.size_mb;
  gen.seed = seed_;
  gen.rich_text = false;
  sj::BuildOptions build;
  build.store_values = false;
  auto doc = sj::xmlgen::GenerateXMarkDocument(gen, build);
  if (!doc.ok()) {
    Fail("document generation failed: " + doc.status().ToString());
    return false;
  }
  base_ = std::move(doc).value();

  // Set-up time: Database::FromTable with default DatabaseOptions. The
  // last open is the database every query of the run is served from.
  const DatabaseOptions defaults;
  const int opens = trace_ ? kAblationOpens : spec_.setup_opens;
  for (int i = 0; i < opens; ++i) {
    db_.reset();
    setup_s_.push_back(TimedOpen(defaults, &db_));
  }
  if (db_ == nullptr) return false;
  if (trace_) {
    // Per-image set-up: the same open with one image switched off.
    for (int i = 0; i < 3; ++i) {
      DatabaseOptions without = defaults;
      (i == 0 ? without.build_tag_index
              : i == 1 ? without.build_paged : without.build_compressed) =
          false;
      std::vector<double> times;
      for (int k = 0; k < kAblationOpens; ++k) {
        times.push_back(TimedOpen(without, nullptr));
      }
      setup_without_[i] = Median(times);
    }
  }
  disk_bytes_per_node_ =
      static_cast<double>(db_->disk()->page_count() * sj::storage::kPageSize) /
      static_cast<double>(db_->doc().size());
  // The generated input is no longer needed once the database is open.
  doc_nodes_ = base_->size();
  base_.reset();

  // Query population and reference answers.
  queries_ = spec_.scan ? ScanChains() : DrawServePopulation(db_->doc(), seed_);
  for (const std::string& m : BuildReferences(*db_, &queries_)) {
    Fail("reference mismatch: " + m);
  }
  RankByWork(&queries_);
  if (spec_.writer) {
    // Neighbours in cost from the middle of the ranking: every one does
    // real work through the overlay, and their costs lie close together,
    // so the percentiles do not hang on one seed-chosen string.
    const size_t n = std::min(queries_.size(), kUpdateReaderQueries);
    const auto from = queries_.begin() +
                      static_cast<ptrdiff_t>((queries_.size() - n) / 2);
    queries_ = std::vector<QuerySpec>(from, from + static_cast<ptrdiff_t>(n));
  }
  for (const QuerySpec& q : queries_) naive_refs_ += q.naive_oracle;
  cdf_ = ZipfCdf(queries_.size(), kZipfExponent);

  // Traced runs: parse cost of this workload's distinct strings, over
  // 50 ms of repeated passes.
  const int64_t parse_start = NowNs();
  while (trace_ && NowNs() - parse_start < 50'000'000) {
    for (const QuerySpec& q : queries_) {
      const int32_t span = main_spans_->Open(SpanName::kParse, -1, 0);
      auto parsed = sj::xpath::ParseXPathUnion(q.text);
      main_spans_->Close(span);
      if (!parsed.ok()) Fail("parse failed: " + q.text);
    }
  }

  // Reader sessions; traced runs also time a batch of extra creations.
  const auto create = [this](const SessionOptions& options) {
    const int32_t span =
        main_spans_ ? main_spans_->Open(SpanName::kCreateSession, -1, 0) : -1;
    auto s = db_->CreateSession(options);
    if (main_spans_) main_spans_->Close(span);
    if (!s.ok()) Fail("CreateSession failed: " + s.status().ToString());
    return s;
  };
  readers_.resize(spec_.readers);
  for (unsigned i = 0; i < spec_.readers; ++i) {
    Reader& r = readers_[i];
    r.rng = sj::Rng(seed_ * 1000003 + i);
    std::vector<StorageBackend> backends = {StorageBackend::kMemory};
    if (spec_.scan) {
      backends = {StorageBackend::kPaged, StorageBackend::kCompressed};
    }
    for (StorageBackend b : backends) {
      SessionOptions options;
      options.backend = b;
      auto s = create(options);
      if (!s.ok()) return false;
      r.sessions.push_back(std::move(s).value());
    }
  }
  if (trace_) {
    for (int i = 0; i < 200; ++i) (void)create(SessionOptions{});
  }
  auto ws = db_->CreateSession(SessionOptions{});
  if (!ws.ok()) return false;
  writer_session_.emplace(std::move(ws).value());
  script_ = std::make_unique<EditScript>(seed_, db_->doc().size());
  return errors_.empty();
}

void Bench::RunOne(Reader& reader, ReadTally& tally, SpanBuffer* spans,
                   uint64_t trace_id) {
  size_t which = 0;  // session index: scan alternates paged / compressed
  const QuerySpec* q = nullptr;
  if (spec_.scan) {
    // One cycle runs every chain on the paged session and all but the
    // last on the compressed one, alternating, each in a fresh seeded
    // order. Every pair thus gets the same share of the window, and the
    // cycle's odd length puts the median inside one pair's latency
    // cluster instead of in the gap between two.
    const size_t n = queries_.size();
    const size_t at = reader.issued % (2 * n - 1);
    if (at == 0) {
      reader.cycle[0] = Shuffled(n, reader.rng);
      reader.cycle[1] = Shuffled(n - 1, reader.rng);
    }
    which = at % 2;
    q = &queries_[reader.cycle[which][at / 2]];
  } else if (spec_.writer) {
    // Every query once per cycle, in a fresh seeded order: each gets the
    // same share of the window whatever the seed's population.
    const size_t at = reader.issued % queries_.size();
    if (at == 0) reader.cycle[0] = Shuffled(queries_.size(), reader.rng);
    q = &queries_[reader.cycle[0][at]];
  } else {
    q = &queries_[DrawZipf(cdf_, reader.rng)];
  }
  Session& session = reader.sessions[which];
  if (reader.issued++ % trace_every_ != 0) spans = nullptr;

  const int32_t root = spans ? spans->Open(SpanName::kQuery, -1, trace_id) : -1;
  // With one reader, the pool and disk deltas around a Run are exactly
  // that query's I/O.
  const bool per_query_io = spans != nullptr && spec_.scan;
  const std::shared_ptr<const sj::DatabaseSnapshot> snap =
      per_query_io ? db_->CurrentSnapshot() : nullptr;
  const Io io_before = per_query_io ? Io::Read(snap->images()) : Io{};

  const int64_t t0 = NowNs();
  auto res = session.Run(q->text);
  const int64_t t1 = NowNs();
  tally.latency.push_back(MakeSample(t0, t1, tally.start_ns));
  bool rebind = false;
  if (!res.ok()) {
    ++tally.failed;
  } else {
    if (DigestOf(res.value().nodes) == q->expect) {
      ++tally.ok;
    } else {
      ++tally.wrong;
    }
    rebind = res.value().snapshot_epoch != reader.epoch[which];
    reader.epoch[which] = res.value().snapshot_epoch;
    tally.rebinds += rebind;
  }
  if (spans == nullptr) return;

  if (per_query_io) {
    tally.io[which] += Io::Read(snap->images()) - io_before;
    ++tally.io_queries[which];
  }
  ++tally.sampled;
  if (res.ok()) {
    const QueryResult& r = res.value();
    const uint8_t flags = static_cast<uint8_t>(
        (r.plan_cached ? 0 : kSpanUncached) | (rebind ? kSpanRebind : 0));
    const int32_t run =
        spans->Add({trace_id, t0, t1, root, SpanName::kRun, flags});
    // Derived children, flush against the end of the Run.
    const int64_t eval_ns =
        std::min<int64_t>(t1 - t0, static_cast<int64_t>(r.millis * 1e6));
    const int32_t eval = spans->Add(
        {trace_id, t1 - eval_ns, t1, run, SpanName::kEvaluate, flags});
    int64_t steps_ns = 0;
    for (const sj::StepTrace& st : r.trace) {
      steps_ns += static_cast<int64_t>(st.millis * 1e6);
    }
    int64_t at = t1 - std::min(steps_ns, eval_ns);
    for (const sj::StepTrace& st : r.trace) {
      const int64_t ns =
          std::min(static_cast<int64_t>(st.millis * 1e6), t1 - at);
      spans->Add({trace_id, at, at + ns, eval, SpanName::kStep, flags});
      at += ns;
    }
    tally.cached += r.plan_cached;
    tally.accessed += r.totals.nodes_accessed();
    tally.skipped += r.totals.nodes_skipped;
    tally.result += r.nodes.size();
    tally.delta_nodes += r.snapshot_delta_nodes;
    for (const sj::PlanStepSummary& row : r.PlanSummary()) {
      const double est = std::max<double>(1, row.estimated_rows);
      const double act = std::max<double>(1, row.actual_rows);
      tally.q_errors.push_back(std::max(est / act, act / est));
    }
  }
  spans->Close(root);
}

void Bench::ReaderLoop(Reader& reader, int64_t deadline_ns, ReadTally& tally,
                       SpanBuffer* spans, uint64_t trace_base) {
  // A lone reader rotates over the cores; several readers cover them.
  std::optional<CpuRotation> rotation;
  if (readers_.size() == 1) rotation.emplace();
  uint64_t n = 0;
  while (NowNs() < deadline_ns) {
    if (rotation) rotation->Tick();
    RunOne(reader, tally, spans, trace_base + ++n);
  }
}

bool Bench::Commit(SpanBuffer* spans, uint64_t trace_id, WriteTally& tally) {
  const auto open = [&](SpanName name, int32_t parent) {
    return spans ? spans->Open(name, parent, trace_id) : -1;
  };
  const auto close = [&](int32_t span) {
    if (spans) spans->Close(span);
  };
  const std::vector<EditScript::Op> ops = script_->Plan();
  const int32_t txn_span = open(SpanName::kTxn, -1);
  int32_t span = open(SpanName::kBeginEdit, txn_span);
  sj::EditTxn txn = db_->BeginEdit();
  close(span);
  bool ok = true;
  for (const EditScript::Op& op : ops) {
    span = open(SpanName::kEditOp, txn_span);
    const sj::Status st =
        op.kind == EditScript::Op::kInsert   ? txn.InsertLastChild(0, op.xml)
        : op.kind == EditScript::Op::kDelete ? txn.DeleteSubtree(op.pre)
                                     : txn.ReplaceSubtree(op.pre, op.xml);
    close(span);
    if (!st.ok()) {
      Fail("edit op failed: " + st.ToString());
      ok = false;
      break;
    }
  }
  if (ok) {
    span = open(SpanName::kCommit, txn_span);
    const sj::Status st = txn.Commit();
    close(span);
    if (!st.ok()) {
      Fail("commit failed: " + st.ToString());
      ok = false;
    }
  }
  close(txn_span);
  ++tally.commits;
  if (!ok) {
    ++tally.failed;
    return false;
  }
  script_->Adopt();
  return true;
}

/// Checks the writer's own inserts after a commit.
void CheckWrites(Session& session, const EditScript& script, SpanBuffer* spans,
                 WriteTally& tally) {
  const int32_t span = spans ? spans->Open(SpanName::kCheckRun, -1, 0) : -1;
  auto r = session.Run(kCheckQuery);
  if (spans) spans->Close(span);
  if (!r.ok() || r.value().nodes.size() != script.expected_recs()) {
    ++tally.wrong;
  }
}

void Bench::WriterLoop(int64_t start_ns, int64_t deadline_ns,
                       WriteTally& tally, IoWatch& io, SpanBuffer* spans) {
  const int64_t period_ns = static_cast<int64_t>(kCommitPeriodMs * 1e6);
  for (int64_t k = 0;; ++k) {
    const int64_t due = start_ns + k * period_ns;
    if (due >= deadline_ns) break;
    ++writer_commits_;
    while (NowNs() < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
    }
    const int64_t begin = NowNs();
    const bool ok = Commit(spans, (1ULL << 62) + writer_commits_, tally);
    const int64_t end = NowNs();
    tally.busy_s += (end - begin) / 1e9;
    tally.commit.push_back(MakeSample(due, end, start_ns));
    tally.late_ms.push_back((begin - due) / 1e6);
    if (ok) CheckWrites(*writer_session_, *script_, spans, tally);
    if (writer_commits_ % kCompactEvery == 0) {
      io.Fold();
      const int32_t span =
          spans ? spans->Open(SpanName::kCompact, -1, 0) : -1;
      const int64_t c0 = NowNs();
      const sj::Status st = db_->Compact();
      tally.compact_ms.push_back((NowNs() - c0) / 1e6);
      if (spans) spans->Close(span);
      io.Arm(*db_);
      if (!st.ok()) {
        Fail("compact failed: " + st.ToString());
        ++tally.failed;
      }
    }
  }
  tally.seconds = (deadline_ns - start_ns) / 1e9;
}

Window Bench::RunWindow(double seconds, bool traced, bool writer) {
  Window w;
  w.readers.resize(readers_.size());
  std::vector<SpanBuffer*> buffers(readers_.size() + 1, nullptr);
  if (traced) {
    for (SpanBuffer*& b : buffers) b = recorder_.NewBuffer();
  }
  IoWatch io(*db_);
  w.before = db_->TotalStats();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < readers_.size(); ++i) {
    w.readers[i].start_ns = start;
    threads.emplace_back([&, i] {
      ReaderLoop(readers_[i], deadline, w.readers[i], buffers[i],
                 (static_cast<uint64_t>(i) + 1) << 40);
    });
  }
  if (writer) {
    threads.emplace_back([&] {
      WriterLoop(start, deadline, w.writes, io, buffers.back());
    });
  }
  for (std::thread& t : threads) t.join();
  w.seconds = (NowNs() - start) / 1e9;
  w.after = db_->TotalStats();
  w.io = io.Total();
  for (const ReadTally& t : w.readers) {
    w.reads.Merge(t);
    w.queries += t.latency.size();
  }
  return w;
}

bool Bench::Warmup() {
  // Every distinct query once per reader (compiles every plan, faults
  // every page), then closed-loop slices until throughput settles: two
  // consecutive half-second slices within 5%.
  const int64_t start = NowNs();
  for (Reader& r : readers_) {
    for (Session& s : r.sessions) {
      for (const QuerySpec& q : queries_) {
        auto res = s.Run(q.text);
        if (!res.ok() || !(DigestOf(res.value().nodes) == q.expect)) {
          ++warmup_wrong_;
        }
      }
    }
  }
  double last_qps = 0;
  for (int slice = 0; slice < 8; ++slice) {
    const Window w = RunWindow(0.5, false, false);
    warmup_wrong_ += w.reads.wrong + w.reads.failed;
    const double qps = w.queries / w.seconds;
    if (slice >= 1 && std::abs(qps - last_qps) <= 0.05 * last_qps) break;
    last_qps = qps;
  }
  // A traced query records about four spans.
  const double per_reader = last_qps * seconds_ / 2 / readers_.size();
  trace_every_ = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(4 * per_reader / kSpansPerReader)));
  warmup_s_ = (NowNs() - start) / 1e9;
  if (warmup_wrong_ != 0) Fail("wrong or failed answers during warm-up");
  return warmup_wrong_ == 0;
}

// --- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// A flat JSON object built field by field from raw JSON values.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + raw;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// A JSON string literal (the benchmark's own names: nothing to escape).
std::string Str(const std::string& s) { return "\"" + s + "\""; }

/// The snapshot pin of a rebinding Run: the evaluate self time of runs
/// flagged kSpanRebind beyond the mean of runs that did not rebind and
/// agree on kSpanUncached (a rebind drops the session's plan memo, so
/// most rebinding runs also plan). 0 when no run rebound.
double PinUs(const SpanRecorder& recorder) {
  double excess_ns = 0;
  uint64_t rebinds = 0;
  for (const uint8_t uncached : {uint8_t{0}, kSpanUncached}) {
    const uint8_t other = uncached ^ kSpanUncached;
    const SelfTime rebind = recorder.Self(
        SpanName::kEvaluate, kSpanRebind | uncached, other);
    const SelfTime plain = recorder.Self(SpanName::kEvaluate, uncached,
                                         kSpanRebind | other);
    if (rebind.count == 0 || plain.count == 0) continue;
    excess_ns += rebind.total_ns -
                 rebind.count * (plain.total_ns / plain.count);
    rebinds += rebind.count;
  }
  return Ratio(excess_ns / 1e3, rebinds);
}

void AddStorage(std::vector<Metric>* m, const std::string& prefix,
                const Io& io, uint64_t queries) {
  const double q = static_cast<double>(queries);
  m->push_back({prefix + "pins_per_query", Ratio(io.pins, q), "count"});
  m->push_back({prefix + "hit_ratio", Ratio(io.hits, io.pins), "ratio"});
  m->push_back({prefix + "faults_per_query", Ratio(io.faults, q), "count"});
  m->push_back(
      {prefix + "evictions_per_query", Ratio(io.evictions, q), "count"});
  m->push_back(
      {prefix + "prefetched_per_query", Ratio(io.prefetched, q), "count"});
  m->push_back({prefix + "disk_reads_per_query", Ratio(io.reads, q), "count"});
  m->push_back({prefix + "disk_batch_reads_per_query",
                Ratio(io.batch_reads, q), "count"});
  m->push_back({prefix + "modeled_disk_us", Ratio(io.ModeledUs(), q), "us"});
}

int Bench::Main() {
  const int64_t t_start = NowNs();
  bool ok = Setup();
  const double setup_phase_s = (NowNs() - t_start) / 1e9;
  // Resident set of the served database with its images and sessions,
  // read before the readers run: their per-thread allocator arenas and
  // per-query samples would add noise and the benchmark's own memory.
  const double rss_mb = RssMb();
  if (ok) ok = Warmup();

  Window untraced, traced;
  if (ok) {
    untraced = RunWindow(trace_ ? seconds_ / 2 : seconds_, false, spec_.writer);
    if (trace_) traced = RunWindow(seconds_ / 2, true, spec_.writer);
  }
  const WriteTally& writes = (trace_ ? traced : untraced).writes;

  // Set-up failures (a reference mismatch is a wrong answer of the
  // engine) count once each; window failures are in the tallies.
  uint64_t attempted = 0, failed = ok ? 0 : std::max<size_t>(errors_.size(), 1);
  for (const Window* w : {&untraced, &traced}) {
    attempted += w->queries + w->writes.commits;
    failed += w->reads.wrong + w->reads.failed + w->writes.failed +
              w->writes.wrong;
  }
  const bool correct = ok && failed == 0 && errors_.empty();

  std::vector<const std::vector<Sample>*> parts;
  for (const ReadTally& t : untraced.readers) parts.push_back(&t.latency);
  const SliceSummary reads = Summarize(parts, untraced.seconds);
  const SliceSummary commits = Summarize({&writes.commit}, writes.seconds);
  std::vector<Metric> m;
  if (!trace_) {
    m.push_back({"setup_s", Median(setup_s_), "s"});
    m.push_back({"query_p50_ms", reads.p50, "ms"});
    m.push_back({"query_p99_ms", reads.p99, "ms"});
    m.push_back({"throughput_qps", reads.rate, "1/s"});
    m.push_back({"disk_bytes_per_node", disk_bytes_per_node_, "B"});
    m.push_back({"rss_mb", rss_mb, "MB"});
  } else {
    const ReadTally& r = traced.reads;
    const double queries = static_cast<double>(traced.queries);
    const double sampled = static_cast<double>(r.sampled);
    const sj::DatabaseStats& a = traced.after;
    const sj::DatabaseStats& b = traced.before;
    m.push_back({"api.pin_us", PinUs(recorder_), "us"});
    m.push_back({"api.plan_cache_hit_ratio", Ratio(r.cached, sampled),
                 "ratio"});
    m.push_back({"api.plan_cache_evictions_per_query",
                 Ratio(a.plan_cache_evictions - b.plan_cache_evictions,
                       queries),
                 "count"});
    m.push_back({"api.rebinds_per_query", Ratio(r.rebinds, queries), "count"});
    m.push_back({"api.create_session_us",
                 recorder_.Self(SpanName::kCreateSession).MeanUs(), "us"});
    m.push_back({"xpath.parse_us", recorder_.Self(SpanName::kParse).MeanUs(),
                 "us"});
    m.push_back(
        {"xpath.plan_us",
         recorder_.Self(SpanName::kEvaluate, kSpanUncached, kSpanRebind)
             .MeanUs(),
         "us"});
    m.push_back({"xpath.q_error_p95", Quantile(r.q_errors, 0.95), "ratio"});
    m.push_back({"core.step_ms",
                 Ratio(recorder_.Self(SpanName::kStep).total_ns / 1e6,
                       sampled),
                 "ms"});
    m.push_back({"core.nodes_accessed_per_result",
                 Ratio(r.accessed, r.result), "ratio"});
    m.push_back({"core.skip_ratio",
                 Ratio(r.skipped, r.skipped + r.accessed), "ratio"});
    AddStorage(&m, "storage.", traced.io, traced.queries);
    AddStorage(&m, "storage.paged.", r.io[0], r.io_queries[0]);
    AddStorage(&m, "storage.compressed.", r.io[1], r.io_queries[1]);
    m.push_back({"delta.commit_p50_ms", commits.p50, "ms"});
    m.push_back({"delta.commit_p99_ms", commits.p99, "ms"});
    m.push_back({"delta.edit_op_us", recorder_.Self(SpanName::kEditOp).MeanUs(),
                 "us"});
    m.push_back({"delta.compact_ms", Quantile(writes.compact_ms, 0.5), "ms"});
    m.push_back({"delta.delta_nodes_mean", Ratio(r.delta_nodes, sampled),
                 "count"});
    m.push_back({"delta.commits_per_s", Ratio(writes.commits, writes.busy_s),
                 "1/s"});
    const double full = Median(setup_s_);
    m.push_back({"setup.tag_index_s", full - setup_without_[0], "s"});
    m.push_back({"setup.paged_s", full - setup_without_[1], "s"});
    m.push_back({"setup.compressed_s", full - setup_without_[2], "s"});
    const double qps_untraced =
        Ratio(untraced.queries, untraced.seconds);
    const double qps_traced = Ratio(queries, traced.seconds);
    m.push_back({"trace.untraced_qps", qps_untraced, "1/s"});
    m.push_back({"trace.traced_qps", qps_traced, "1/s"});
    m.push_back({"trace.overhead_pct",
                 100.0 * Ratio(qps_untraced - qps_traced, qps_untraced), "%"});
  }

  // Run details and provenance (one line), then the result line.
  const DatabaseOptions o;
  const auto flag = [](bool b) { return std::string(b ? "true" : "false"); };
  const auto late_max =
      writes.late_ms.empty()
          ? 0.0
          : *std::max_element(writes.late_ms.begin(), writes.late_ms.end());
  JsonObject options;
  options.Add("build_tag_index", flag(o.build_tag_index))
      .Add("build_paged", flag(o.build_paged))
      .Add("build_compressed", flag(o.build_compressed))
      .Add("pool_pages", Num(o.pool_pages))
      .Add("plan_cache_entries", Num(o.plan_cache_entries))
      .Add("prefetch", flag(o.prefetch));
  JsonObject details;
  details.Add("workload", Str(spec_.name))
      .Add("seed", std::to_string(seed_))
      .Add("trace", flag(trace_))
      .Add("size_mb", Num(spec_.size_mb))
      .Add("doc_nodes", Num(doc_nodes_))
      .Add("readers", Num(spec_.readers))
      .Add("writer", flag(spec_.writer))
      .Add("nproc", Num(std::thread::hardware_concurrency()))
      .Add("build_type", Str(SJB_BUILD_TYPE))
      .Add("compiler", Str(SJB_COMPILER))
      .Add("database_options", options.str())
      .Add("setup_opens", Num(setup_s_.size()))
      .Add("setup_phase_s", Num(setup_phase_s))
      .Add("warmup_s", Num(warmup_s_))
      .Add("distinct_queries", Num(queries_.size()))
      .Add("naive_references", Num(naive_refs_))
      .Add("queries", Num(untraced.queries + traced.queries))
      .Add("answers_checked", Num(untraced.reads.ok + untraced.reads.wrong +
                                  traced.reads.ok + traced.reads.wrong))
      .Add("query_samples", Num(untraced.queries))
      .Add("query_slices", Num(reads.slices))
      .Add("samples_beyond_p99_per_slice", Num(reads.beyond_p99))
      .Add("commit_samples", Num(writes.commit.size()))
      .Add("commit_slices", Num(commits.slices))
      .Add("compactions", Num(writes.compact_ms.size()))
      .Add("writer_late_p50_ms", Num(Quantile(writes.late_ms, 0.5)))
      .Add("writer_late_max_ms", Num(late_max))
      .Add("error_rate", Num(Ratio(failed, attempted)))
      .Add("traced_one_query_in", Num(trace_every_))
      .Add("spans", Num(recorder_.SpanCount()))
      .Add("errors", Num(errors_.size()));
  JsonObject metrics;
  for (const Metric& metric : m) {
    JsonObject value;
    value.Add("value", Num(metric.value)).Add("unit", Str(metric.unit));
    metrics.Add(metric.name, value.str());
  }
  JsonObject result;
  result.Add("correct", flag(correct))
      .Add("attempted", Num(std::max<uint64_t>({attempted, failed, 1})))
      .Add("failed", Num(failed))
      .Add("metrics", metrics.str());
  std::printf("{\"details\": %s}\n%s\n", details.str().c_str(),
              result.str().c_str());
  std::fflush(stdout);

  if (trace_ && !spans_out_.empty() &&
      !recorder_.WriteJsonLines(spans_out_.c_str(), kSpansWritten)) {
    std::fprintf(stderr, "sjbench: cannot write spans to %s\n",
                 spans_out_.c_str());
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: sjbench --workload <serve-resident|scan-paged|"
               "update-mix> --seed N --seconds S --trace <0|1> "
               "[--spans-out PATH]\n");
  return 2;
}

}  // namespace
}  // namespace sjb

int main(int argc, char** argv) {
  std::string workload, spans_out;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return sjb::Usage();
    }
  }
  if (argc % 2 == 0 || !(seconds > 0) || (trace != 0 && trace != 1)) {
    return sjb::Usage();
  }
  for (const sjb::WorkloadSpec& spec : sjb::kWorkloads) {
    if (workload == spec.name) {
      sjb::Bench bench(spec, seed, seconds, trace == 1, spans_out);
      return bench.Main();
    }
  }
  return sjb::Usage();
}

// Query populations and reference answers for the end-to-end benchmark.
//
// Every query the benchmark times is drawn from a population built here
// from the generated document alone, and every answer it receives is
// compared with a reference digest computed here before timing starts.
// References come from an oracle independent of the engine's planner:
// baselines::NaiveAxisStep chained step by step with a name-test filter
// over the base DocTable. Where that per-context evaluation is too slow
// at the workload's size, the reference is the answer all three storage
// backends agree on under pinned PlanHints (no twig, no pushdown, static
// planner).

#ifndef SJ_PERFBENCH_ORACLE_H_
#define SJ_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/database.h"
#include "encoding/doc_table.h"

namespace sjb {

/// Order-sensitive fingerprint of a node sequence: its length plus an
/// FNV-1a hash over the node ids.
struct Digest {
  uint64_t count = 0;
  uint64_t hash = 0;
  bool operator==(const Digest&) const = default;
};

Digest DigestOf(const sj::NodeSequence& nodes);

/// One distinct query string with its reference answer.
struct QuerySpec {
  std::string text;
  Digest expect;
  /// Cost proxy: context plus result rows summed over the steps of a
  /// step-by-step plan (semantic sizes, independent of the planner's
  /// operator choice). Populations are ranked by it.
  uint64_t work = 0;
  /// True when `expect` came from the naive oracle, false when from the
  /// agreement of the three backends.
  bool naive_oracle = false;
};

/// Draws the serving population: a fixed number of queries per axis
/// template (child, descendant, parent, ancestor, both siblings,
/// attribute, following, preceding, unions, three-step chains), each
/// filled with tag pairs that occur in `doc`. `seed` picks one fill per
/// stratum of the template's fills sorted by estimated cost.
std::vector<QuerySpec> DrawServePopulation(const sj::DocTable& doc,
                                           uint64_t seed);

/// The analytical multi-step chains of the paged workload; together
/// they cover every axis family.
std::vector<QuerySpec> ScanChains();

/// First-step answers of NaiveAnswer, keyed by the step's text.
using NaiveMemo = std::map<std::string, sj::NodeSequence>;

/// Evaluates `query` (absolute name-test paths and unions of them) by
/// chaining NaiveAxisStep and a name-test filter over `doc`. Returns
/// nullopt when the query has a construct the oracle does not evaluate
/// or when per-context evaluation would visit more than `budget` nodes.
/// `memo` (optional) caches first-step answers across calls on `doc`.
std::optional<sj::NodeSequence> NaiveAnswer(const sj::DocTable& doc,
                                            std::string_view query,
                                            uint64_t budget,
                                            NaiveMemo* memo = nullptr);

/// Fills `expect`, `work` and `naive_oracle` of every spec from `db`'s
/// pristine document. Returns one message per query the oracles disagree
/// on (an engine fault); empty when all references are consistent.
std::vector<std::string> BuildReferences(sj::Database& db,
                                         std::vector<QuerySpec>* specs);

/// Sorts `specs` by ascending work (ties by text): rank 0 is the
/// cheapest query, the head of every zipf schedule.
void RankByWork(std::vector<QuerySpec>* specs);

}  // namespace sjb

#endif  // SJ_PERFBENCH_ORACLE_H_

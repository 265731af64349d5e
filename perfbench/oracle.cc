#include "oracle.h"

#include <algorithm>
#include <map>
#include <utility>

#include "baselines/naive.h"
#include "util/rng.h"
#include "xpath/parser.h"

namespace sjb {

using sj::Axis;
using sj::DocTable;
using sj::NodeId;
using sj::NodeKind;
using sj::NodeSequence;
using sj::TagId;

Digest DigestOf(const NodeSequence& nodes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (NodeId v : nodes) {
    h ^= v;
    h *= 0x100000001b3ULL;
  }
  return {nodes.size(), h};
}

namespace {

using TagPair = std::pair<std::string, std::string>;

/// Tag pairs that occur in a document, keyed by name so the candidate
/// order is independent of tag-code assignment.
struct PairSets {
  std::map<TagPair, uint64_t> child;       ///< parent tag, child tag
  std::map<TagPair, uint64_t> descendant;  ///< ancestor tag, descendant tag
  std::map<TagPair, uint64_t> attribute;   ///< element tag, attribute name
  std::map<TagPair, uint64_t> sibling;     ///< earlier tag, later tag
};

PairSets CollectPairs(const DocTable& doc) {
  PairSets out;
  const auto name = [&doc](NodeId v) -> const std::string& {
    return doc.tags().Name(doc.tag(v));
  };
  std::vector<TagId> seen;
  for (NodeId p = 0; p < doc.size(); ++p) {
    if (doc.kind(p) != NodeKind::kElement) continue;
    // Distinct ancestor tags of p.
    seen.clear();
    for (NodeId a = doc.parent(p); a != sj::kNilNode; a = doc.parent(a)) {
      if (std::find(seen.begin(), seen.end(), doc.tag(a)) == seen.end()) {
        seen.push_back(doc.tag(a));
        ++out.descendant[{doc.tags().Name(doc.tag(a)), name(p)}];
      }
    }
    // Children of p in order: parent/child, attribute and sibling pairs.
    seen.clear();
    const uint64_t end = static_cast<uint64_t>(p) + doc.subtree_size(p);
    for (uint64_t c = static_cast<uint64_t>(p) + 1; c <= end;
         c += doc.subtree_size(static_cast<NodeId>(c)) + 1) {
      const NodeId v = static_cast<NodeId>(c);
      if (doc.kind(v) == NodeKind::kAttribute) {
        ++out.attribute[{name(p), name(v)}];
        continue;
      }
      if (doc.kind(v) != NodeKind::kElement) continue;
      ++out.child[{name(p), name(v)}];
      for (TagId earlier : seen) {
        ++out.sibling[{doc.tags().Name(earlier), name(v)}];
      }
      if (std::find(seen.begin(), seen.end(), doc.tag(v)) == seen.end()) {
        seen.push_back(doc.tag(v));
      }
    }
  }
  return out;
}

/// One fillable query string with a cost estimate from the pair counts.
struct Candidate {
  uint64_t est = 0;
  std::string text;
};

/// `n` candidates stratified by estimated cost: the pool is sorted by
/// estimate and cut into n equal strata, and `rng` picks one candidate
/// from each. The population's cost profile thus barely depends on the
/// seed, while which strings fill it does.
std::vector<Candidate> Stratified(std::vector<Candidate> pool, size_t n,
                                  sj::Rng& rng) {
  std::sort(pool.begin(), pool.end(),
            [](const Candidate& x, const Candidate& y) {
              return x.est != y.est ? x.est < y.est : x.text < y.text;
            });
  n = std::min(n, pool.size());
  std::vector<Candidate> out;
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i * pool.size() / n;
    const size_t hi = (i + 1) * pool.size() / n;
    out.push_back(pool[lo + rng.Below(hi - lo)]);
  }
  return out;
}

std::string Desc(const std::string& tag) { return "/descendant::" + tag; }

}  // namespace

std::vector<QuerySpec> DrawServePopulation(const DocTable& doc,
                                           uint64_t seed) {
  const PairSets pairs = CollectPairs(doc);
  std::map<std::string, uint64_t> count;  // elements and attributes per name
  for (NodeId v = 0; v < doc.size(); ++v) {
    if (doc.kind(v) == NodeKind::kElement ||
        doc.kind(v) == NodeKind::kAttribute) {
      ++count[doc.tags().Name(doc.tag(v))];
    }
  }
  // A path starting /descendant::<document element> is empty (the
  // context is the document element itself): no template starts there.
  const std::string& top = doc.tags().Name(doc.tag(doc.root()));

  std::vector<Candidate> child, descendant, parent, ancestor, following_sib,
      preceding_sib, attribute, following, preceding, unions, chains;
  for (const auto& [ab, n] : pairs.child) {
    const auto& [a, b] = ab;
    if (a != top) child.push_back({count[a] + n, Desc(a) + "/child::" + b});
    parent.push_back({count[b] + n, Desc(b) + "/parent::" + a});
    auto it = pairs.child.lower_bound({b, ""});
    for (; a != top && it != pairs.child.end() && it->first.first == b; ++it) {
      chains.push_back({count[a] + n + it->second,
                        Desc(a) + "/child::" + b + "/child::" +
                            it->first.second});
    }
  }
  for (const auto& [ab, n] : pairs.descendant) {
    const auto& [a, b] = ab;
    if (a != top) {
      descendant.push_back({count[a] + n, Desc(a) + "/descendant::" + b});
    }
    ancestor.push_back({count[b] + n, Desc(b) + "/ancestor::" + a});
  }
  for (const auto& [bc, n] : pairs.sibling) {
    const auto& [b, c] = bc;
    following_sib.push_back(
        {count[b] + n, Desc(b) + "/following-sibling::" + c});
    preceding_sib.push_back(
        {count[c] + n, Desc(c) + "/preceding-sibling::" + b});
    following.push_back({count[b] + count[c], Desc(b) + "/following::" + c});
    preceding.push_back({count[b] + count[c], Desc(c) + "/preceding::" + b});
  }
  for (const auto& [ax, n] : pairs.attribute) {
    const auto& [a, x] = ax;
    if (a != top) {
      attribute.push_back({count[a] + n, Desc(a) + "/attribute::" + x});
    }
  }
  for (const Candidate& c : child) {
    for (const Candidate& x : attribute) {
      unions.push_back({c.est + x.est, c.text + " | " + x.text});
    }
  }

  sj::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<QuerySpec> out;
  // Template sizes are fixed, so the axis mix does not depend on the seed.
  const std::pair<const std::vector<Candidate>*, size_t> templates[] = {
      {&child, 72},         {&descendant, 72},    {&parent, 48},
      {&ancestor, 48},      {&following_sib, 40}, {&preceding_sib, 40},
      {&attribute, 16},     {&following, 32},     {&preceding, 32},
      {&unions, 48},        {&chains, 48},
  };
  for (const auto& [pool, size] : templates) {
    for (Candidate& c : Stratified(*pool, size, rng)) {
      QuerySpec q;
      q.text = std::move(c.text);
      out.push_back(std::move(q));
    }
  }
  return out;
}

std::vector<QuerySpec> ScanChains() {
  const char* const chains[] = {
      "/descendant::open_auction/child::bidder/child::increase",  // twig
      "/descendant::regions/descendant::item/descendant::mailbox"
      "/descendant::date",                                        // twig
      "/descendant::profile/descendant::education",
      "/descendant::increase/ancestor::bidder",
      "/descendant::price/parent::closed_auction",
      "/descendant::bidder/following-sibling::bidder",
      "/descendant::current/preceding-sibling::bidder",
      "/descendant::people/child::person/attribute::id",
      "/descendant::catgraph/following::personref",
      "/descendant::closed_auctions/preceding::interest",
      "/descendant::open_auction/child::seller"
      " | /descendant::closed_auction/child::seller",
  };
  std::vector<QuerySpec> out;
  for (const char* text : chains) {
    QuerySpec q;
    q.text = text;
    out.push_back(std::move(q));
  }
  return out;
}

std::optional<NodeSequence> NaiveAnswer(const DocTable& doc,
                                        std::string_view query,
                                        uint64_t budget, NaiveMemo* memo) {
  auto parsed = sj::xpath::ParseXPathUnion(query);
  if (!parsed.ok()) return std::nullopt;
  NodeSequence all;
  for (const sj::xpath::LocationPath& path : parsed.value().branches) {
    if (!path.absolute) return std::nullopt;
    NodeSequence context = {doc.root()};
    for (size_t i = 0; i < path.steps.size(); ++i) {
      const sj::xpath::Step& step = path.steps[i];
      if (!step.predicates.empty() ||
          step.test.kind != sj::xpath::NodeTestKind::kName) {
        return std::nullopt;
      }
      // The first step's context is always the root: memoize its answer.
      const std::string key = i == 0 ? sj::xpath::ToString(step) : "";
      if (memo != nullptr && i == 0) {
        if (auto it = memo->find(key); it != memo->end()) {
          context = it->second;
          continue;
        }
      }
      const bool attr_axis = step.axis == Axis::kAttribute;
      // Per-context evaluation visits every candidate; following and
      // preceding additionally scan the document once per context.
      uint64_t visits =
          sj::NaiveCandidateCount(doc, context, step.axis, attr_axis);
      if (step.axis == Axis::kFollowing || step.axis == Axis::kPreceding) {
        visits += context.size() * doc.size();
      }
      if (visits > budget) return std::nullopt;
      auto stepped =
          sj::NaiveAxisStep(doc, context, step.axis, nullptr, attr_axis);
      if (!stepped.ok()) return std::nullopt;
      const std::optional<TagId> tag = doc.tags().Lookup(step.test.name);
      const NodeKind principal =
          attr_axis ? NodeKind::kAttribute : NodeKind::kElement;
      NodeSequence next;
      if (tag.has_value()) {
        for (NodeId v : stepped.value()) {
          if (doc.kind(v) == principal && doc.tag(v) == *tag) {
            next.push_back(v);
          }
        }
      }
      context = std::move(next);
      if (memo != nullptr && i == 0) memo->emplace(key, context);
    }
    all.insert(all.end(), context.begin(), context.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

std::vector<std::string> BuildReferences(sj::Database& db,
                                         std::vector<QuerySpec>* specs) {
  // Node visits the naive oracle may spend on one query before the
  // cross-backend agreement stands in for it.
  constexpr uint64_t kNaiveBudget = 10'000'000;
  NaiveMemo memo;
  std::vector<std::string> mismatches;
  sj::SessionOptions pinned;
  pinned.hints.twig = sj::TwigMode::kNever;
  pinned.hints.pushdown = sj::PushdownMode::kNever;
  pinned.hints.cost_model = sj::CostModelMode::kOff;
  std::vector<sj::Session> sessions;
  for (sj::StorageBackend backend :
       {sj::StorageBackend::kMemory, sj::StorageBackend::kPaged,
        sj::StorageBackend::kCompressed}) {
    pinned.backend = backend;
    auto s = db.CreateSession(pinned);
    if (!s.ok()) {
      mismatches.push_back("session: " + s.status().ToString());
      return mismatches;
    }
    sessions.push_back(std::move(s).value());
  }
  const auto fail = [&mismatches](const QuerySpec& q, const std::string& why) {
    mismatches.push_back(q.text + ": " + why);
  };
  for (QuerySpec& q : *specs) {
    auto mem = sessions[0].Run(q.text);
    if (!mem.ok()) {
      fail(q, "memory backend failed: " + mem.status().ToString());
      continue;
    }
    q.work = 0;
    for (const sj::StepTrace& step : mem.value().trace) {
      q.work += step.stats.context_size + step.stats.result_size;
    }
    const Digest engine = DigestOf(mem.value().nodes);
    if (std::optional<NodeSequence> naive =
            NaiveAnswer(db.doc(), q.text, kNaiveBudget, &memo)) {
      q.naive_oracle = true;
      q.expect = DigestOf(*naive);
      if (!(engine == q.expect)) fail(q, "memory backend != naive oracle");
      continue;
    }
    q.expect = engine;
    for (size_t i = 1; i < sessions.size(); ++i) {
      auto r = sessions[i].Run(q.text);
      if (!r.ok()) {
        fail(q, "pooled backend failed: " + r.status().ToString());
      } else if (!(DigestOf(r.value().nodes) == engine)) {
        fail(q, i == 1 ? "paged != memory" : "compressed != memory");
      }
    }
  }
  return mismatches;
}

void RankByWork(std::vector<QuerySpec>* specs) {
  std::sort(specs->begin(), specs->end(),
            [](const QuerySpec& x, const QuerySpec& y) {
              return x.work != y.work ? x.work < y.work : x.text < y.text;
            });
}

}  // namespace sjb

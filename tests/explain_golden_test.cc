// EXPLAIN golden: every operator's trace text, byte for byte, across the
// backend x snapshot x hint matrix.
//
// The rendered QueryResult::Explain() of a fixed query set is compared
// against tests/golden/explain.txt with the wall-clock millis masked. The
// query set covers staircase, pushdown, axis-cursor, positional and twig
// steps plus a union; the matrix crosses the three storage backends, a
// pristine and a once-edited snapshot, pushdown kAlways/kNever and twig
// on/off, plus a num_threads = 4 paged session (the parallel driver's
// "(N workers)" label). Each session reads through a private pool large
// enough to never evict, so the per-step fault counts (PlanSummary) are
// exact and recorded too -- except on the parallel session, where
// concurrent workers race to fault shared pages.
//
// A mismatch writes the full actual rendering to
// explain_golden.actual.txt in the working directory; copy it over the
// golden file only when a trace change is intended.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"
#include "xmlgen/xmark.h"

#ifndef SJ_TESTS_DIR
#error "SJ_TESTS_DIR must name the tests/ source directory"
#endif

namespace sj {
namespace {

constexpr const char* kQueries[] = {
    // staircase (or pushdown under kAlways)
    "/descendant::open_auction/descendant::bidder",
    // staircase ancestor: the parallel driver's other axis family
    "/descendant::increase/ancestor::open_auction",
    // axis cursor (parent) and a following-sibling cursor
    "/descendant::increase/parent::bidder",
    "/descendant::bidder/following-sibling::bidder",
    // positional rank join
    "/descendant::open_auction/child::bidder[2]",
    // twig run (step-at-a-time under twig kNever)
    "/descendant::open_auction/child::bidder/child::increase",
    // union of two branches
    "/descendant::person/child::name | /descendant::item/child::name",
};

constexpr size_t kPrivatePoolPages = 8192;  // holds every page: no evictions

std::unique_ptr<Database> OpenDb() {
  xmlgen::XMarkOptions gen;
  gen.size_mb = 0.3;
  gen.rich_text = false;
  DatabaseOptions open;
  open.build.store_values = false;
  return std::move(Database::FromXmark(gen, open)).value();
}

const char* BackendName(StorageBackend b) {
  switch (b) {
    case StorageBackend::kMemory:
      return "memory";
    case StorageBackend::kPaged:
      return "paged";
    case StorageBackend::kCompressed:
      return "compressed";
  }
  return "?";
}

std::string MaskMillis(const std::string& explain) {
  static const std::regex kMillis(R"(\([0-9.eE+-]+ ms\))");
  return std::regex_replace(explain, kMillis, "(<ms> ms)");
}

/// Runs every query of kQueries on one session and renders the block.
void RenderSession(Database* db, const std::string& label,
                   const SessionOptions& options, std::ostringstream* out) {
  auto session_or = db->CreateSession(options);
  ASSERT_TRUE(session_or.ok()) << label << ": " << session_or.status();
  Session session = std::move(session_or).value();
  const bool exact_faults = options.num_threads <= 1;
  *out << "=== " << label << "\n";
  for (const char* q : kQueries) {
    auto r = session.Run(q);
    ASSERT_TRUE(r.ok()) << label << " " << q << ": " << r.status();
    *out << "--- " << q << "\n";
    *out << "nodes=" << r.value().nodes.size() << "\n";
    *out << MaskMillis(r.value().Explain());
    *out << "faults:";
    for (const PlanStepSummary& row : r.value().PlanSummary()) {
      *out << " " << row.op << "=";
      if (exact_faults) {
        *out << row.faults;
      } else {
        *out << "-";
      }
    }
    *out << "\n";
  }
}

void RenderMatrix(Database* db, const std::string& snapshot,
                  std::ostringstream* out) {
  for (StorageBackend backend :
       {StorageBackend::kMemory, StorageBackend::kPaged,
        StorageBackend::kCompressed}) {
    for (PushdownMode pushdown : {PushdownMode::kAlways, PushdownMode::kNever}) {
      for (TwigMode twig : {TwigMode::kAuto, TwigMode::kNever}) {
        SessionOptions o;
        o.backend = backend;
        o.hints.pushdown = pushdown;
        o.hints.twig = twig;
        if (backend != StorageBackend::kMemory) {
          o.private_pool_pages = kPrivatePoolPages;
        }
        const std::string label =
            snapshot + " " + BackendName(backend) +
            (pushdown == PushdownMode::kAlways ? " pushdown=always"
                                               : " pushdown=never") +
            (twig == TwigMode::kAuto ? " twig=auto" : " twig=never");
        RenderSession(db, label, o, out);
      }
    }
  }
  SessionOptions parallel;
  parallel.backend = StorageBackend::kPaged;
  parallel.hints.pushdown = PushdownMode::kNever;
  parallel.hints.twig = TwigMode::kNever;
  parallel.num_threads = 4;
  parallel.private_pool_pages = kPrivatePoolPages;
  RenderSession(db, snapshot + " paged num_threads=4", parallel, out);
}

std::string ReadGolden(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ExplainGoldenTest, TracesAreByteIdentical) {
  auto db = OpenDb();
  std::ostringstream out;
  RenderMatrix(db.get(), "pristine", &out);
  if (HasFatalFailure()) return;

  // One committed edit: a bidder with an increase appended under the
  // first open_auction, so every query's merged answer moves.
  Session probe = std::move(db->CreateSession()).value();
  auto auctions = probe.Run("/descendant::open_auction");
  ASSERT_TRUE(auctions.ok());
  ASSERT_FALSE(auctions.value().nodes.empty());
  EditTxn txn = db->BeginEdit();
  ASSERT_TRUE(txn.InsertLastChild(auctions.value().nodes.front(),
                                  "<bidder><increase/></bidder>")
                  .ok());
  ASSERT_TRUE(txn.Commit().ok());
  RenderMatrix(db.get(), "edited", &out);
  if (HasFatalFailure()) return;

  const std::string actual = out.str();
  const std::string golden_path =
      std::string(SJ_TESTS_DIR) + "/golden/explain.txt";
  const std::string golden = ReadGolden(golden_path);
  if (actual != golden) {
    std::ofstream("explain_golden.actual.txt", std::ios::binary) << actual;
    std::istringstream a(actual), g(golden);
    std::string la, lg;
    size_t line = 0;
    while (true) {
      ++line;
      const bool more_a = static_cast<bool>(std::getline(a, la));
      const bool more_g = static_cast<bool>(std::getline(g, lg));
      if (!more_a && !more_g) break;
      if (!more_a || !more_g || la != lg) {
        ADD_FAILURE() << golden_path << ":" << line << " differs\n  golden: "
                      << (more_g ? lg : "<eof>")
                      << "\n  actual: " << (more_a ? la : "<eof>")
                      << "\n(full actual written to "
                         "explain_golden.actual.txt)";
        break;
      }
    }
  }
}

}  // namespace
}  // namespace sj

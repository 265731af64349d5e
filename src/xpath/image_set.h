// DatabaseImages + ImageBinding: the image set an evaluator reads.
//
// A DatabaseImages is one coherent, immutable set of backend images for
// one encoded document -- the resident DocTable, the tag fragments and
// the pool-backed paged/compressed images. api/snapshot.h stamps a set
// with an epoch and (after edits) a delta overlay.
//
// An ImageBinding borrows one such set together with the buffer pool and
// the overlay a session reads through: the only wiring an Evaluator
// receives, and the one place its images are checked. Which backend's
// images serve a step is settled in one place, BackendDispatch::Visit
// (xpath/backend_dispatch.h), which reads each backend's BackendFacts.

#ifndef STAIRJOIN_XPATH_IMAGE_SET_H_
#define STAIRJOIN_XPATH_IMAGE_SET_H_

#include <memory>
#include <optional>
#include <string>

#include "core/tag_view.h"
#include "delta/overlay.h"
#include "encoding/doc_table.h"
#include "storage/buffer_pool.h"
#include "storage/compressed_doc.h"
#include "storage/compressed_tags.h"
#include "storage/paged_doc.h"
#include "storage/paged_tags.h"
#include "util/status.h"
#include "xpath/cost_model.h"
#include "xpath/explain_strings.h"

namespace sj {

/// \brief One coherent, immutable set of backend images over one encoded
/// document (see file comment). Members may be null per the open-time
/// DatabaseOptions, with the same contracts as the Database accessors.
struct DatabaseImages {
  std::unique_ptr<DocTable> doc;
  std::unique_ptr<TagIndex> tag_index;
  std::unique_ptr<storage::SimulatedDisk> disk;
  std::unique_ptr<storage::PagedDocTable> paged_doc;
  std::unique_ptr<storage::PagedTagIndex> paged_tags;
  std::unique_ptr<storage::CompressedDocTable> compressed_doc;
  std::unique_ptr<storage::CompressedTagIndex> compressed_tags;
  /// Internally synchronized; shared by every session on these images.
  std::unique_ptr<storage::BufferPool> pool;
  /// DocColumnsDigest / FragmentColumnsDigest of `doc`, computed and
  /// verified against the pool-backed images at open time, so evaluators
  /// skip their own O(doc) digest passes.
  std::optional<uint64_t> doc_digest;
  std::optional<uint64_t> frag_digest;
  /// Planner statistics of `doc` (level histogram, per-tag counts and
  /// level spreads), collected in one O(doc) pass at image-build time.
  /// Shared read-only by every session; rebuilt by compaction together
  /// with the images, so it always describes `doc` exactly.
  std::unique_ptr<xpath::DocStatistics> doc_stats;
  /// Pre ranks (in `doc`) of the gathered document elements when the
  /// images encode a directory collection; empty otherwise.
  NodeSequence base_document_roots;
};

namespace xpath {

/// \brief What one storage backend contributes to a query besides its
/// cursors, read off an image set (BackendDispatch::Visit builds one per
/// backend).
struct BackendFacts {
  const char* name;           ///< "memory", "paged", "compressed"
  const char* label;          ///< EXPLAIN label prefix, pristine
  const char* overlay_label;  ///< EXPLAIN label prefix, edited snapshot
  double page_cost;           ///< cost-model unit per page (cost_model.h)
  bool pooled;                ///< reads charge the bound buffer pool
  bool has_doc;               ///< the image set holds the doc image
  bool has_fragments;         ///< ... and the backend's fragment index
  size_t size = 0;            ///< node count of the doc image
  uint64_t doc_digest = 0;    ///< DocColumnsDigest it was built from
  std::optional<uint64_t> frag_digest = std::nullopt;  ///< of its tag index

  /// EXPLAIN label prefix of the backend's joins.
  const char* Label(bool overlaid) const {
    return overlaid ? overlay_label : label;
  }

  /// The facts of the resident backend over a `size`-node DocTable.
  static BackendFacts Memory(size_t size, bool has_fragments) {
    return {"memory", explain::kLabelMemory, explain::kLabelOverlayMemory,
            kMemoryPageCost, false, true, has_fragments, size};
  }

  /// The facts of a pool-backed backend whose images (null when the
  /// database was opened without them) are `doc` and `tags`.
  template <typename DocImage, typename TagImage>
  static BackendFacts Pooled(const char* name, const char* label,
                             const char* overlay_label, double page_cost,
                             const DocImage* doc, const TagImage* tags) {
    BackendFacts f{name, label, overlay_label, page_cost, true,
                   doc != nullptr, tags != nullptr};
    if (doc != nullptr) {
      f.size = doc->size();
      f.doc_digest = doc->source_digest();
    }
    if (tags != nullptr) f.frag_digest = tags->source_digest();
    return f;
  }
};

/// \brief The image set one evaluator reads (all borrowed).
struct ImageBinding {
  /// The snapshot's images; null binds only the evaluator's own
  /// DocTable (memory backend, no tag fragments).
  const DatabaseImages* set = nullptr;
  /// The pool the pool-backed backends charge (shared or session-private).
  storage::BufferPool* pool = nullptr;
  /// Snapshot overlay (updatable documents). When non-empty, every join
  /// runs over the merged (base + delta) document in dense logical pre
  /// ranks: base reads keep charging the pool, delta reads are resident
  /// (`delta/delta_accessor.h`). Null or empty means the pristine
  /// document -- plans and traces are byte-identical to a database that
  /// was never edited.
  const delta::Overlay* overlay = nullptr;

  /// True when joins run over the merged document via the delta cursors.
  bool Overlaid() const { return overlay != nullptr && !overlay->empty(); }

  /// Pushdown and twig read the backend's own fragment index (a resident
  /// TagIndex would bypass the pool) and, when edited, merged fragments.
  bool HasFragments(const BackendFacts& backend) const {
    return backend.has_fragments && (!Overlaid() || overlay->has_fragments());
  }

  /// Fails when the set lacks `backend`'s doc image, or a pool-backed
  /// backend has no pool bound.
  Status Check(const BackendFacts& backend) const {
    const std::string name = backend.name;
    if (!backend.has_doc) {
      return Status::InvalidArgument(
          "session requests the " + name + " backend but the database was "
          "opened without a " + name + " image (DatabaseOptions::build_" +
          name + ")");
    }
    if (backend.pooled && pool == nullptr) {
      return Status::InvalidArgument(name + " backend requires a pool");
    }
    return Status::OK();
  }
};

}  // namespace xpath
}  // namespace sj

#endif  // STAIRJOIN_XPATH_IMAGE_SET_H_

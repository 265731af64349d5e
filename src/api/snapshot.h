// DatabaseImages + DatabaseSnapshot: the MVCC spine of updatable
// documents.
//
// A DatabaseImages (xpath/image_set.h) is one coherent, immutable set of
// backend images for one encoded document -- the resident DocTable, the
// tag fragments and the pool-backed paged/compressed images, exactly
// what an unedited Database used to own directly. A DatabaseSnapshot
// stamps a set of images with an epoch and (after edits) a delta
// overlay: epoch 0 is the pristine open, each EditTxn::Commit publishes
// epoch+1 over the SAME images with a larger overlay, and
// Database::Compact() publishes epoch+1 over freshly rebuilt images with
// no overlay.
//
// Snapshots are immutable and shared: every Session::Run pins the
// current snapshot (shared_ptr), so a commit or compaction concurrent
// with a running query can never pull images or overlay out from under
// it -- readers drain on their own schedule, writers never wait for
// them (snapshot isolation).

#ifndef STAIRJOIN_API_SNAPSHOT_H_
#define STAIRJOIN_API_SNAPSHOT_H_

#include <memory>
#include <mutex>
#include <utility>

#include "delta/overlay.h"
#include "encoding/builder.h"
#include "encoding/doc_table.h"
#include "util/result.h"
#include "xpath/image_set.h"

namespace sj {

/// \brief An epoch-stamped, immutable view of the database: images plus
/// (possibly) a delta overlay describing edits not yet compacted.
class DatabaseSnapshot {
 public:
  DatabaseSnapshot(uint64_t epoch,
                   std::shared_ptr<const DatabaseImages> images,
                   std::shared_ptr<const delta::Overlay> overlay,
                   NodeSequence document_roots, BuildOptions build)
      : epoch_(epoch),
        images_(std::move(images)),
        overlay_(std::move(overlay)),
        document_roots_(std::move(document_roots)),
        build_(std::move(build)) {}

  /// 0 = pristine open; +1 per published commit or compaction.
  uint64_t epoch() const { return epoch_; }

  const DatabaseImages& images() const { return *images_; }
  /// The images, pinnable (a commit republishes the same set).
  const std::shared_ptr<const DatabaseImages>& images_ptr() const {
    return images_;
  }

  /// The delta overlay; null on pristine/compacted snapshots. May be
  /// non-null but empty when edits cancelled out -- use edited() to ask
  /// "does this snapshot differ from its base images".
  const delta::Overlay* overlay() const { return overlay_.get(); }
  const std::shared_ptr<const delta::Overlay>& overlay_ptr() const {
    return overlay_;
  }
  bool edited() const { return overlay_ != nullptr && !overlay_->empty(); }
  /// Resident delta nodes carried by this snapshot (0 when pristine).
  uint64_t delta_nodes() const {
    return overlay_ != nullptr ? overlay_->delta_size() : 0;
  }

  /// Node count of the (merged) document this snapshot presents.
  uint64_t logical_size() const {
    return edited() ? overlay_->logical_size() : images_->doc->size();
  }

  /// Logical pre ranks of the document elements (collections); tracks
  /// deletes/compaction across epochs.
  const NodeSequence& document_roots() const { return document_roots_; }

  /// The merged document as a resident DocTable in logical pre ranks:
  /// the base table itself when the snapshot is unedited, otherwise a
  /// lazily materialized (once, thread-safe) fold of base + overlay.
  /// Serves the evaluator's per-context paths (EvalOptions::overlay_doc);
  /// borrowed, valid while the snapshot lives.
  Result<const DocTable*> MergedDoc() const;

 private:
  uint64_t epoch_ = 0;
  std::shared_ptr<const DatabaseImages> images_;
  std::shared_ptr<const delta::Overlay> overlay_;
  NodeSequence document_roots_;
  /// Encoding options of the database, for the materialization fold.
  BuildOptions build_;
  mutable std::once_flag merged_once_;
  mutable std::unique_ptr<DocTable> merged_;
  mutable Status merged_status_;
};

}  // namespace sj

#endif  // STAIRJOIN_API_SNAPSHOT_H_

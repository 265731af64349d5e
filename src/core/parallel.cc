#include "core/parallel.h"

#include <algorithm>

#include "core/doc_accessor.h"
#include "core/staircase_impl.h"

namespace sj {

namespace internal {

ChunkQueue::ChunkQueue(size_t total, size_t chunks)
    : total_(total),
      per_((total + (chunks > 0 ? chunks : 1) - 1) /
           (chunks > 0 ? chunks : 1)),
      chunk_count_(per_ > 0 ? (total + per_ - 1) / per_ : 0) {}

bool ChunkQueue::Next(size_t* index, size_t* lo, size_t* hi) {
  MutexLock lock(mu_);
  if (next_ >= chunk_count_) return false;
  *index = next_++;
  *lo = *index * per_;
  *hi = std::min(total_, *lo + per_);
  return true;
}

}  // namespace internal

unsigned ParallelWorkers(Axis axis, unsigned num_threads, size_t context_size,
                         size_t pool_pages) {
  const bool partitioned =
      axis == Axis::kDescendant || axis == Axis::kDescendantOrSelf ||
      axis == Axis::kAncestor || axis == Axis::kAncestorOrSelf;
  unsigned workers = num_threads;
  if (pool_pages > 0) {
    const unsigned budget = static_cast<unsigned>((pool_pages - 1) / 3);
    workers = std::min(workers, std::max(1u, budget));
  }
  if (!partitioned || workers < 2 || context_size < 2) return 1;
  return workers;
}

Result<NodeSequence> ParallelStaircaseJoin(const DocTable& doc,
                                           const NodeSequence& context,
                                           Axis axis,
                                           const StaircaseOptions& options,
                                           unsigned num_threads,
                                           JoinStats* stats) {
  const unsigned workers =
      ParallelWorkers(axis, num_threads, context.size(), /*pool_pages=*/0);
  if (workers < 2) return StaircaseJoin(doc, context, axis, options, stats);
  return internal::ParallelStaircaseJoinOver(
      [&doc] { return MemoryDocAccessor(doc); }, context, axis, options,
      workers, stats);
}

}  // namespace sj

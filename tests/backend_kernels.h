// The core kernels over one pool-backed image, run the way a query step
// runs them (xpath/backend_dispatch.h): a fresh accessor (and fragment
// cursor) per call, so its pinned pages are released on return. Tests
// that compare backends kernel by kernel, below the Session facade, call
// these; the accessor type follows from the image type.

#ifndef STAIRJOIN_TESTS_BACKEND_KERNELS_H_
#define STAIRJOIN_TESTS_BACKEND_KERNELS_H_

#include "core/axis_impl.h"
#include "core/fragment_impl.h"
#include "core/parallel.h"
#include "core/staircase_impl.h"
#include "storage/compressed_accessor.h"
#include "storage/compressed_tags.h"
#include "storage/paged_accessor.h"
#include "storage/paged_tags.h"

namespace sj::testing {

template <typename Image>
struct CursorsOf;
template <>
struct CursorsOf<storage::PagedDocTable> {
  using Accessor = storage::PagedDocAccessor;
};
template <>
struct CursorsOf<storage::CompressedDocTable> {
  using Accessor = storage::CompressedDocAccessor;
};
template <>
struct CursorsOf<storage::PagedTagIndex> {
  using Cursor = storage::PagedFragmentCursor;
};
template <>
struct CursorsOf<storage::CompressedTagIndex> {
  using Cursor = storage::CompressedFragmentCursor;
};

template <typename Image>
Result<NodeSequence> StaircaseJoinVia(const Image& doc,
                                      storage::BufferPool* pool,
                                      const NodeSequence& context, Axis axis,
                                      const StaircaseOptions& options = {},
                                      JoinStats* stats = nullptr) {
  typename CursorsOf<Image>::Accessor acc(doc, pool);
  return internal::StaircaseJoinOver(acc, context, axis, options, stats);
}

/// The partitioned join with the worker count a query would get
/// (ParallelWorkers under the pool's pin budget); serial when that is 1.
template <typename Image>
Result<NodeSequence> ParallelStaircaseJoinVia(
    const Image& doc, storage::BufferPool* pool, const NodeSequence& context,
    Axis axis, const StaircaseOptions& options, unsigned num_threads,
    JoinStats* stats = nullptr) {
  const unsigned workers =
      ParallelWorkers(axis, num_threads, context.size(), pool->capacity());
  if (workers < 2) {
    return StaircaseJoinVia(doc, pool, context, axis, options, stats);
  }
  using Accessor = typename CursorsOf<Image>::Accessor;
  return internal::ParallelStaircaseJoinOver(
      [&] { return Accessor(doc, pool); }, context, axis, options, workers,
      stats);
}

template <typename Image>
Result<NodeSequence> AxisCursorStepVia(const Image& doc,
                                       storage::BufferPool* pool,
                                       const NodeSequence& context, Axis axis,
                                       const AxisNodeTest& test = {},
                                       JoinStats* stats = nullptr) {
  typename CursorsOf<Image>::Accessor acc(doc, pool);
  return internal::AxisStepOver(acc, context, axis, test, stats);
}

/// Name-test pushdown: the fragment join over `tags`' fragment of `tag`.
template <typename Tags, typename Image>
Result<NodeSequence> StaircaseJoinViewVia(
    const Tags& tags, TagId tag, const Image& doc, storage::BufferPool* pool,
    const NodeSequence& context, Axis axis,
    const StaircaseOptions& options = {}, JoinStats* stats = nullptr) {
  typename CursorsOf<Tags>::Cursor frag(tags.fragment(tag), pool);
  typename CursorsOf<Image>::Accessor acc(doc, pool);
  return internal::FragmentStaircaseJoinOver(frag, acc, context, axis, options,
                                             stats);
}

}  // namespace sj::testing

#endif  // STAIRJOIN_TESTS_BACKEND_KERNELS_H_

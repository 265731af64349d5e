// sj-lint fixture: MUST fail rule backend-dispatch when linted as any
// file under src/ -- src/storage/ and src/xpath/backend_dispatch.h
// included (see sj_lint_test.py). A per-backend entry point that only
// instantiates a core kernel with one backend's accessor is a second
// backend-selection point beside BackendDispatch::Visit.

#include "core/staircase_impl.h"
#include "storage/paged_accessor.h"

namespace sj::storage {

// violation: declares a per-backend join entry point
Result<NodeSequence> PagedStaircaseJoin(const PagedDocTable& doc,
                                        BufferPool* pool,
                                        const NodeSequence& context,
                                        Axis axis) {
  PagedDocAccessor acc(doc, pool);
  return internal::StaircaseJoinOver(acc, context, axis, {}, nullptr);
}

Result<NodeSequence> Caller(const PagedDocTable& doc, BufferPool* pool) {
  return PagedStaircaseJoin(doc, pool, {0}, Axis::kDescendant);  // violation
}

}  // namespace sj::storage

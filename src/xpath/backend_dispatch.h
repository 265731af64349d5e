// The ONE backend-selection point of the engine (internal header). Visit
// switches on StorageBackend once, with no default case: each case names
// the backend's facts and its accessor and fragment-cursor factories,
// which Bind wraps in the delta cursors on an edited snapshot. Every
// operation is one Visit call into core/*_impl.h, defined in
// backend_dispatch.cc so the kernel instantiations for every backend live
// in one translation unit of their own. sj-lint (rule backend-dispatch)
// keeps every other backend switch out of src/.

#ifndef STAIRJOIN_XPATH_BACKEND_DISPATCH_H_
#define STAIRJOIN_XPATH_BACKEND_DISPATCH_H_

#include <cstdlib>
#include <type_traits>
#include <vector>

#include "core/axis_impl.h"
#include "delta/delta_accessor.h"
#include "storage/compressed_accessor.h"
#include "storage/paged_accessor.h"
#include "xpath/evaluator.h"
#include "xpath/explain_strings.h"

namespace sj::xpath {

class BackendDispatch {
 public:
  /// Borrows both; operations assume CheckImages() (and, for twig and
  /// pushdown, HasFragments()) passed.
  BackendDispatch(const DocTable& doc, const EvalOptions& opt);

  const BackendFacts& facts() const { return facts_; }
  bool Pooled() const { return facts_.pooled; }
  bool Overlaid() const { return opt_.images.Overlaid(); }
  const char* Label() const { return facts_.Label(Overlaid()); }
  bool HasFragments() const { return opt_.images.HasFragments(facts_); }
  Status CheckImages() const { return opt_.images.Check(facts_); }

  /// Fragment size of `tag` (merged when edited).
  uint64_t TagCount(TagId tag) const;
  /// Staircase join over the whole document; pristine images may run the
  /// partitioned parallel driver, whose chunk math edited snapshots lack.
  Result<NodeSequence> Staircase(const NodeSequence& context, Axis axis,
                                 JoinStats* stats) const;
  /// Name-test pushdown: staircase join over one tag fragment.
  Result<NodeSequence> PushdownView(TagId tag, const NodeSequence& context,
                                    Axis axis, JoinStats* stats) const;
  /// Non-staircase axis step with the node test folded into the scan.
  Result<NodeSequence> AxisCursor(const NodeSequence& context, Axis axis,
                                  const AxisNodeTest& test,
                                  JoinStats* stats) const;
  /// Positional axis step: per-context groups for rank predicates.
  Result<internal::PositionalGroups> PositionalAxis(
      const NodeSequence& context, Axis axis, const AxisNodeTest& test,
      JoinStats* stats) const;
  /// Node-test filter pass over a join result.
  Result<NodeSequence> Filter(const NodeSequence& nodes,
                              const AxisNodeTest& test) const;
  /// Holistic twig join over the per-level fragment cursors.
  Result<NodeSequence> Twig(const NodeSequence& context,
                            const std::vector<TwigLevel>& levels,
                            JoinStats* stats,
                            std::vector<TwigLevelStats>* level_stats) const;

 private:
  /// Calls fn(facts, doc_factory, fragment_factory, overlaid) for the
  /// bound backend; overlaid is std::true_type when the factories yield
  /// delta cursors. Factories return cursors by value (guaranteed
  /// elision: non-movable pool-backed cursors are fine).
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    static const DatabaseImages kNoImages;
    const DatabaseImages& s = opt_.images.set ? *opt_.images.set : kNoImages;
    storage::BufferPool* pool = opt_.images.pool;
    switch (opt_.backend) {
      case StorageBackend::kMemory:
        return Bind(
            fn, BackendFacts::Memory(doc_.size(), s.tag_index != nullptr),
            [&] { return MemoryDocAccessor(doc_); },
            [&](TagId t) {
              return MemoryFragmentCursor(s.tag_index->view(t));
            });
      case StorageBackend::kPaged:
        return Bind(
            fn,
            BackendFacts::Pooled("paged", explain::kLabelPaged,
                                 explain::kLabelOverlayPaged, kPagedPageCost,
                                 s.paged_doc.get(), s.paged_tags.get()),
            [&] { return storage::PagedDocAccessor(*s.paged_doc, pool); },
            [&](TagId t) {
              return storage::PagedFragmentCursor(s.paged_tags->fragment(t),
                                                  pool);
            });
      case StorageBackend::kCompressed:
        return Bind(
            fn,
            BackendFacts::Pooled("compressed", explain::kLabelCompressed,
                                 explain::kLabelOverlayCompressed,
                                 kCompressedPageCost, s.compressed_doc.get(),
                                 s.compressed_tags.get()),
            [&] {
              return storage::CompressedDocAccessor(*s.compressed_doc, pool);
            },
            [&](TagId t) {
              return storage::CompressedFragmentCursor(
                  s.compressed_tags->fragment(t), pool);
            });
    }
    std::abort();  // unreachable: the switch above is exhaustive
  }

  /// Hands `fn` the backend's factories, wrapped in the merging delta
  /// cursors when the snapshot is edited.
  template <typename Fn, typename Doc, typename Frag>
  decltype(auto) Bind(Fn& fn, const BackendFacts& facts, Doc doc,
                      Frag frag) const {
    if (!Overlaid()) return fn(facts, doc, frag, std::false_type{});
    const delta::Overlay& ov = *opt_.images.overlay;
    return fn(
        facts,
        [&] { return delta::DeltaDocAccessor<decltype(doc())>(ov, doc); },
        [&](TagId t) {
          return delta::DeltaFragmentCursor<decltype(frag(t))>(
              ov, t, [&] { return frag(t); });
        },
        std::true_type{});
  }

  const DocTable& doc_;
  const EvalOptions& opt_;
  const BackendFacts facts_;
};

}  // namespace sj::xpath

#endif  // STAIRJOIN_XPATH_BACKEND_DISPATCH_H_

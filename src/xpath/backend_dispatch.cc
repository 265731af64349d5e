#include "xpath/backend_dispatch.h"

#include "core/fragment_impl.h"
#include "core/parallel.h"
#include "core/staircase_impl.h"
#include "core/twig_impl.h"

namespace sj::xpath {

BackendDispatch::BackendDispatch(const DocTable& doc, const EvalOptions& opt)
    : doc_(doc),
      opt_(opt),
      facts_(Visit([](const BackendFacts& f, auto&&...) { return f; })) {}

uint64_t BackendDispatch::TagCount(TagId tag) const {
  return Visit([&](auto&&, auto&&, auto frag, auto&&) {
    return static_cast<uint64_t>(frag(tag).size());
  });
}

Result<NodeSequence> BackendDispatch::Staircase(const NodeSequence& context,
                                                Axis axis,
                                                JoinStats* stats) const {
  return Visit([&](auto&&, auto doc, auto&&,
                   auto overlaid) -> Result<NodeSequence> {
    if constexpr (!decltype(overlaid)::value) {
      const size_t pages = Pooled() ? opt_.images.pool->capacity() : 0;
      const unsigned workers =
          ParallelWorkers(axis, opt_.num_threads, context.size(), pages);
      if (workers > 1) {
        return internal::ParallelStaircaseJoinOver(
            doc, context, axis, opt_.staircase, workers, stats);
      }
    }
    auto acc = doc();
    return internal::StaircaseJoinOver(acc, context, axis, opt_.staircase,
                                       stats);
  });
}

Result<NodeSequence> BackendDispatch::PushdownView(TagId tag,
                                                   const NodeSequence& context,
                                                   Axis axis,
                                                   JoinStats* stats) const {
  return Visit([&](auto&&, auto doc, auto frag, auto&&) {
    auto cursor = frag(tag);
    auto acc = doc();
    return internal::FragmentStaircaseJoinOver(cursor, acc, context, axis,
                                               opt_.staircase, stats);
  });
}

Result<NodeSequence> BackendDispatch::AxisCursor(const NodeSequence& context,
                                                 Axis axis,
                                                 const AxisNodeTest& test,
                                                 JoinStats* stats) const {
  return Visit([&](auto&&, auto doc, auto&&...) {
    auto acc = doc();
    return internal::AxisStepOver(acc, context, axis, test, stats);
  });
}

Result<internal::PositionalGroups> BackendDispatch::PositionalAxis(
    const NodeSequence& context, Axis axis, const AxisNodeTest& test,
    JoinStats* stats) const {
  return Visit([&](auto&&, auto doc, auto&&...) {
    auto acc = doc();
    return internal::PositionalAxisStepOver(acc, context, axis, test, stats);
  });
}

Result<NodeSequence> BackendDispatch::Filter(const NodeSequence& nodes,
                                             const AxisNodeTest& test) const {
  return Visit([&](auto&&, auto doc, auto&&...) -> Result<NodeSequence> {
    auto acc = doc();
    NodeSequence out = internal::FilterSequenceOver(acc, nodes, test);
    if (!acc.ok()) return acc.status();
    return out;
  });
}

Result<NodeSequence> BackendDispatch::Twig(
    const NodeSequence& context, const std::vector<TwigLevel>& levels,
    JoinStats* stats, std::vector<TwigLevelStats>* level_stats) const {
  return Visit([&](auto&&, auto doc, auto frag, auto&&) {
    auto acc = doc();
    return internal::TwigJoinOver(frag, acc, context, levels, opt_.staircase,
                                  stats, level_stats);
  });
}

}  // namespace sj::xpath

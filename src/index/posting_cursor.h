// PostingCursor: sorted, forward-only iteration over the DocIds matching a query.
//
// InvertedIndex::OpenCursor evaluates the query once, through the same bitmap
// evaluator as Evaluate(), and returns a BitmapCursor over the result. Paged reads
// (HacFileSystem::SearchPage) seek it to the first DocId after their resume token
// and pull one page; nothing survives across requests, so a cursor is re-execution
// state, never a result cache.
#ifndef HAC_INDEX_POSTING_CURSOR_H_
#define HAC_INDEX_POSTING_CURSOR_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "src/support/bitmap.h"

namespace hac {

class PostingCursor {
 public:
  // Sentinel "no more matches" position. Real DocIds are dense small integers.
  static constexpr uint32_t kCursorEnd = UINT32_MAX;

  virtual ~PostingCursor() = default;

  // Current match, or kCursorEnd once exhausted. Valid after the first SeekGE.
  uint32_t Value() const { return value_; }
  bool AtEnd() const { return value_ == kCursorEnd; }

  // Positions the cursor at the first match >= target and returns it (kCursorEnd
  // when exhausted).
  virtual uint32_t SeekGE(uint32_t target) = 0;

  // Advances past the current match.
  uint32_t Next() { return AtEnd() ? kCursorEnd : SeekGE(value_ + 1); }

 protected:
  uint32_t value_ = 0;
};

using PostingCursorPtr = std::unique_ptr<PostingCursor>;

// Cursor over an owned bitmap: SeekGE scans words from target/64, so it never
// touches the bitmap below the frontier.
class BitmapCursor final : public PostingCursor {
 public:
  explicit BitmapCursor(Bitmap bm) : bm_(std::move(bm)) {}

  uint32_t SeekGE(uint32_t target) override;

 private:
  Bitmap bm_;
};

}  // namespace hac

#endif  // HAC_INDEX_POSTING_CURSOR_H_

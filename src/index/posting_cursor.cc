#include "src/index/posting_cursor.h"

namespace hac {

uint32_t BitmapCursor::SeekGE(uint32_t target) {
  const std::vector<uint64_t>& words = bm_.words();
  size_t w = target / 64;
  if (w >= words.size()) {
    return value_ = kCursorEnd;
  }
  uint64_t word = words[w] & (~uint64_t{0} << (target % 64));
  while (word == 0) {
    if (++w >= words.size()) {
      return value_ = kCursorEnd;
    }
    word = words[w];
  }
  return value_ = static_cast<uint32_t>(w * 64 +
                                        static_cast<size_t>(__builtin_ctzll(word)));
}

}  // namespace hac

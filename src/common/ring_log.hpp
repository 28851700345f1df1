#ifndef LIFTING_COMMON_RING_LOG_HPP
#define LIFTING_COMMON_RING_LOG_HPP

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/small_vector.hpp"

/// A flat circular log: push at the back, prune from the front, O(1) both.
///
/// This is the storage behind the per-node accountability histories
/// (src/lifting/history.hpp) and the engine's sent-proposal window. Those
/// logs hold a sliding window of the last n_h periods, so a deque is the
/// obvious shape — but deques allocate per block and, worse, entries whose
/// payload is a SmallVector lose their spilled heap capacity every time an
/// entry is popped and a new one is constructed. A ring never destroys its
/// slots: pop_front() just advances the head index and the slot's payload
/// buffers stay allocated until the same slot is reused by a later
/// push_slot(). Once the ring has grown to the window's high-water entry
/// count, a steady-state run performs zero allocations here.
///
/// A ring of plain ids doubles as a packed payload store: append() pushes
/// a whole run (one record's chunk ids) and pop_front(n) drops one, so a
/// log of fixed-width keys plus one such ring holds variable-length
/// records back to back, with no per-record inline capacity to pay for.
///
/// Contract for slot reuse: refill payload containers with `.assign()` /
/// `.clear()` + `push_back`, never `operator=` — SmallVector's assignment
/// operators release the spilled buffer, which would defeat the reuse.
///
/// Growth doubles the backing vector and linearizes the live entries (the
/// only moment entries are moved); capacity is never given back. The
/// backing storage is a RecycledVector, so growth reallocations (and the
/// final release at teardown) cycle through the thread's spill-block
/// cache instead of the system allocator.

namespace lifting {

template <typename T>
class RingLog {
 public:
  RingLog() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }

  /// Oldest-first access: (*this)[0] is the front, [size()-1] the back.
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    LIFTING_ASSERT(i < size_, "RingLog index out of range");
    return buf_[wrap(head_ + i)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    LIFTING_ASSERT(i < size_, "RingLog index out of range");
    return buf_[wrap(head_ + i)];
  }

  [[nodiscard]] T& front() noexcept { return (*this)[0]; }
  [[nodiscard]] const T& front() const noexcept { return (*this)[0]; }
  [[nodiscard]] T& back() noexcept { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return (*this)[size_ - 1]; }

  /// Entries [i, i + n) as at most two contiguous pieces, oldest first:
  /// the run up to the buffer's physical end, then the wrapped remainder
  /// (empty when the run does not wrap). For scans that should not pay an
  /// index wrap and bounds check per entry.
  [[nodiscard]] std::pair<std::span<const T>, std::span<const T>> segments(
      std::size_t i, std::size_t n) const noexcept {
    LIFTING_ASSERT(i + n <= size_, "RingLog segment out of range");
    const std::size_t start = wrap(head_ + i);
    const std::size_t first = std::min(n, buf_.size() - start);
    return {std::span<const T>(buf_.data() + start, first),
            std::span<const T>(buf_.data(), n - first)};
  }

  /// Appends an entry and returns the (recycled) slot for the caller to
  /// fill. The slot holds whatever a previously pruned entry left behind —
  /// callers overwrite every field they read back.
  [[nodiscard]] T& push_slot() {
    if (size_ == buf_.size()) grow(size_ + 1);
    T& slot = buf_[wrap(head_ + size_)];
    ++size_;
    return slot;
  }

  /// Appends a run of entries in order — one capacity check and at most
  /// two contiguous copies, however the run straddles the buffer's end.
  /// For the packed payload rings of the history logs, whose entries are
  /// plain ids. The source must not alias this ring.
  void append(const T* first, std::size_t n) {
    if (size_ + n > buf_.size()) grow(size_ + n);
    const std::size_t tail = wrap(head_ + size_);
    const std::size_t before_end = std::min(n, buf_.size() - tail);
    std::copy(first, first + before_end, buf_.begin() + tail);
    std::copy(first + before_end, first + n, buf_.begin());
    size_ += n;
  }

  /// Drops the oldest entry without destroying the slot (its payload
  /// capacity is recycled by a future push_slot()).
  void pop_front() noexcept { pop_front(1); }

  /// Drops the `n` oldest entries at once.
  void pop_front(std::size_t n) noexcept {
    LIFTING_ASSERT(n <= size_, "pop_front past the end of a RingLog");
    head_ = wrap(head_ + n);
    size_ -= n;
  }

  /// Forgets the live entries; slots (and their payload capacity) remain.
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  [[nodiscard]] std::size_t wrap(std::size_t i) const noexcept {
    return i < buf_.size() ? i : i - buf_.size();
  }

  /// Doubles (from 8) until `needed` entries fit.
  void grow(std::size_t needed) {
    std::size_t new_cap = buf_.empty() ? 8 : buf_.size() * 2;
    while (new_cap < needed) new_cap *= 2;
    RecycledVector<T> next;
    next.reserve(new_cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next.push_back(std::move((*this)[i]));
    }
    next.resize(new_cap);
    buf_.swap(next);
    head_ = 0;
  }

  RecycledVector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace lifting

#endif  // LIFTING_COMMON_RING_LOG_HPP

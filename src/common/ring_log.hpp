#ifndef LIFTING_COMMON_RING_LOG_HPP
#define LIFTING_COMMON_RING_LOG_HPP

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>

#include "common/assert.hpp"
#include "common/small_vector.hpp"

/// A paged circular log: push at the back, prune from the front, O(1) both.
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
/// Storage is a table of fixed-size pages of about kPageBytes each (at
/// least one entry). Growth appends one page and moves nothing; a page
/// that pop_front() drains is rotated to the back of the table for reuse,
/// so capacity is never given back and a sliding window cycles through
/// the pages it already owns. The live entries therefore start inside the
/// first page and run contiguously through the table. Every page is the
/// same SpillCache size class, taken through RecycledAllocator: a torn-down
/// ring returns pages that a rebuilt one takes back one for one, with no
/// doubling intermediates parked in between.

namespace lifting {

template <typename T>
class RingLog {
 public:
  /// Target page size. One SpillCache block: small enough that a ring
  /// wastes at most one partly used page, large enough that the page table
  /// stays a handful of pointers.
  static constexpr std::size_t kPageBytes = 512;
  static constexpr std::size_t kPageEntries =
      std::max<std::size_t>(1, kPageBytes / sizeof(T));

  RingLog() = default;
  RingLog(RingLog&& other) noexcept
      : pages_(std::move(other.pages_)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  RingLog& operator=(RingLog&& other) noexcept {
    if (this != &other) {
      release();
      pages_ = std::move(other.pages_);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  RingLog(const RingLog&) = delete;
  RingLog& operator=(const RingLog&) = delete;
  ~RingLog() { release(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return pages_.size() * kPageEntries;
  }

  /// Oldest-first access: (*this)[0] is the front, [size()-1] the back.
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    LIFTING_ASSERT(i < size_, "RingLog index out of range");
    return at(head_ + i);
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    LIFTING_ASSERT(i < size_, "RingLog index out of range");
    return at(head_ + i);
  }

  [[nodiscard]] T& front() noexcept { return (*this)[0]; }
  [[nodiscard]] const T& front() const noexcept { return (*this)[0]; }
  [[nodiscard]] T& back() noexcept { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return (*this)[size_ - 1]; }

  /// Walks entries [i, i + n) as contiguous spans (one per page touched),
  /// oldest first, until `visit(span)` returns true. Returns whether it
  /// did. For scans that should not pay a page lookup per entry.
  template <typename Visit>
  bool spans(std::size_t i, std::size_t n, Visit&& visit) const {
    LIFTING_ASSERT(i + n <= size_, "RingLog span out of range");
    std::size_t pos = head_ + i;
    while (n > 0) {
      const std::size_t off = pos % kPageEntries;
      const std::size_t len = std::min(n, kPageEntries - off);
      if (visit(std::span<const T>(pages_[pos / kPageEntries] + off, len))) {
        return true;
      }
      pos += len;
      n -= len;
    }
    return false;
  }

  /// Like spans(), newest span first.
  template <typename Visit>
  bool spans_newest_first(std::size_t i, std::size_t n, Visit&& visit) const {
    LIFTING_ASSERT(i + n <= size_, "RingLog span out of range");
    std::size_t end = head_ + i + n;  // one past the next span's last entry
    while (n > 0) {
      const std::size_t off = (end - 1) % kPageEntries;
      const std::size_t len = std::min(n, off + 1);
      const T* page = pages_[(end - 1) / kPageEntries];
      if (visit(std::span<const T>(page + off + 1 - len, len))) return true;
      end -= len;
      n -= len;
    }
    return false;
  }

  /// Appends an entry and returns the (recycled) slot for the caller to
  /// fill. The slot holds whatever a previously pruned entry left behind —
  /// callers overwrite every field they read back.
  [[nodiscard]] T& push_slot() {
    reserve_back(1);
    return at(head_ + size_++);
  }

  /// Appends a run of entries in order — one capacity check and one
  /// contiguous copy per page the run touches. For the packed payload
  /// rings of the history logs, whose entries are plain ids. The source
  /// must not alias this ring.
  void append(const T* first, std::size_t n) {
    append_each(n, [first](std::size_t k) { return first[k]; });
  }

  /// Appends n entries, the k-th being `value_of(k)`, in order.
  template <typename ValueOf>
  void append_each(std::size_t n, ValueOf&& value_of) {
    reserve_back(n);
    std::size_t pos = head_ + size_;
    size_ += n;
    for (std::size_t k = 0; k < n;) {
      const std::size_t off = pos % kPageEntries;
      const std::size_t len = std::min(n - k, kPageEntries - off);
      T* dst = pages_[pos / kPageEntries] + off;
      for (std::size_t j = 0; j < len; ++j) dst[j] = value_of(k + j);
      pos += len;
      k += len;
    }
  }

  /// Drops the oldest entry without destroying the slot (its payload
  /// capacity is recycled by a future push_slot()).
  void pop_front() noexcept { pop_front(1); }

  /// Drops the `n` oldest entries at once. Pages drained on the way move
  /// to the back of the table, ready for the next appends.
  void pop_front(std::size_t n) noexcept {
    LIFTING_ASSERT(n <= size_, "pop_front past the end of a RingLog");
    head_ += n;
    size_ -= n;
    while (head_ >= kPageEntries) {
      std::rotate(pages_.begin(), pages_.begin() + 1, pages_.end());
      head_ -= kPageEntries;
    }
  }

  /// Forgets the live entries; pages (and their slots' payload capacity)
  /// remain.
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  using PageAllocator = RecycledAllocator<T>;

  /// The entry at `pos` counted from the start of the first page.
  [[nodiscard]] T& at(std::size_t pos) const noexcept {
    return pages_[pos / kPageEntries][pos % kPageEntries];
  }

  /// Adds pages until `n` more entries fit behind the back.
  void reserve_back(std::size_t n) {
    while (head_ + size_ + n > capacity()) {
      if (pages_.size() == pages_.capacity()) {  // never leak the page below
        pages_.reserve(std::max<std::size_t>(8, 2 * pages_.size()));
      }
      T* page = PageAllocator{}.allocate(kPageEntries);
      std::uninitialized_value_construct_n(page, kPageEntries);
      pages_.push_back(page);
    }
  }

  void release() noexcept {
    for (T* page : pages_) {
      std::destroy_n(page, kPageEntries);
      PageAllocator{}.deallocate(page, kPageEntries);
    }
    pages_.clear();
  }

  RecycledVector<T*> pages_;  // live entries start at pages_[0][head_]
  std::size_t head_ = 0;      // < kPageEntries
  std::size_t size_ = 0;
};

}  // namespace lifting

#endif  // LIFTING_COMMON_RING_LOG_HPP

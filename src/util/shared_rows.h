#ifndef PAYGO_UTIL_SHARED_ROWS_H_
#define PAYGO_UTIL_SHARED_ROWS_H_

/// \file shared_rows.h
/// \brief Row containers that snapshots share instead of copying.
///
/// A snapshot of the integration system is copied on every arrival (the
/// serving layer mutates a clone and publishes it). Its per-schema and
/// per-domain tables must therefore copy in O(1) or O(handles), and an
/// arrival must touch only the rows it changes. Two containers do that:
///
///  * AppendRows<T>, for tables that only grow at the end (feature
///    vectors, per-schema memberships). One contiguous block holds the
///    rows plus an atomic count of the slots in use; a view is the pair
///    (block, its own size). Copying a view copies one handle. Appending
///    to a view whose size equals the block's count claims the next slot
///    with a compare-and-swap and constructs the row there; a view never
///    reads slots at or past its own size, so older snapshots and sibling
///    views are undisturbed. When the slot is taken (a sibling appended
///    first) or the block is full, the view's rows are copied into a new
///    block with room for twice as many. Rows stay contiguous, so a view
///    is a std::span<const T>.
///  * SharedRows<T>, for tables whose rows are replaced (per-domain
///    clusters and member lists, classifier rows). Each row is an
///    immutable shared handle; replacing one row allocates only that row,
///    and iteration yields const T&.
///
/// Both track the heap bytes of their rows as rows come and go, so
/// MemoryBytes() is O(1). A row's own heap bytes are RowHeapBytes(row):
/// the capacity of a std::vector, or T::HeapBytes().

#include <atomic>
#include <cstddef>
#include <iterator>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace paygo {

/// Heap bytes owned by a vector row.
template <typename E>
std::size_t RowHeapBytes(const std::vector<E>& row) {
  return row.capacity() * sizeof(E);
}

/// Heap bytes owned by a row type that reports them itself.
template <typename R>
auto RowHeapBytes(const R& row) -> decltype(row.HeapBytes()) {
  return row.HeapBytes();
}

/// \brief A growable table whose views share one contiguous block.
///
/// Thread-safety: const members are pure reads. push_back mutates only
/// this view; views on other threads may append to copies of the same
/// view concurrently (the slot claim is atomic, and the loser copies).
template <typename T>
class AppendRows {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "a claimed slot must be filled without throwing");

 public:
  using value_type = T;
  using const_iterator = const T*;
  using iterator = const_iterator;

  AppendRows() = default;
  AppendRows(const AppendRows&) = default;
  AppendRows& operator=(const AppendRows&) = default;
  AppendRows(AppendRows&& other) noexcept { *this = std::move(other); }
  AppendRows& operator=(AppendRows&& other) noexcept {
    block_ = std::move(other.block_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    heap_bytes_ = std::exchange(other.heap_bytes_, 0);
    return *this;
  }
  /// Moves \p rows into a new block with room for half as many more, so
  /// the arrivals after a build append in place. Implicit because it only
  /// moves: an lvalue vector does not bind, so a deep copy is always
  /// spelled out at the call site.
  AppendRows(std::vector<T>&& rows) {  // NOLINT(google-explicit-constructor)
    if (rows.empty()) return;
    block_ = std::make_shared<Block>(rows.size() + rows.size() / 2 + 4);
    std::uninitialized_move(rows.begin(), rows.end(), block_->rows);
    block_->committed.store(rows.size());
    data_ = block_->rows;
    size_ = rows.size();
    for (const T& row : *this) heap_bytes_ += RowHeapBytes(row);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* data() const { return data_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  const T& back() const { return data_[size_ - 1]; }
  /// Rows this view's block can hold before the next append reallocates.
  std::size_t capacity() const { return block_ ? block_->capacity : 0; }

  operator std::span<const T>() const {  // NOLINT(google-explicit-constructor)
    return {data_, size_};
  }

  /// Appends \p row to this view. O(1) when this view ends where its block
  /// does and the block has room; otherwise copies this view's rows into a
  /// new block with room for twice as many (amortized O(1) along one chain
  /// of snapshots). Never changes what another view reads.
  void push_back(T row) {
    std::size_t expected = size_;
    if (block_ == nullptr || size_ == block_->capacity ||
        !block_->committed.compare_exchange_strong(expected, size_ + 1)) {
      Reallocate(size_ < 2 ? 4 : 2 * size_);
    }
    heap_bytes_ += RowHeapBytes(row);
    ::new (static_cast<void*>(data_ + size_)) T(std::move(row));
    ++size_;
  }

  /// The block (every slot, used or not) plus the heap bytes of this
  /// view's rows.
  std::size_t MemoryBytes() const {
    return capacity() * sizeof(T) + heap_bytes_;
  }

  /// True when both views read the same block (for sharing tests).
  bool SharesBlockWith(const AppendRows& other) const {
    return block_ != nullptr && block_ == other.block_;
  }

 private:
  struct Block {
    explicit Block(std::size_t cap)
        : capacity(cap), rows(std::allocator<T>().allocate(cap)) {}
    ~Block() {
      std::destroy_n(rows, committed.load());
      std::allocator<T>().deallocate(rows, capacity);
    }
    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;

    /// Slots [0, committed) are constructed (or claimed by an appender
    /// that holds a handle and is constructing it).
    std::atomic<std::size_t> committed{0};
    const std::size_t capacity;
    T* const rows;
  };

  /// Copies this view's rows into a new block of \p cap > size_ slots and
  /// claims slot size_ in it.
  void Reallocate(std::size_t cap) {
    auto block = std::make_shared<Block>(cap);
    std::uninitialized_copy_n(data_, size_, block->rows);
    block->committed.store(size_ + 1);
    block_ = std::move(block);
    data_ = block_->rows;
  }

  std::shared_ptr<Block> block_;
  T* data_ = nullptr;  ///< block_->rows, cached for one-load indexing.
  std::size_t size_ = 0;
  std::size_t heap_bytes_ = 0;
};

/// \brief A table of immutable, individually shared rows.
///
/// Copying the table copies handles; Set and push_back allocate only the
/// row they install. Iterators and operator[] yield const T&, and ==
/// compares row contents, so the table reads like a std::vector<T>.
template <typename T>
class SharedRows {
 public:
  using value_type = T;
  using Handle = std::shared_ptr<const T>;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    explicit const_iterator(typename std::vector<Handle>::const_iterator it)
        : it_(it) {}
    const T& operator*() const { return **it_; }
    const T* operator->() const { return it_->get(); }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    const_iterator operator++(int) { return const_iterator(it_++); }
    friend bool operator==(const const_iterator& a,
                           const const_iterator& b) = default;

   private:
    typename std::vector<Handle>::const_iterator it_;
  };
  using iterator = const_iterator;

  SharedRows() = default;
  /// Wraps each of \p rows in its own handle (moved, not copied).
  explicit SharedRows(std::vector<T>&& rows) {
    handles_.reserve(rows.size());
    for (T& row : rows) push_back(std::move(row));
  }

  std::size_t size() const { return handles_.size(); }
  bool empty() const { return handles_.empty(); }
  const T& operator[](std::size_t i) const { return *handles_[i]; }
  const_iterator begin() const { return const_iterator(handles_.begin()); }
  const_iterator end() const { return const_iterator(handles_.end()); }
  /// Row \p i's handle: equal handles mean the row is shared.
  const Handle& handle(std::size_t i) const { return handles_[i]; }

  /// Replaces row \p i; copies of this table keep the old row.
  void Set(std::size_t i, T row) {
    heap_bytes_ -= RowHeapBytes(*handles_[i]);
    heap_bytes_ += RowHeapBytes(row);
    handles_[i] = std::make_shared<const T>(std::move(row));
  }
  void push_back(T row) {
    heap_bytes_ += RowHeapBytes(row);
    handles_.push_back(std::make_shared<const T>(std::move(row)));
  }

  /// A deep copy as a plain vector.
  std::vector<T> ToVector() const { return {begin(), end()}; }

  /// The handle array plus each row's object and heap bytes.
  std::size_t MemoryBytes() const {
    return handles_.capacity() * sizeof(Handle) + size() * sizeof(T) +
           heap_bytes_;
  }

  friend bool operator==(const SharedRows& a, const SharedRows& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a.handles_[i] != b.handles_[i] && !(a[i] == b[i])) return false;
    }
    return true;
  }

 private:
  std::vector<Handle> handles_;
  std::size_t heap_bytes_ = 0;
};

}  // namespace paygo

#endif  // PAYGO_UTIL_SHARED_ROWS_H_

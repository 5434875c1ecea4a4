// A flat hash multimap from 64-bit key hashes to table row indices — the
// one row-index structure behind CTable's data-part index, the persistent
// join indexes and the evaluator's per-firing join index (DESIGN.md §8).
//
// Layout: an open-addressing slot table (linear probing, power-of-two
// capacity, load at most 1/2) maps each distinct hash to the first and
// last entry of its bucket; one entry per indexed row holds the row and a
// link to the next entry of the same bucket. Adding a row is O(1) and
// allocation-free once the two arrays have grown, a copy is two flat
// vector copies, and nothing is allocated per bucket.
//
// Buckets keep insertion order; every user adds rows in ascending order,
// so buckets are ascending. Lookups are by hash only: rows whose keys
// collide share a bucket, and callers re-check key values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace faure::rel {

class RowIndex {
 private:
  struct Entry {
    uint32_t row;
    uint32_t next;
  };
  static constexpr uint32_t kEnd = UINT32_MAX;

 public:
  /// The rows of one hash, in insertion order. Invalidated by add().
  class Bucket {
   public:
    struct iterator {
      const Entry* entries;
      uint32_t e;
      size_t operator*() const { return entries[e].row; }
      iterator& operator++() {
        e = entries[e].next;
        return *this;
      }
      bool operator==(const iterator& o) const { return e == o.e; }
    };

    iterator begin() const { return {entries_, head_}; }
    iterator end() const { return {entries_, kEnd}; }
    bool empty() const { return head_ == kEnd; }

   private:
    friend class RowIndex;
    Bucket(const Entry* entries, uint32_t head)
        : entries_(entries), head_(head) {}
    const Entry* entries_;
    uint32_t head_;
  };

  /// Adds `row` to the bucket of `hash`, after the rows already there.
  /// Throws std::length_error past 2^32 - 1 rows (rows are stored in 32
  /// bits to halve the index's memory).
  void add(size_t hash, size_t row);

  /// The rows added under `hash`; empty when there are none.
  Bucket find(size_t hash) const;

  /// Number of indexed rows.
  size_t size() const { return entries_.size(); }
  /// Number of distinct hashes (non-empty buckets).
  size_t keyCount() const { return keys_; }

  /// Calls fn(Bucket) once per non-empty bucket, in slot order.
  template <class Fn>
  void forEachBucket(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.head != kEnd) fn(Bucket(entries_.data(), s.head));
    }
  }

  /// Renumbers rows after a compaction: `oldToNew[r]` is row r's new
  /// index, or SIZE_MAX when the row was removed. The map must be
  /// monotone over survivors (it is under CTable::pruneIf), so buckets
  /// keep their order; emptied buckets disappear.
  void remap(const std::vector<size_t>& oldToNew);

  /// Sizes the table for `keys` distinct hashes and `rows` rows.
  void reserve(size_t keys, size_t rows);

 private:
  struct Slot {
    size_t hash = 0;
    uint32_t head = kEnd;  // kEnd: empty slot
    uint32_t tail = kEnd;
  };

  /// The slot holding `hash`, or the empty slot where it would go.
  /// Requires a non-empty slot table.
  size_t slotOf(size_t hash) const;
  /// Rehashes into `capacity` slots (a power of two above 2 * keys_).
  void rehash(size_t capacity);

  std::vector<Slot> slots_;
  std::vector<Entry> entries_;
  size_t keys_ = 0;
  unsigned shift_ = 64;  // slot = (mixed hash) >> shift_
};

}  // namespace faure::rel

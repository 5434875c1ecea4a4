#include "relational/row_index.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace faure::rel {

size_t RowIndex::slotOf(size_t hash) const {
  // Fibonacci hashing spreads the high bits of every key hash over the
  // slot range; linear probing from there.
  size_t mask = slots_.size() - 1;
  size_t s = static_cast<size_t>(hash * 0x9e3779b97f4a7c15ULL) >> shift_;
  while (slots_[s].head != kEnd && slots_[s].hash != hash) s = (s + 1) & mask;
  return s;
}

void RowIndex::rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  for (const Slot& s : old) {
    if (s.head != kEnd) slots_[slotOf(s.hash)] = s;
  }
}

void RowIndex::add(size_t hash, size_t row) {
  if (row >= kEnd || entries_.size() >= kEnd) {
    throw std::length_error("RowIndex holds at most 2^32 - 1 rows");
  }
  if (slots_.empty()) rehash(8);
  uint32_t e = static_cast<uint32_t>(entries_.size());
  entries_.push_back(Entry{static_cast<uint32_t>(row), kEnd});
  size_t s = slotOf(hash);
  if (slots_[s].head != kEnd) {
    entries_[slots_[s].tail].next = e;
    slots_[s].tail = e;
    return;
  }
  if (2 * (keys_ + 1) > slots_.size()) {
    rehash(2 * slots_.size());
    s = slotOf(hash);
  }
  slots_[s] = Slot{hash, e, e};
  ++keys_;
}

RowIndex::Bucket RowIndex::find(size_t hash) const {
  if (slots_.empty()) return Bucket(entries_.data(), kEnd);
  return Bucket(entries_.data(), slots_[slotOf(hash)].head);
}

void RowIndex::remap(const std::vector<size_t>& oldToNew) {
  RowIndex out;
  out.reserve(keys_, entries_.size());
  for (const Slot& s : slots_) {
    for (uint32_t e = s.head; e != kEnd; e = entries_[e].next) {
      size_t r = entries_[e].row;
      size_t nr = r < oldToNew.size() ? oldToNew[r] : SIZE_MAX;
      if (nr != SIZE_MAX) out.add(s.hash, nr);
    }
  }
  *this = std::move(out);
}

void RowIndex::reserve(size_t keys, size_t rows) {
  entries_.reserve(rows);
  size_t capacity = std::bit_ceil(std::max<size_t>(8, 2 * keys));
  if (capacity > slots_.size()) rehash(capacity);
}

}  // namespace faure::rel

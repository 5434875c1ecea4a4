// Hash-consing of condition formulas.
//
// Every FormulaNode the smart constructors build is routed through the
// process-wide FormulaInterner, so structurally equal formulas share one
// node and Formula::operator== is a pointer comparison. That turns the
// hot syntactic paths of fixed-point evaluation — conj/disj dedup,
// impliesSyntactically's conjunct-set scans, CTable condition merging —
// into O(1) identity tests, and gives the solver's VerdictCache a stable
// key (the node address) for memoizing check()/implies() verdicts.
//
// The interner holds weak references only: a formula nobody uses anymore
// is freed normally, and its table slot is swept lazily (on bucket walk
// and on periodic table growth), so long-running sessions do not leak
// every condition they ever built. Thread-safe: the table is sharded by
// node hash, one mutex per shard, so concurrent scenario forks interning
// join conditions rarely contend.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "smt/formula.hpp"

namespace faure::smt {

class FormulaInterner {
 public:
  /// The process-wide instance (formulas from different registries can
  /// share structure; c-variable *semantics* never enter the node).
  static FormulaInterner& instance();

  /// Returns the canonical shared node structurally equal to `node`,
  /// creating it if absent. `node.hash` must already be set and `node`'s
  /// children must themselves be interned (true for everything built
  /// through Formula's factories — kids are compared by pointer).
  std::shared_ptr<const FormulaNode> intern(FormulaNode&& node);

  struct Stats {
    uint64_t hits = 0;    // intern() found an existing node
    uint64_t misses = 0;  // intern() created a node
    uint64_t sweeps = 0;  // full expired-entry sweeps
    size_t entries = 0;   // live (non-expired at last count) entries
  };
  Stats stats() const;

  FormulaInterner(const FormulaInterner&) = delete;
  FormulaInterner& operator=(const FormulaInterner&) = delete;

 private:
  FormulaInterner() = default;

  static constexpr size_t kShards = 16;
  /// A shard sweeps expired weak entries whenever its bucket count
  /// doubles past this floor since the last sweep.
  static constexpr size_t kSweepFloor = 1024;

  struct Shard {
    mutable std::mutex mu;
    // node hash -> candidates with that hash (collisions are rare; the
    // vector also holds expired weak_ptrs until the next walk or sweep).
    std::unordered_map<size_t, std::vector<std::weak_ptr<const FormulaNode>>>
        buckets;
    size_t sweepAt = kSweepFloor;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t sweeps = 0;
  };

  static void sweep(Shard& shard);

  Shard shards_[kShards];
};

}  // namespace faure::smt

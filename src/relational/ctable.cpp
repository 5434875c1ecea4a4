#include "relational/ctable.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace faure::rel {

size_t Schema::indexOf(std::string_view name) const {
  auto it = byName_.find(name);
  return it == byName_.end() ? SIZE_MAX : it->second;
}

void JoinIndex::extend(const std::vector<Row>& rows) {
  for (size_t r = builtUpTo_; r < rows.size(); ++r) {
    size_t h = 0;
    if (keyHash(rows[r].vals, keyArgs_, h)) {
      rows_.add(h, r);
    } else {
      wild_.push_back(r);
    }
  }
  builtUpTo_ = rows.size();
}

void JoinIndex::remap(const std::vector<size_t>& oldToNew) {
  rows_.remap(oldToNew);
  size_t out = 0;
  for (size_t r : wild_) {
    size_t nr = r < oldToNew.size() ? oldToNew[r] : SIZE_MAX;
    if (nr != SIZE_MAX) wild_[out++] = nr;
  }
  wild_.resize(out);
  size_t covered = 0;
  for (size_t r = 0; r < builtUpTo_ && r < oldToNew.size(); ++r) {
    covered += oldToNew[r] != SIZE_MAX;
  }
  builtUpTo_ = covered;
}

const JoinIndex& CTable::ensureJoinIndex(
    const std::vector<size_t>& keyArgs) const {
  auto it = joinIndexes_.find(keyArgs);
  if (it == joinIndexes_.end()) {
    it = joinIndexes_.emplace(keyArgs, JoinIndex(keyArgs)).first;
  }
  if (it->second.builtUpTo() < rows_.size()) it->second.extend(rows_);
  return it->second;
}

const JoinIndex* CTable::findJoinIndex(
    const std::vector<size_t>& keyArgs) const {
  auto it = joinIndexes_.find(keyArgs);
  return it == joinIndexes_.end() ? nullptr : &it->second;
}

void CTable::checkRow(const std::vector<Value>& vals) const {
  if (vals.size() != schema_.arity()) {
    throw EvalError("arity mismatch inserting into '" + schema_.name() +
                    "': got " + std::to_string(vals.size()) + ", want " +
                    std::to_string(schema_.arity()));
  }
  for (size_t i = 0; i < vals.size(); ++i) {
    ValueType want = schema_.attribute(i).type;
    if (want == ValueType::Any || vals[i].isCVar()) continue;
    if (vals[i].constantType() != want) {
      throw TypeError("attribute '" + schema_.attribute(i).name + "' of '" +
                      schema_.name() + "' expects " +
                      std::string(typeName(want)) + ", got " +
                      vals[i].toString());
    }
  }
}

bool CTable::insert(std::vector<Value> vals, smt::Formula cond) {
  checkRow(vals);
  if (cond.isFalse()) return false;
  size_t h = hashValues(vals);
  for (size_t idx : index_.find(h)) {
    if (rows_[idx].vals == vals) {
      smt::Formula merged = smt::Formula::disj2(rows_[idx].cond, cond);
      if (merged == rows_[idx].cond) return false;
      rows_[idx].cond = std::move(merged);
      return true;
    }
  }
  index_.add(h, rows_.size());
  rows_.emplace_back(std::move(vals), std::move(cond));
  return true;
}

bool CTable::append(std::vector<Value> vals, smt::Formula cond) {
  checkRow(vals);
  if (cond.isFalse()) return false;
  index_.add(hashValues(vals), rows_.size());
  rows_.emplace_back(std::move(vals), std::move(cond));
  return true;
}

std::vector<size_t> CTable::rowsWithData(const std::vector<Value>& vals) const {
  std::vector<size_t> out;
  for (size_t idx : index_.find(hashValues(vals))) {
    if (rows_[idx].vals == vals) out.push_back(idx);
  }
  return out;
}

void CTable::consolidate() {
  // Append-mode duplication is the exception, not the rule: scan the
  // hash index for repeated data parts first and leave the table
  // untouched — row order included — when nothing would merge. A row
  // whose condition was forced to `false` (setCondition) also triggers
  // the rebuild, which drops it, preserving the historical contract.
  bool rebuild = false;
  for (const auto& row : rows_) {
    if (row.cond.isFalse()) {
      rebuild = true;
      break;
    }
  }
  if (!rebuild) {
    index_.forEachBucket([&](const RowIndex::Bucket& bucket) {
      for (auto i = bucket.begin(); i != bucket.end() && !rebuild; ++i) {
        for (auto j = bucket.begin(); j != i; ++j) {
          if (rows_[*i].vals == rows_[*j].vals) {
            rebuild = true;
            break;
          }
        }
      }
    });
  }
  if (!rebuild) return;

  CTable merged(schema_);
  merged.rows_.reserve(rows_.size());
  merged.index_.reserve(index_.keyCount(), rows_.size());
  for (auto& row : rows_) {
    merged.insert(std::move(row.vals), std::move(row.cond));
  }
  // The merge renumbers rows, so the move-assignment deliberately
  // replaces joinIndexes_ with `merged`'s empty map: secondary indexes
  // are dropped here and rebuilt lazily on next use. The no-rebuild
  // path above keeps them (rows untouched).
  *this = std::move(merged);
}

smt::Formula CTable::conditionOf(const std::vector<Value>& vals) const {
  std::vector<smt::Formula> conds;
  for (size_t idx : index_.find(hashValues(vals))) {
    if (rows_[idx].vals == vals) conds.push_back(rows_[idx].cond);
  }
  return smt::Formula::disj(std::move(conds));
}

size_t CTable::pruneIf(const std::function<bool(const Row&)>& pred) {
  std::vector<Row> kept;
  kept.reserve(rows_.size());
  size_t removed = 0;
  // Survivor remap for the secondary indexes: monotone (row order is
  // preserved), SIZE_MAX marks removal.
  std::vector<size_t> oldToNew(rows_.size(), SIZE_MAX);
  for (size_t i = 0; i < rows_.size(); ++i) {
    Row& row = rows_[i];
    if (pred(row)) {
      ++removed;
    } else {
      oldToNew[i] = kept.size();
      kept.push_back(std::move(row));
    }
  }
  // Rows were moved into `kept` either way; put them back before any
  // early return or the table is left holding moved-from husks.
  rows_ = std::move(kept);
  if (removed == 0) return 0;
  index_.remap(oldToNew);
  for (auto& [keys, jidx] : joinIndexes_) jidx.remap(oldToNew);
  return removed;
}

size_t CTable::eraseWithData(const std::vector<Value>& vals) {
  checkRow(vals);
  // The index answers "is it even here" in O(1); only a hit pays the
  // pruneIf scan-and-rebuild.
  if (rowsWithData(vals).empty()) return 0;
  return pruneIf([&](const Row& row) { return row.vals == vals; });
}

void CTable::setCondition(size_t rowIndex, smt::Formula cond) {
  rows_.at(rowIndex).cond = std::move(cond);
}

std::vector<CVarId> CTable::collectVars() const {
  std::vector<CVarId> vars;
  for (const auto& row : rows_) {
    for (const auto& v : row.vals) {
      if (v.isCVar()) vars.push_back(v.asCVar());
    }
    row.cond.collectVars(vars);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

std::string CTable::toString(const CVarRegistry* reg) const {
  std::string out = schema_.name() + "(";
  for (size_t i = 0; i < schema_.arity(); ++i) {
    if (i > 0) out += ", ";
    out += schema_.attribute(i).name;
  }
  out += ")\n";
  for (const auto& row : rows_) {
    out += "  ";
    for (size_t i = 0; i < row.vals.size(); ++i) {
      if (i > 0) out += "\t";
      out += row.vals[i].toString(reg);
    }
    if (!row.cond.isTrue()) {
      out += "\t| ";
      row.cond.appendTo(out, reg);
    }
    out += "\n";
  }
  return out;
}

}  // namespace faure::rel

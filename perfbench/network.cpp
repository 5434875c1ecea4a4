#include <algorithm>

#include "common.hpp"

namespace faurebench {

namespace {

/// Protected links live only in this prefix of the chain: each doubles
/// the alternatives OR-ed into every downstream R condition, so their
/// number must not grow with the chain.
constexpr size_t kProtectedSpan = 42;

bool isProtected(size_t i) { return i % 7 == 0 && i < kProtectedSpan; }

std::vector<std::pair<uint64_t, int64_t>> initialAcl(size_t links,
                                                     uint64_t seed) {
  faure::util::Rng rng(seed ^ 0xac1dc0deULL);
  std::vector<std::pair<uint64_t, int64_t>> rows;
  for (size_t i = 0; i < links / 2; ++i) {
    rows.push_back({i, rng.range(20, 9000)});
  }
  return rows;
}

std::string aclFact(const std::pair<uint64_t, int64_t>& row) {
  return "Acl(app" + std::to_string(row.first) + ", " +
         std::to_string(row.second) + ")";
}

}  // namespace

std::string chainNetworkText(size_t links, uint64_t seed) {
  std::string text;
  size_t prot = 0;
  for (size_t i = 0; i < links && i < kProtectedSpan; i += 7) {
    text += "var l" + std::to_string(prot++) + "_ int 0 1\n";
  }
  text += "table F(flow sym, from int, to int)\n";
  text += "table Acl(app sym, port int)\n";
  size_t detour = links + 2;  // spare node ids for reroute pairs
  prot = 0;
  for (size_t i = 0; i < links; ++i) {
    const std::string a = std::to_string(i + 1);
    const std::string b = std::to_string(i + 2);
    if (isProtected(i)) {
      const std::string v = "l" + std::to_string(prot++) + "_";
      const std::string d = std::to_string(detour++);
      text += "row F f0 " + a + " " + b + " | " + v + " = 1\n";
      text += "row F f0 " + a + " " + d + " | " + v + " = 0\n";
      text += "row F f0 " + d + " " + b + "\n";
    } else {
      text += "row F f0 " + a + " " + b + "\n";
    }
  }
  for (const auto& [app, port] : initialAcl(links, seed)) {
    text += "row Acl app" + std::to_string(app) + " " + std::to_string(port) +
            "\n";
  }
  return text;
}

std::string chainProgramText(size_t links) {
  return "R(f,a,b) :- F(f,a,b).\n"
         "R(f,a,b) :- F(f,a,c), R(f,c,b).\n"
         "Deliver(f) :- R(f,1," +
         std::to_string(links + 1) +
         ").\n"
         "Open(app,p) :- Acl(app,p), p < 1024.\n"
         "Lockdown(app) :- Acl(app,p), !Open(app,p).\n";
}

EditStream::EditStream(size_t links, uint64_t seed)
    : links_(links), rng_(seed), acl_(initialAcl(links, seed)) {}

std::string EditStream::next(bool linkFlap) {
  if (linkFlap) {
    if (down_.has_value()) {
      const size_t i = *down_;
      down_.reset();
      return "+F(f0, " + std::to_string(i + 1) + ", " +
             std::to_string(i + 2) + ")";
    }
    // One of the chain's last sixteenth of links. Where a link fails
    // decides how much of R the next epochs re-derive and carry, so the
    // seed picks among links of nearly equal cost, past every protected
    // one.
    const size_t span = std::max<size_t>(links_ / 16, 2);
    size_t i = links_ - 1 - rng_.below(span);
    while (isProtected(i)) i = (i + 1) % links_;
    down_ = i;
    return "-F(f0, " + std::to_string(i + 1) + ", " + std::to_string(i + 2) +
           ")";
  }
  if (acl_.empty() || rng_.below(2) == 0) {
    std::pair<uint64_t, int64_t> row{rng_.below(std::max<size_t>(links_ / 2, 1)),
                                     static_cast<int64_t>(20 + rng_.below(8981))};
    if (std::find(acl_.begin(), acl_.end(), row) == acl_.end()) {
      acl_.push_back(row);
    }
    return "+" + aclFact(row);
  }
  const size_t k = rng_.below(acl_.size());
  const std::string edit = "-" + aclFact(acl_[k]);
  acl_.erase(acl_.begin() + static_cast<std::ptrdiff_t>(k));
  return edit;
}

}  // namespace faurebench

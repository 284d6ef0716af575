#include "tree/tree.hpp"

#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "support/require.hpp"

namespace slim::tree {

int Tree::addNode(int parent, std::string label, double branchLength, int mark) {
  const int id = numNodes();
  if (parent == kNoParent) {
    SLIM_REQUIRE(root_ == kNoParent, "tree already has a root");
    root_ = id;
  } else {
    SLIM_REQUIRE(parent >= 0 && parent < id, "parent must precede child");
    nodes_[parent].children.push_back(id);
  }
  Node n;
  n.parent = parent;
  n.label = std::move(label);
  n.branchLength = branchLength;
  n.mark = mark;
  nodes_.push_back(std::move(n));
  return id;
}

void Tree::finalize() {
  SLIM_REQUIRE(root_ != kNoParent, "tree has no root");
  postOrder_.clear();
  postOrder_.reserve(nodes_.size());
  numLeaves_ = 0;
  // Iterative post-order to avoid recursion depth limits on large trees.
  std::vector<std::pair<int, std::size_t>> stack;  // (node, next child slot)
  stack.emplace_back(root_, 0);
  while (!stack.empty()) {
    auto& [id, slot] = stack.back();
    if (slot < nodes_[id].children.size()) {
      const int child = nodes_[id].children[slot++];
      stack.emplace_back(child, 0);
    } else {
      if (nodes_[id].isLeaf()) ++numLeaves_;
      postOrder_.push_back(id);
      stack.pop_back();
    }
  }
}

void Tree::setBranchLength(int i, double t) {
  SLIM_REQUIRE(i >= 0 && i < numNodes(), "node index out of range");
  SLIM_REQUIRE(t >= 0.0, "branch length must be non-negative");
  nodes_[i].branchLength = t;
}

void Tree::setMark(int i, int mark) {
  SLIM_REQUIRE(i >= 0 && i < numNodes(), "node index out of range");
  SLIM_REQUIRE(mark >= 0, "mark must be non-negative");
  nodes_[i].mark = mark;
}

void Tree::setLabel(int i, std::string label) {
  SLIM_REQUIRE(i >= 0 && i < numNodes(), "node index out of range");
  nodes_[i].label = std::move(label);
}

void Tree::setForegroundBranch(int i) {
  SLIM_REQUIRE(i >= 0 && i < numNodes(), "node index out of range");
  SLIM_REQUIRE(i != root_, "the root has no branch above it");
  for (auto& n : nodes_) n.mark = 0;
  nodes_[i].mark = 1;
}

int Tree::foregroundBranch() const noexcept {
  for (int i = 0; i < numNodes(); ++i)
    if (nodes_[i].mark != 0 && i != root_) return i;
  return -1;
}

std::vector<int> Tree::leaves() const {
  std::vector<int> out;
  for (int id : postOrder_)
    if (nodes_[id].isLeaf()) out.push_back(id);
  return out;
}

std::vector<int> Tree::branches() const {
  std::vector<int> out;
  for (int id : postOrder_)
    if (id != root_) out.push_back(id);
  return out;
}

int Tree::findLeaf(std::string_view name) const noexcept {
  for (int i = 0; i < numNodes(); ++i)
    if (nodes_[i].isLeaf() && nodes_[i].label == name) return i;
  return -1;
}

void Tree::validate() const {
  SLIM_REQUIRE(root_ != kNoParent, "tree has no root");
  SLIM_REQUIRE(nodes_[root_].parent == kNoParent, "root has a parent");
  SLIM_REQUIRE(static_cast<int>(postOrder_.size()) == numNodes(),
               "post-order does not cover all nodes (finalize() missing?)");
  SLIM_REQUIRE(numLeaves_ >= 2, "tree must have at least 2 leaves");
  for (int i = 0; i < numNodes(); ++i) {
    const Node& n = nodes_[i];
    SLIM_REQUIRE(n.branchLength >= 0.0, "negative branch length");
    for (int c : n.children) {
      SLIM_REQUIRE(c >= 0 && c < numNodes(), "child index out of range");
      SLIM_REQUIRE(nodes_[c].parent == i, "parent/child mismatch");
    }
    if (i != root_) {
      const Node& p = nodes_[n.parent];
      bool found = false;
      for (int c : p.children) found = found || (c == i);
      SLIM_REQUIRE(found, "node missing from its parent's child list");
    }
  }
}

namespace {

class NewickParser {
 public:
  NewickParser(std::string_view text, std::string_view source)
      : text_(text), source_(source) {}

  Tree parse() {
    Tree t;
    skipSpace();
    parseSubtree(t, kNoParent);
    skipSpace();
    if (atEnd() || peek() != ';') fail("missing terminating ';'");
    ++pos_;
    skipSpace();
    if (!atEnd()) fail("trailing characters after ';'");
    t.finalize();
    if (t.numLeaves() < 2) fail("a tree needs at least 2 leaves");
    t.validate();
    return t;
  }

 private:
  bool atEnd() const noexcept { return pos_ >= text_.size(); }
  char peek() const noexcept { return text_[pos_]; }

  void skipSpace() {
    while (!atEnd() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument(std::string(source_) +
                                ": newick parse error at position " +
                                std::to_string(pos_) + ": " + what);
  }

  std::string parseName() {
    std::string name;
    while (!atEnd()) {
      const char c = peek();
      if (c == '(' || c == ')' || c == ',' || c == ':' || c == ';' ||
          c == '#' || std::isspace(static_cast<unsigned char>(c)))
        break;
      name.push_back(c);
      ++pos_;
    }
    return name;
  }

  double parseNumber() {
    skipSpace();
    std::size_t consumed = 0;
    double v = 0.0;
    try {
      v = std::stod(std::string(text_.substr(pos_)), &consumed);
    } catch (const std::exception&) {
      fail("expected a number");
    }
    pos_ += consumed;
    return v;
  }

  // Parses optional "#k", ":len" suffixes in either order; returns when
  // neither applies.
  void parseSuffixes(double& length, int& mark) {
    for (;;) {
      skipSpace();
      if (!atEnd() && peek() == '#') {
        ++pos_;
        // Range-check while still a double: an out-of-int-range (or NaN)
        // value must be rejected here, not cast (which would be UB).
        const double m = parseNumber();
        if (!(m >= 0.0 && m <= kMaxMark) ||
            static_cast<double>(static_cast<int>(m)) != m)
          fail("mark must be an integer in [0, 100000]");
        mark = static_cast<int>(m);
      } else if (!atEnd() && peek() == ':') {
        ++pos_;
        length = parseNumber();
        if (!(length >= 0.0 && std::isfinite(length)))
          fail("branch length must be finite and non-negative");
      } else {
        return;
      }
    }
  }

  int parseSubtree(Tree& t, int parent, int depth = 0) {
    // The parser recurses once per '(' nesting level; cap it so hostile
    // input cannot exhaust the stack.  8192 comfortably covers a pure
    // ladder tree of thousands of taxa.
    if (depth > kMaxDepth) fail("nesting deeper than 8192 levels");
    skipSpace();
    if (atEnd()) fail("unexpected end of input");
    if (peek() == '(') {
      ++pos_;
      // Create the internal node first so children can attach to it.
      const int id = t.addNode(parent, "", 0.0, 0);
      int childCount = 0;
      for (;;) {
        parseSubtree(t, id, depth + 1);
        ++childCount;
        skipSpace();
        if (atEnd()) fail("unterminated '('");
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        if (peek() == ')') {
          ++pos_;
          break;
        }
        fail("expected ',' or ')'");
      }
      if (childCount < 2) fail("internal node with fewer than 2 children");
      // Optional internal label, then suffixes.
      skipSpace();
      std::string label = parseName();
      double length = 0.0;
      int mark = 0;
      parseSuffixes(length, mark);
      t.setLabel(id, std::move(label));
      t.setBranchLength(id, length);
      if (mark != 0) t.setMark(id, mark);
      return id;
    }
    // Leaf.
    std::string name = parseName();
    if (name.empty()) fail("leaf with empty name");
    double length = 0.0;
    int mark = 0;
    parseSuffixes(length, mark);
    return t.addNode(parent, std::move(name), length, mark);
  }

  static constexpr int kMaxDepth = 8192;
  static constexpr double kMaxMark = 100000.0;

  std::string_view text_;
  std::string_view source_;
  std::size_t pos_ = 0;
};

void writeNewick(const Tree& t, int id, bool includeMarks, std::ostream& os) {
  const Node& n = t.node(id);
  if (!n.isLeaf()) {
    os << '(';
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      if (i) os << ',';
      writeNewick(t, n.children[i], includeMarks, os);
    }
    os << ')';
  }
  os << n.label;
  if (includeMarks && n.mark != 0 && id != t.root()) os << " #" << n.mark;
  if (id != t.root()) os << ':' << n.branchLength;
}

}  // namespace

Tree Tree::parseNewick(std::string_view newick, std::string_view source) {
  Tree t = NewickParser(newick, source).parse();
  t.source_ = source;
  return t;
}

std::string Tree::toNewick(bool includeMarks) const {
  std::ostringstream os;
  writeNewick(*this, root_, includeMarks, os);
  os << ';';
  return os.str();
}

}  // namespace slim::tree

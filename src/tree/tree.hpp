#pragma once
// Phylogenetic tree representation.
//
// Nodes live in a flat array; every non-root node carries the length of the
// branch connecting it to its parent, so "branch k" means "the edge above
// node k".  The branch-site model divides branches into one *foreground*
// branch (PAML's "#1" mark in the Newick string) and background branches;
// the mark is stored per node.
//
// Tree topology is immutable after parsing (the paper, Sec. I-B: "tree
// topology remains unchanged"); branch lengths and marks are mutable because
// the optimizer updates lengths in place.

#include <string>
#include <string_view>
#include <vector>

namespace slim::tree {

inline constexpr int kNoParent = -1;

struct Node {
  int parent = kNoParent;     ///< Parent node index, kNoParent for the root.
  std::vector<int> children;  ///< Child node indices (empty for leaves).
  std::string label;          ///< Taxon name for leaves; may be empty inside.
  double branchLength = 0.0;  ///< Length of the edge to the parent.
  int mark = 0;               ///< PAML branch mark: 0 background, 1 foreground.

  bool isLeaf() const noexcept { return children.empty(); }
};

class Tree {
 public:
  Tree() = default;

  /// Parse a Newick string, e.g. "((a:0.1,b:0.2):0.05 #1,c:0.3);".
  /// Supported label syntax: name, name:length, name#mark, name#mark:length,
  /// and marks after closing parentheses for internal branches.
  /// Throws std::invalid_argument on malformed input, with a message that
  /// starts with `source` (pass the file path) and names the offending
  /// position.
  static Tree parseNewick(std::string_view newick,
                          std::string_view source = "Newick input");

  /// The input's name used in error messages (set by parseNewick).
  const std::string& source() const noexcept { return source_; }

  /// Serialize back to Newick.  Branch lengths are always written; marks are
  /// written as " #k" when nonzero and includeMarks is true.
  std::string toNewick(bool includeMarks = true) const;

  int root() const noexcept { return root_; }
  int numNodes() const noexcept { return static_cast<int>(nodes_.size()); }
  int numLeaves() const noexcept { return numLeaves_; }
  /// Number of branches = numNodes - 1 (every non-root node owns one).
  int numBranches() const noexcept { return numNodes() - 1; }

  const Node& node(int i) const { return nodes_.at(i); }

  double branchLength(int i) const { return nodes_.at(i).branchLength; }
  void setBranchLength(int i, double t);

  int mark(int i) const { return nodes_.at(i).mark; }
  /// Set the PAML-style mark of node i's branch (does not clear others).
  void setMark(int i, int mark);
  /// Set the display label of node i.
  void setLabel(int i, std::string label);
  /// Clear all marks and set node i's branch as the (only) foreground branch.
  void setForegroundBranch(int i);
  /// Index of the foreground node, or -1 if no branch is marked.
  int foregroundBranch() const noexcept;

  /// Node indices in post-order (children before parents, root last):
  /// the traversal order of Felsenstein pruning.
  const std::vector<int>& postOrder() const noexcept { return postOrder_; }

  /// Indices of all leaves, in post-order.
  std::vector<int> leaves() const;

  /// Indices of all non-root nodes (= all branches), in post-order.
  std::vector<int> branches() const;

  /// Leaf index by taxon name; -1 if absent.
  int findLeaf(std::string_view name) const noexcept;

  /// Structural invariants: single root, parent/child coherence, post-order
  /// covers all nodes, at least 2 leaves, non-negative branch lengths.
  /// Throws std::invalid_argument on violation.
  void validate() const;

  // --- construction (used by the parser and the tree simulator) ---

  /// Append a node; parent == kNoParent makes it the root (allowed once).
  int addNode(int parent, std::string label, double branchLength, int mark = 0);

  /// Recompute the cached post-order after structural construction.
  void finalize();

 private:
  std::vector<Node> nodes_;
  std::vector<int> postOrder_;
  int root_ = kNoParent;
  int numLeaves_ = 0;
  std::string source_ = "tree";
};

}  // namespace slim::tree

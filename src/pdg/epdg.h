#ifndef JFEED_PDG_EPDG_H_
#define JFEED_PDG_EPDG_H_

#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/csr.h"
#include "graph/ids.h"
#include "javalang/ast.h"
#include "pdg/symbols.h"
#include "support/arena.h"
#include "support/result.h"

namespace jfeed::pdg {

/// Graph-node types of Definition 1. `Decl` is used only for method
/// parameters; local variable declarations with initializers are `Assign`
/// nodes (this matches the paper's Fig. 3, where `int even = 0` is an
/// assignment node).
enum class NodeType { kAssign, kBreak, kCall, kCond, kDecl, kReturn };

/// Edge types of Definition 2.
enum class EdgeType { kCtrl, kData };

const char* NodeTypeName(NodeType type);
const char* EdgeTypeName(EdgeType type);

/// Bundled allocation context for one submission's EPDGs: the bump arena
/// every node/edge/span lives in plus the symbol table interning variable
/// names. An Epdg either owns one privately (the default) or borrows a
/// pooled instance that a scheduler worker resets between submissions, so
/// steady-state EPDG construction performs near-zero allocator calls.
struct EpdgMemory {
  Arena arena;
  SymbolTable symbols;

  /// Invalidates every Epdg built on this memory.
  void Reset() {
    arena.Reset();
    symbols.Clear();
  }
};

/// Value view of one extended-PDG node. The EPDG stores nodes as parallel
/// arrays (structure-of-arrays); NodeAt() materializes this view, whose
/// spans and string_view point into the EPDG's arena. Variable sets are
/// spans of interned SymbolIds sorted by symbol *name*, so the matcher
/// iterates them in the same order the old std::set<std::string> gave.
struct Node {
  NodeType type = NodeType::kAssign;
  std::string_view content;  ///< Normalized Java expression (arena-backed).
  int line = 0;              ///< Source line (for feedback messages).
  std::span<const SymbolId> reads;   ///< Read vars, sorted by name.
  std::span<const SymbolId> writes;  ///< Written vars, sorted by name.
  const SymbolTable* symbols = nullptr;

  const std::string& NameOf(SymbolId id) const { return symbols->Name(id); }

  /// Calls fn(const std::string&) for every variable mentioned — the
  /// paper's Variables(c) = reads ∪ writes — in name order, each name once.
  /// The references are stable for the symbol table's lifetime.
  template <typename Fn>
  void ForEachVar(Fn&& fn) const {
    size_t r = 0, w = 0;
    while (r < reads.size() && w < writes.size()) {
      if (reads[r] == writes[w]) {
        fn(NameOf(reads[r]));
        ++r;
        ++w;
      } else if (NameOf(reads[r]) < NameOf(writes[w])) {
        fn(NameOf(reads[r]));
        ++r;
      } else {
        fn(NameOf(writes[w]));
        ++w;
      }
    }
    for (; r < reads.size(); ++r) fn(NameOf(reads[r]));
    for (; w < writes.size(); ++w) fn(NameOf(writes[w]));
  }

  // Set-materializing conveniences for tests and diagnostics; the hot path
  // uses the spans directly.
  std::set<std::string> ReadNames() const;
  std::set<std::string> WriteNames() const;
  std::set<std::string> VarNames() const;
};

/// The extended program dependence graph of one method (Definition 3),
/// stored as structure-of-arrays in a bump arena: parallel per-node arrays
/// (type/content/line/var-span) plus a flat edge list that freezes into a
/// CSR adjacency on first HasEdge(). The matcher's innermost loops are
/// contiguous scans and integer compares over this storage.
///
/// Lifetime: node contents and var spans live in the EpdgMemory arena, so
/// an Epdg must not outlive the memory it was built on. It keeps no
/// pointer into the CompilationUnit it was built from.
class Epdg {
 public:
  struct Edge {
    graph::NodeId source;
    graph::NodeId target;
    EdgeType type;
  };

  /// Builds on `memory` when given (pooled, reset by the caller between
  /// submissions), otherwise self-owns a private EpdgMemory.
  explicit Epdg(std::string method_name = {}, EpdgMemory* memory = nullptr);

  Epdg(const Epdg&) = delete;
  Epdg& operator=(const Epdg&) = delete;
  Epdg(Epdg&&) = default;
  Epdg& operator=(Epdg&&) = default;

  const std::string& method_name() const { return method_name_; }

  size_t NodeCount() const { return types_.size(); }
  size_t EdgeCount() const { return edges_.size(); }

  Node NodeAt(graph::NodeId id) const;
  /// Type-only accessor for loops that don't need the full view.
  NodeType TypeAt(graph::NodeId id) const { return types_[id]; }

  /// All edges in insertion order.
  std::span<const Edge> edges() const { return {edges_.data(), edges_.size()}; }

  const SymbolTable& symbols() const { return mem_->symbols; }
  SymbolTable* mutable_symbols() const { return &mem_->symbols; }
  Arena* arena() const { return &mem_->arena; }

  /// One scan of the source node's CSR row (typically a handful of packed
  /// 32-bit entries): the innermost check of the matching engine
  /// (Definition 7 condition 2) and of the edge-existence constraints
  /// (Definition 9). Freezes the adjacency on first call after an edge
  /// mutation.
  bool HasEdge(graph::NodeId source, graph::NodeId target,
               EdgeType type) const {
    if (!frozen_) Freeze();
    uint32_t want = PackEdge(target, type);
    const uint32_t* it = out_.RowBegin(static_cast<uint32_t>(source));
    const uint32_t* end = out_.RowEnd(static_cast<uint32_t>(source));
    for (; it != end; ++it) {
      if (*it == want) return true;
    }
    return false;
  }

  /// Builds the CSR adjacency now instead of lazily on first HasEdge().
  /// A graph shared read-only across threads (a pinned method-cache entry)
  /// must be frozen once at publish time so concurrent HasEdge() calls are
  /// pure reads of immutable storage.
  void FreezeAdjacency() const {
    if (!frozen_) Freeze();
  }

  // --- Construction (append-only; used by the builder) ---------------------

  /// Appends a node; `content` is copied into the arena, the id spans into
  /// the node's private slice of the var pool.
  graph::NodeId AddNode(NodeType type, std::string_view content, int line,
                        std::span<const SymbolId> reads,
                        std::span<const SymbolId> writes);

  /// Appends the edge unless an identical (source, target, type) triple
  /// exists — a linear scan; intro-method graphs have tens of edges, so
  /// this replaces the old hash-set probe plus dual adjacency insert with
  /// one append into one array.
  void AddEdge(graph::NodeId source, graph::NodeId target, EdgeType type);

  // --- Reporting ------------------------------------------------------------

  /// Number of edges of the given type (testing / reporting convenience).
  size_t CountEdges(EdgeType type) const;

  /// GraphViz rendering; Data edges solid, Ctrl edges dashed (as in Fig. 3).
  std::string ToDot() const;

 private:
  /// Packed CSR entry: neighbor id in the high bits, edge type in bit 0.
  static uint32_t PackEdge(graph::NodeId neighbor, EdgeType type) {
    return (static_cast<uint32_t>(neighbor) << 1) |
           static_cast<uint32_t>(type);
  }

  void Freeze() const;

  /// Offsets of one node's slice of var_pool_: reads first, then writes.
  struct VarSpan {
    uint32_t begin = 0;
    uint16_t read_count = 0;
    uint16_t write_count = 0;
  };

  std::string method_name_;
  std::unique_ptr<EpdgMemory> owned_mem_;  ///< Null when pooled.
  EpdgMemory* mem_ = nullptr;

  // Parallel per-node arrays.
  ArenaVec<NodeType> types_;
  ArenaVec<std::string_view> contents_;
  ArenaVec<int> lines_;
  ArenaVec<VarSpan> var_spans_;
  ArenaVec<SymbolId> var_pool_;  ///< Concatenated read/write id slices.

  ArenaVec<Edge> edges_;  ///< Insertion order; source of truth.

  mutable graph::Csr out_;        ///< Packed out-adjacency, built by Freeze.
  mutable bool frozen_ = false;
};

/// Builds the extended program dependence graph of `method` following the
/// conventions of Sec. III-A:
///   * Ctrl edges run from a Cond node to the nodes it *immediately*
///     controls (transitive Ctrl edges are never created).
///   * Data edges are computed by reaching definitions on an acyclic
///     one-iteration interpretation of the control flow: loop bodies execute
///     exactly once, conditions are assumed fulfilled (no bypass paths), and
///     loops never iterate twice (no back edges) — the Bhattacharjee & Jamil
///     convention the paper adopts.
///   * Array-element stores are weak updates: they add a definition of the
///     array variable without killing previous definitions.
///
/// The result builds on `memory` when given (see the Epdg lifetime note).
Result<Epdg> BuildEpdg(const java::Method& method,
                       EpdgMemory* memory = nullptr);

/// Builds the EPDG of every method in `unit`, in declaration order, all on
/// the same `memory` when given.
Result<std::vector<Epdg>> BuildAllEpdgs(const java::CompilationUnit& unit,
                                        EpdgMemory* memory = nullptr);

}  // namespace jfeed::pdg

#endif  // JFEED_PDG_EPDG_H_

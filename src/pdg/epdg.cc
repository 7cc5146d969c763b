#include "pdg/epdg.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "javalang/analysis.h"
#include "javalang/printer.h"
#include "support/fault.h"

namespace jfeed::pdg {

namespace java = jfeed::java;

const char* NodeTypeName(NodeType type) {
  switch (type) {
    case NodeType::kAssign: return "Assign";
    case NodeType::kBreak: return "Break";
    case NodeType::kCall: return "Call";
    case NodeType::kCond: return "Cond";
    case NodeType::kDecl: return "Decl";
    case NodeType::kReturn: return "Return";
  }
  return "?";
}

const char* EdgeTypeName(EdgeType type) {
  return type == EdgeType::kCtrl ? "Ctrl" : "Data";
}

std::set<std::string> Node::ReadNames() const {
  std::set<std::string> out;
  for (SymbolId id : reads) out.insert(NameOf(id));
  return out;
}

std::set<std::string> Node::WriteNames() const {
  std::set<std::string> out;
  for (SymbolId id : writes) out.insert(NameOf(id));
  return out;
}

std::set<std::string> Node::VarNames() const {
  std::set<std::string> out;
  ForEachVar([&out](const std::string& name) { out.insert(name); });
  return out;
}

Epdg::Epdg(std::string method_name, EpdgMemory* memory)
    : method_name_(std::move(method_name)) {
  if (memory == nullptr) {
    owned_mem_ = std::make_unique<EpdgMemory>();
    memory = owned_mem_.get();
  }
  mem_ = memory;
  Arena* arena = &mem_->arena;
  types_.Attach(arena);
  contents_.Attach(arena);
  lines_.Attach(arena);
  var_spans_.Attach(arena);
  var_pool_.Attach(arena);
  edges_.Attach(arena);
}

Node Epdg::NodeAt(graph::NodeId id) const {
  Node n;
  n.type = types_[id];
  n.content = contents_[id];
  n.line = lines_[id];
  const VarSpan& vs = var_spans_[id];
  n.reads = {var_pool_.data() + vs.begin, vs.read_count};
  n.writes = {var_pool_.data() + vs.begin + vs.read_count, vs.write_count};
  n.symbols = &mem_->symbols;
  return n;
}

graph::NodeId Epdg::AddNode(NodeType type, std::string_view content, int line,
                            std::span<const SymbolId> reads,
                            std::span<const SymbolId> writes) {
  graph::NodeId id = static_cast<graph::NodeId>(types_.size());
  types_.push_back(type);
  contents_.push_back(mem_->arena.StrDup(content));
  lines_.push_back(line);
  VarSpan vs;
  vs.begin = static_cast<uint32_t>(var_pool_.size());
  vs.read_count = static_cast<uint16_t>(reads.size());
  vs.write_count = static_cast<uint16_t>(writes.size());
  if (!reads.empty()) {
    std::memcpy(var_pool_.Append(reads.size()), reads.data(),
                reads.size() * sizeof(SymbolId));
  }
  if (!writes.empty()) {
    std::memcpy(var_pool_.Append(writes.size()), writes.data(),
                writes.size() * sizeof(SymbolId));
  }
  var_spans_.push_back(vs);
  return id;
}

void Epdg::AddEdge(graph::NodeId source, graph::NodeId target, EdgeType type) {
  for (const Edge& e : edges_) {
    if (e.source == source && e.target == target && e.type == type) return;
  }
  edges_.push_back({source, target, type});
  frozen_ = false;
}

void Epdg::Freeze() const {
  const size_t edge_count = edges_.size();
  Arena* arena = &mem_->arena;
  uint32_t* keys = arena->AllocateArray<uint32_t>(edge_count);
  uint32_t* payloads = arena->AllocateArray<uint32_t>(edge_count);
  for (size_t i = 0; i < edge_count; ++i) {
    keys[i] = static_cast<uint32_t>(edges_[i].source);
    payloads[i] = PackEdge(edges_[i].target, edges_[i].type);
  }
  out_.Build(arena, types_.size(), edge_count, keys, payloads);
  frozen_ = true;
}

size_t Epdg::CountEdges(EdgeType type) const {
  size_t n = 0;
  for (const Edge& e : edges_) {
    if (e.type == type) ++n;
  }
  return n;
}

std::string Epdg::ToDot() const {
  std::string out = "digraph epdg {\n  rankdir=TB;\n";
  for (size_t i = 0; i < types_.size(); ++i) {
    // Escape quotes for DOT.
    std::string escaped;
    for (char c : contents_[i]) {
      if (c == '"' || c == '\\') escaped.push_back('\\');
      escaped.push_back(c);
    }
    out += "  v" + std::to_string(i) + " [label=\"v" + std::to_string(i) +
           ": " + escaped + "\\n(" + NodeTypeName(types_[i]) + ")\"];\n";
  }
  for (const Edge& e : edges_) {
    out += "  v" + std::to_string(e.source) + " -> v" +
           std::to_string(e.target);
    out += e.type == EdgeType::kCtrl ? " [style=dashed];\n" : ";\n";
  }
  out += "}\n";
  return out;
}

namespace {

/// Reaching-definition environment over interned symbols: an array indexed
/// by SymbolId whose entries are immutable, ascending definition-node
/// lists. Updates replace the entry with a freshly arena-allocated list
/// (copy-append for weak updates), never mutate a list in place — branch
/// snapshots share list storage, so in-place growth would corrupt sibling
/// branches. Snapshots deep-copy only the header array.
struct DefList {
  const graph::NodeId* data = nullptr;
  uint32_t size = 0;
};

using DefEnv = ArenaVec<DefList>;

class Builder final : java::VarSink {
 public:
  Builder(const java::Method& method, EpdgMemory* memory)
      : method_(method),
        epdg_(method.name, memory),
        arena_(epdg_.arena()),
        symbols_(epdg_.mutable_symbols()) {
    env_.Attach(arena_);
    reads_.Attach(arena_);
    writes_.Attach(arena_);
  }

  Result<Epdg> Build() {
    // Parameters become Decl nodes and initial definitions.
    for (const auto& param : method_.params) {
      buffer_.clear();
      buffer_ += param.type.ToString();
      buffer_ += ' ';
      buffer_ += param.name;
      reads_.clear();
      writes_.clear();
      SymbolId pid = symbols_->Intern(param.name);
      writes_.push_back(pid);
      graph::NodeId id =
          EmitNode(NodeType::kDecl, buffer_, method_.line, graph::kInvalidNode);
      StrongSet(pid, id);
    }
    if (method_.body) {
      JFEED_RETURN_IF_ERROR(ProcessStmt(*method_.body, graph::kInvalidNode));
    }
    return std::move(epdg_);
  }

 private:
  // --- VarSink: collects the current node's vars as sorted id spans -------

  void OnRead(const std::string& name) override { InsertByName(&reads_, name); }
  void OnWrite(const std::string& name) override {
    if (!drop_writes_) InsertByName(&writes_, name);
  }

  /// Sorted-by-name unique insert; node var sets have a handful of entries,
  /// so the linear shift beats any cleverness.
  void InsertByName(ArenaVec<SymbolId>* vec, const std::string& name) {
    SymbolId id = symbols_->Intern(name);
    size_t pos = 0;
    while (pos < vec->size()) {
      if ((*vec)[pos] == id) return;
      if (name < symbols_->Name((*vec)[pos])) break;
      ++pos;
    }
    vec->push_back(id);
    for (size_t i = vec->size() - 1; i > pos; --i) (*vec)[i] = (*vec)[i - 1];
    (*vec)[pos] = id;
  }

  // --- Definition environment ---------------------------------------------

  DefList Lookup(SymbolId id) const {
    return id < env_.size() ? env_[id] : DefList{};
  }

  void EnsureEnv(SymbolId id) {
    if (id >= env_.size()) env_.resize(id + 1, DefList{});
  }

  void StrongSet(SymbolId id, graph::NodeId node) {
    EnsureEnv(id);
    graph::NodeId* list = arena_->AllocateArray<graph::NodeId>(1);
    list[0] = node;
    env_[id] = {list, 1};
  }

  /// Weak update: the new definition joins the old ones. `node` was just
  /// appended, so it is greater than every id in the old list and the
  /// ascending order is preserved by appending.
  void WeakAdd(SymbolId id, graph::NodeId node) {
    EnsureEnv(id);
    DefList old = env_[id];
    graph::NodeId* list = arena_->AllocateArray<graph::NodeId>(old.size + 1);
    if (old.size > 0) {
      std::memcpy(list, old.data, old.size * sizeof(graph::NodeId));
    }
    list[old.size] = node;
    env_[id] = {list, old.size + 1};
  }

  /// Fresh header array sharing the (immutable) def lists. Element writes
  /// into env_ after a snapshot therefore never disturb the snapshot.
  DefEnv CopyEnv(const DefEnv& src) {
    DefEnv out(arena_);
    if (!src.empty()) {
      DefList* dst = out.Append(src.size());
      std::memcpy(dst, src.data(), src.size() * sizeof(DefList));
    }
    return out;
  }

  /// Union of two environments: per variable, the merge of two ascending
  /// unique lists (shared wholesale when only one side defines it).
  DefEnv MergeEnvs(const DefEnv& a, const DefEnv& b) {
    DefEnv out(arena_);
    size_t n = std::max(a.size(), b.size());
    out.resize(n, DefList{});
    for (size_t i = 0; i < n; ++i) {
      DefList la = i < a.size() ? a[i] : DefList{};
      DefList lb = i < b.size() ? b[i] : DefList{};
      if (la.size == 0 || la.data == lb.data) {
        out[i] = lb;
      } else if (lb.size == 0) {
        out[i] = la;
      } else {
        graph::NodeId* merged =
            arena_->AllocateArray<graph::NodeId>(la.size + lb.size);
        uint32_t x = 0, y = 0, m = 0;
        while (x < la.size && y < lb.size) {
          if (la.data[x] == lb.data[y]) {
            merged[m++] = la.data[x++];
            ++y;
          } else if (la.data[x] < lb.data[y]) {
            merged[m++] = la.data[x++];
          } else {
            merged[m++] = lb.data[y++];
          }
        }
        while (x < la.size) merged[m++] = la.data[x++];
        while (y < lb.size) merged[m++] = lb.data[y++];
        out[i] = {merged, m};
      }
    }
    return out;
  }

  // --- Node emission --------------------------------------------------------

  /// Renders the normalized content into the reused buffer.
  std::string_view ExprContent(const java::Expr& e) {
    buffer_.clear();
    java::AppendExprToString(e, &buffer_);
    return buffer_;
  }

  /// Appends a node carrying the current reads_/writes_ scratch spans,
  /// wiring its Ctrl edge and the Data edges from the reaching definitions
  /// of its reads (reads iterate in name order, definitions ascending —
  /// the edge-list order the matcher's canonical output depends on).
  graph::NodeId EmitNode(NodeType type, std::string_view content, int line,
                         graph::NodeId ctrl) {
    graph::NodeId id = epdg_.AddNode(type, content, line,
                                     {reads_.data(), reads_.size()},
                                     {writes_.data(), writes_.size()});
    if (ctrl != graph::kInvalidNode) {
      epdg_.AddEdge(ctrl, id, EdgeType::kCtrl);
    }
    for (SymbolId r : reads_) {
      DefList defs = Lookup(r);
      for (uint32_t k = 0; k < defs.size; ++k) {
        epdg_.AddEdge(defs.data[k], id, EdgeType::kData);
      }
    }
    return id;
  }

  /// Creates a node for `expr` under the control of `ctrl` (kInvalidNode
  /// for top level) and updates the definition environment with its writes.
  graph::NodeId Emit(NodeType type, std::string_view content,
                     const java::Expr* expr, int line, graph::NodeId ctrl,
                     bool weak_update = false) {
    reads_.clear();
    writes_.clear();
    if (expr != nullptr) java::VisitVars(*expr, this);
    graph::NodeId id = EmitNode(type, content, line, ctrl);
    for (SymbolId w : writes_) {
      if (weak_update) {
        WeakAdd(w, id);
      } else {
        StrongSet(w, id);
      }
    }
    return id;
  }

  /// True when the statement-level expression stores through an array
  /// element (weak update of the array variable).
  static bool IsArrayElementStore(const java::Expr& e) {
    if (e.kind == java::ExprKind::kAssign) {
      return e.lhs->kind == java::ExprKind::kArrayAccess;
    }
    if (e.kind == java::ExprKind::kUnary &&
        (e.unary_op == java::UnaryOp::kPreInc ||
         e.unary_op == java::UnaryOp::kPreDec ||
         e.unary_op == java::UnaryOp::kPostInc ||
         e.unary_op == java::UnaryOp::kPostDec)) {
      return e.lhs->kind == java::ExprKind::kArrayAccess;
    }
    return false;
  }

  Status ProcessStmt(const java::Stmt& stmt, graph::NodeId ctrl) {
    switch (stmt.kind) {
      case java::StmtKind::kBlock:
        for (const auto& child : stmt.body) {
          JFEED_RETURN_IF_ERROR(ProcessStmt(*child, ctrl));
        }
        return Status::OK();

      case java::StmtKind::kLocalVarDecl: {
        for (const auto& decl : stmt.decls) {
          buffer_.clear();
          buffer_ += stmt.decl_type.ToString();
          buffer_ += ' ';
          buffer_ += decl.name;
          reads_.clear();
          writes_.clear();
          if (decl.init) {
            buffer_ += " = ";
            java::AppendExprToString(*decl.init, &buffer_);
            // The declared variable is this node's only write: side-effect
            // writes inside the initializer are dropped, exactly like the
            // old VarsRead-only collection.
            drop_writes_ = true;
            java::VisitVars(*decl.init, this);
            drop_writes_ = false;
          }
          SymbolId name_id = symbols_->Intern(decl.name);
          InsertByName(&writes_, decl.name);
          graph::NodeId id =
              EmitNode(NodeType::kAssign, buffer_, stmt.line, ctrl);
          StrongSet(name_id, id);
        }
        return Status::OK();
      }

      case java::StmtKind::kExprStmt: {
        const java::Expr& e = *stmt.expr;
        NodeType type = e.kind == java::ExprKind::kMethodCall
                            ? NodeType::kCall
                            : NodeType::kAssign;
        Emit(type, ExprContent(e), &e, stmt.line, ctrl,
             IsArrayElementStore(e));
        return Status::OK();
      }

      case java::StmtKind::kIf: {
        graph::NodeId cond = Emit(NodeType::kCond, ExprContent(*stmt.expr),
                                  stmt.expr.get(), stmt.line, ctrl);
        if (stmt.else_branch) {
          DefEnv before = CopyEnv(env_);
          JFEED_RETURN_IF_ERROR(ProcessStmt(*stmt.then_branch, cond));
          DefEnv after_then = env_;
          env_ = before;  // `before` is not read again below.
          JFEED_RETURN_IF_ERROR(ProcessStmt(*stmt.else_branch, cond));
          env_ = MergeEnvs(after_then, env_);
        } else {
          // No else: the condition is assumed fulfilled (Sec. III-A), so
          // the then-branch environment carries forward unchanged.
          JFEED_RETURN_IF_ERROR(ProcessStmt(*stmt.then_branch, cond));
        }
        return Status::OK();
      }

      case java::StmtKind::kWhile: {
        graph::NodeId cond = Emit(NodeType::kCond, ExprContent(*stmt.expr),
                                  stmt.expr.get(), stmt.line, ctrl);
        JFEED_RETURN_IF_ERROR(ProcessStmt(*stmt.loop_body, cond));
        return Status::OK();
      }

      case java::StmtKind::kDoWhile: {
        // The body executes before the condition is first evaluated, so the
        // body is processed first (its definitions reach the condition's
        // reads) and the condition's Ctrl edges to the body nodes are added
        // retroactively.
        size_t first = epdg_.NodeCount();
        JFEED_RETURN_IF_ERROR(ProcessStmt(*stmt.loop_body,
                                          graph::kInvalidNode));
        size_t last = epdg_.NodeCount();
        graph::NodeId cond = Emit(NodeType::kCond, ExprContent(*stmt.expr),
                                  stmt.expr.get(), stmt.line, ctrl);
        for (size_t i = first; i < last; ++i) {
          epdg_.AddEdge(cond, static_cast<graph::NodeId>(i), EdgeType::kCtrl);
        }
        return Status::OK();
      }

      case java::StmtKind::kFor: {
        if (stmt.for_init) {
          JFEED_RETURN_IF_ERROR(ProcessStmt(*stmt.for_init, ctrl));
        }
        graph::NodeId cond;
        if (stmt.expr) {
          cond = Emit(NodeType::kCond, ExprContent(*stmt.expr),
                      stmt.expr.get(), stmt.line, ctrl);
        } else {
          cond = Emit(NodeType::kCond, "true", nullptr, stmt.line, ctrl);
        }
        JFEED_RETURN_IF_ERROR(ProcessStmt(*stmt.loop_body, cond));
        for (const auto& update : stmt.for_update) {
          Emit(java::ExprKind::kMethodCall == update->kind
                   ? NodeType::kCall
                   : NodeType::kAssign,
               ExprContent(*update), update.get(), stmt.line, cond,
               IsArrayElementStore(*update));
        }
        return Status::OK();
      }

      case java::StmtKind::kSwitch: {
        // Definition 1: "Cond entails loop, if or switch expressions". The
        // selector becomes the Cond node; every arm is controlled by it.
        // Data-flow-wise the arms are alternative branches (like if/else
        // chains): the environments of all arms merge.
        graph::NodeId cond = Emit(NodeType::kCond, ExprContent(*stmt.expr),
                                  stmt.expr.get(), stmt.line, ctrl);
        DefEnv before = CopyEnv(env_);
        DefEnv merged;
        bool first_arm = true;
        for (const auto& arm : stmt.switch_cases) {
          env_ = CopyEnv(before);
          for (const auto& child : arm.body) {
            JFEED_RETURN_IF_ERROR(ProcessStmt(*child, cond));
          }
          merged = first_arm ? env_ : MergeEnvs(merged, env_);
          first_arm = false;
        }
        if (!first_arm) env_ = merged;
        return Status::OK();
      }

      case java::StmtKind::kReturn: {
        buffer_.clear();
        buffer_ += "return";
        if (stmt.expr) {
          buffer_ += ' ';
          java::AppendExprToString(*stmt.expr, &buffer_);
        }
        Emit(NodeType::kReturn, buffer_, stmt.expr.get(), stmt.line, ctrl);
        return Status::OK();
      }

      case java::StmtKind::kBreak:
        Emit(NodeType::kBreak, "break", nullptr, stmt.line, ctrl);
        return Status::OK();

      case java::StmtKind::kContinue:
        // The paper's node-type set has no Continue; we model it as a Break
        // node whose content distinguishes it.
        Emit(NodeType::kBreak, "continue", nullptr, stmt.line, ctrl);
        return Status::OK();
    }
    return Status::Internal("unhandled statement kind");
  }

  const java::Method& method_;
  Epdg epdg_;
  Arena* arena_;
  SymbolTable* symbols_;
  DefEnv env_;
  /// Current node's interned var sets, sorted by name (scratch, reused).
  ArenaVec<SymbolId> reads_;
  ArenaVec<SymbolId> writes_;
  bool drop_writes_ = false;
  std::string buffer_;  ///< Reused content-rendering buffer.
};

}  // namespace

Result<Epdg> BuildEpdg(const java::Method& method, EpdgMemory* memory) {
  JFEED_FAULT_POINT(fault::points::kEpdgBuilder);
  return Builder(method, memory).Build();
}

Result<std::vector<Epdg>> BuildAllEpdgs(const java::CompilationUnit& unit,
                                        EpdgMemory* memory) {
  std::vector<Epdg> out;
  out.reserve(unit.methods.size());
  for (const auto& method : unit.methods) {
    JFEED_ASSIGN_OR_RETURN(Epdg g, BuildEpdg(method, memory));
    out.push_back(std::move(g));
  }
  return out;
}

}  // namespace jfeed::pdg

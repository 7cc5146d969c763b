#include "support/lite_regex.h"

#include <algorithm>
#include <cstring>

namespace jfeed {

namespace {

constexpr size_t kMaxProgram = 4096;
/// Instructions name their class in one byte.
constexpr size_t kMaxClasses = 256;

bool IsWordByte(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool IsLineTerminator(unsigned char c) { return c == '\n' || c == '\r'; }

void SetBit(std::array<uint32_t, 8>* bits, unsigned char c) {
  (*bits)[c >> 5] |= 1u << (c & 31);
}

bool TestBit(const std::array<uint32_t, 8>& bits, unsigned char c) {
  return (bits[c >> 5] >> (c & 31)) & 1u;
}

void AddDigitClass(std::array<uint32_t, 8>* bits) {
  for (unsigned char c = '0'; c <= '9'; ++c) SetBit(bits, c);
}

void AddWordClass(std::array<uint32_t, 8>* bits) {
  for (int c = 0; c < 256; ++c) {
    if (IsWordByte(static_cast<unsigned char>(c))) {
      SetBit(bits, static_cast<unsigned char>(c));
    }
  }
}

void AddSpaceClass(std::array<uint32_t, 8>* bits) {
  for (unsigned char c : {' ', '\t', '\n', '\r', '\f', '\v'}) SetBit(bits, c);
}

void Negate(std::array<uint32_t, 8>* bits) {
  for (uint32_t& word : *bits) word = ~word;
}

}  // namespace

/// Recursive-descent Thompson construction. The pattern is parsed and
/// emitted in one pass; alternation and quantifiers use the classic
/// patch-list technique (emit placeholder jumps, fill targets once known).
/// The same pass records each top-level alternative's longest required
/// literal (see TrackLiteral). Compilation may allocate — it runs once per
/// distinct regex text and is cached; only Search is on the hot path.
class LiteRegex::Compiler {
 public:
  Compiler(std::string_view pattern, LiteRegex* out)
      : p_(pattern), out_(out) {}

  bool Run() {
    int32_t start_unused = 0;
    if (!ParseAlternation(&start_unused)) return false;
    if (pos_ != p_.size()) return false;  // Trailing ')' etc.
    Emit({Op::kMatch});
    std::vector<std::string>& literals = out_->literals_;
    if (std::any_of(literals.begin(), literals.end(),
                    [](const std::string& lit) { return lit.empty(); })) {
      literals.clear();
    }
    return out_->prog_.size() <= kMaxProgram;
  }

 private:
  int32_t Emit(Inst inst) {
    out_->prog_.push_back(inst);
    return static_cast<int32_t>(out_->prog_.size()) - 1;
  }
  Inst& At(int32_t i) { return out_->prog_[static_cast<size_t>(i)]; }
  int32_t Here() const { return static_cast<int32_t>(out_->prog_.size()); }

  bool Eof() const { return pos_ >= p_.size(); }
  char Peek() const { return p_[pos_]; }

  /// alternation := concat ('|' concat)*
  bool ParseAlternation(int32_t* start) {
    *start = Here();
    int32_t first = 0;
    if (!ParseConcat(&first)) return false;
    std::vector<int32_t> ends;
    while (!Eof() && Peek() == '|') {
      ++pos_;
      // Wrap what we have: split(prev, next-branch), prev-body, jmp(out).
      // Insert the split *before* the already-emitted branch by emitting a
      // jump trampoline instead: we emit jmp-to-end after the branch, then
      // retroactively thread a split. Simpler: rebuild with explicit split
      // chain — emit split at the current tail that jumps back is not
      // possible with forward-only emission, so each '|' copies the classic
      // layout: we emit a Jmp after the existing branch, then a fresh
      // branch, and patch a Split inserted via a prefix trampoline.
      //
      // To keep emission strictly forward, alternation is handled by
      // chaining: before parsing each branch we know the previous branch's
      // range [branch_start, here). We append: Jmp(out) after it, then
      // the next branch. The entry Split is materialized as a chain of
      // splits emitted *in front of* each branch via PatchSplit below.
      ends.push_back(Emit({Op::kJmp}));
      int32_t next_branch = Here();
      // Retroactively turn the instruction stream into
      //   Split(branch_body, next_branch) ... by inserting a split — since
      // we cannot insert, we instead record that the previous branch entry
      // must be reachable alongside this one: emit the split now and jump
      // back? Forward-only VMs handle this by emitting the split first.
      // We achieve that by always prefixing every branch with a reserved
      // split slot (see ParseConcatWithSlot).
      (void)next_branch;
      // Reserved-slot scheme: `first` points at the reserved split of the
      // previous branch; fill it now.
      At(first).op = Op::kSplit;
      At(first).x = first + 1;
      At(first).y = Here();
      if (!ParseConcat(&first)) return false;
    }
    // The final branch's reserved slot stays a no-op jump to its own body.
    for (int32_t j : ends) {
      At(j).x = Here();
    }
    return true;
  }

  /// concat := repeat*   — prefixed by one reserved slot used by
  /// alternation to splice in a Split (it compiles to Jmp(+1) when unused).
  bool ParseConcat(int32_t* reserved_slot) {
    int32_t slot = Emit({Op::kJmp});
    At(slot).x = slot + 1;
    *reserved_slot = slot;
    if (depth_ == 0) {
      run_.clear();
      longest_.clear();
    }
    while (!Eof() && Peek() != '|' && Peek() != ')') {
      if (!ParseRepeat()) return false;
    }
    if (depth_ == 0) {
      EndRun();
      out_->literals_.push_back(longest_);
    }
    return true;
  }

  /// repeat := atom ('*' | '+' | '?')? '?'?
  bool ParseRepeat() {
    int32_t atom_start = Here();
    if (!ParseAtom()) return false;
    char q = 0;
    if (!Eof() && (Peek() == '*' || Peek() == '+' || Peek() == '?')) {
      q = Peek();
      ++pos_;
      if (!Eof() && Peek() == '?') ++pos_;  // Lazy: same boolean language.
    }
    if (depth_ == 0) TrackLiteral(atom_start, q);
    if (q == 0) return true;
    if (q == '*') {
      // L1: split(L2, L3); L2: atom; jmp L1; L3:
      // Atom is already emitted at [atom_start, here); wrap it by moving it
      // one slot right is impossible — use the jump-around layout instead:
      //   atom_start: ... atom ...; split(atom_start, out)
      // which accepts one-or-more; for zero-or-more we additionally need a
      // way to skip the atom: prefix every atom with a reserved slot.
      int32_t split = Emit({Op::kSplit});
      At(split).x = atom_start;
      At(split).y = Here();
      // Zero-iteration path: the reserved slot in front of the atom (every
      // atom emits one, see ParseAtom) becomes a split to skip it.
      At(atom_start).op = Op::kSplit;
      At(atom_start).x = atom_start + 1;
      At(atom_start).y = Here();
    } else if (q == '+') {
      int32_t split = Emit({Op::kSplit});
      At(split).x = atom_start;
      At(split).y = Here();
    } else {  // '?'
      At(atom_start).op = Op::kSplit;
      At(atom_start).x = atom_start + 1;
      At(atom_start).y = Here();
    }
    return true;
  }

  /// atom := '(' alternation ')' | class | escape | '.' | '^' | '$' | char
  /// Every atom begins with one reserved Jmp(+1) slot so quantifiers can
  /// retrofit a zero-width bypass without instruction insertion.
  bool ParseAtom() {
    int32_t slot = Emit({Op::kJmp});
    At(slot).x = slot + 1;
    if (Eof()) return false;
    char c = Peek();
    ++pos_;
    switch (c) {
      case '(': {
        if (pos_ + 1 < p_.size() && Peek() == '?') {
          if (p_[pos_ + 1] == ':') {
            pos_ += 2;  // Non-capturing group.
          } else {
            return false;  // Lookaround / named groups: fallback.
          }
        }
        int32_t unused = 0;
        ++depth_;
        if (!ParseAlternation(&unused)) return false;
        --depth_;
        if (Eof() || Peek() != ')') return false;
        ++pos_;
        return true;
      }
      case ')':
        return false;
      case '[':
        return ParseClass();
      case '.':
        Emit({Op::kAny});
        return true;
      case '^':
        Emit({Op::kBegin});
        return true;
      case '$':
        Emit({Op::kEnd});
        return true;
      case '*':
      case '+':
      case '?':
        return false;  // Quantifier with no atom.
      case '{':
      case '}':
        // Bounded repetition is outside the subset, and a bare brace would
        // read as a literal where ECMAScript reads {n,m}; write \{ or \}.
        return false;
      case '\\':
        return ParseEscape();
      default:
        Emit({Op::kChar, static_cast<uint8_t>(c)});
        return true;
    }
  }

  bool ParseEscape() {
    if (Eof()) return false;
    char c = Peek();
    ++pos_;
    ClassBits bits{};
    switch (c) {
      case 'd': AddDigitClass(&bits); break;
      case 'D': AddDigitClass(&bits); Negate(&bits); break;
      case 'w': AddWordClass(&bits); break;
      case 'W': AddWordClass(&bits); Negate(&bits); break;
      case 's': AddSpaceClass(&bits); break;
      case 'S': AddSpaceClass(&bits); Negate(&bits); break;
      case 'b': Emit({Op::kWordB}); return true;
      case 'B': Emit({Op::kNWordB}); return true;
      case 'n': Emit({Op::kChar, '\n'}); return true;
      case 't': Emit({Op::kChar, '\t'}); return true;
      case 'r': Emit({Op::kChar, '\r'}); return true;
      case 'f': Emit({Op::kChar, '\f'}); return true;
      case 'v': Emit({Op::kChar, '\v'}); return true;
      case '0': Emit({Op::kChar, 0}); return true;
      default:
        if (c >= '1' && c <= '9') return false;  // Backreference.
        if (c == 'x' || c == 'u' || c == 'c' || c == 'p' || c == 'P' ||
            c == 'k') {
          return false;  // Hex/unicode/control/property/named: fallback.
        }
        // Identity escape (includes \. \+ \[ \] \( \) \| \\ \/ \- etc.).
        Emit({Op::kChar, static_cast<uint8_t>(c)});
        return true;
    }
    return EmitClass(bits);
  }

  /// Fails once the program holds kMaxClasses classes.
  bool EmitClass(const ClassBits& bits) {
    if (out_->classes_.size() >= kMaxClasses) return false;
    out_->classes_.push_back(bits);
    Emit({Op::kClass,
          static_cast<uint8_t>(out_->classes_.size() - 1)});
    return true;
  }

  /// class := '[' '^'? item* ']'  with items: char, range, class escape.
  bool ParseClass() {
    bool negate = false;
    if (!Eof() && Peek() == '^') {
      negate = true;
      ++pos_;
    }
    ClassBits bits{};
    while (true) {
      if (Eof()) return false;  // Unterminated class.
      char c = Peek();
      if (c == ']') {
        ++pos_;
        break;
      }
      ++pos_;
      unsigned char lo;
      bool lo_is_class = false;
      if (c == '\\') {
        if (Eof()) return false;
        char e = Peek();
        ++pos_;
        switch (e) {
          case 'd': AddDigitClass(&bits); lo_is_class = true; break;
          case 'w': AddWordClass(&bits); lo_is_class = true; break;
          case 's': AddSpaceClass(&bits); lo_is_class = true; break;
          case 'D': {
            ClassBits d{}; AddDigitClass(&d); Negate(&d);
            for (int i = 0; i < 8; ++i) bits[i] |= d[i];
            lo_is_class = true;
            break;
          }
          case 'W': {
            ClassBits w{}; AddWordClass(&w); Negate(&w);
            for (int i = 0; i < 8; ++i) bits[i] |= w[i];
            lo_is_class = true;
            break;
          }
          case 'S': {
            ClassBits s{}; AddSpaceClass(&s); Negate(&s);
            for (int i = 0; i < 8; ++i) bits[i] |= s[i];
            lo_is_class = true;
            break;
          }
          case 'n': lo = '\n'; break;
          case 't': lo = '\t'; break;
          case 'r': lo = '\r'; break;
          case 'f': lo = '\f'; break;
          case 'v': lo = '\v'; break;
          case 'b': lo = '\b'; break;  // Backspace inside a class.
          case '0': lo = 0; break;
          default:
            if (e >= '1' && e <= '9') return false;
            if (e == 'x' || e == 'u' || e == 'c') return false;
            lo = static_cast<unsigned char>(e);
            break;
        }
        if (lo_is_class) continue;
      } else {
        lo = static_cast<unsigned char>(c);
      }
      // Range?
      if (!Eof() && Peek() == '-' && pos_ + 1 < p_.size() &&
          p_[pos_ + 1] != ']') {
        ++pos_;
        char hc = Peek();
        ++pos_;
        unsigned char hi;
        if (hc == '\\') {
          if (Eof()) return false;
          char e = Peek();
          ++pos_;
          switch (e) {
            case 'n': hi = '\n'; break;
            case 't': hi = '\t'; break;
            case 'r': hi = '\r'; break;
            case 'f': hi = '\f'; break;
            case 'v': hi = '\v'; break;
            case '0': hi = 0; break;
            default:
              if ((e >= '1' && e <= '9') || e == 'x' || e == 'u' ||
                  e == 'c' || e == 'd' || e == 'w' || e == 's' || e == 'D' ||
                  e == 'W' || e == 'S') {
                return false;
              }
              hi = static_cast<unsigned char>(e);
              break;
          }
        } else {
          hi = static_cast<unsigned char>(hc);
        }
        if (lo > hi) return false;
        for (int b = lo; b <= hi; ++b) {
          SetBit(&bits, static_cast<unsigned char>(b));
        }
      } else {
        SetBit(&bits, lo);
      }
    }
    if (negate) Negate(&bits);
    return EmitClass(bits);
  }

  /// Extends or ends the current top-level literal run with the atom just
  /// emitted at [atom_start, Here()) under quantifier `q` (0 for none). A
  /// run is a maximal sequence of single-byte literal atoms, so every match
  /// of the alternative consumes it as consecutive bytes. A zero-width
  /// assertion leaves its neighbours adjacent and the run goes on; `x+`
  /// consumes its `x` at least once, so `x` joins the run and the run
  /// ends; anything else ends the run before the atom.
  void TrackLiteral(int32_t atom_start, char q) {
    // Every atom is its reserved slot plus what it emitted.
    const Inst* only =
        Here() == atom_start + 2 ? &At(atom_start + 1) : nullptr;
    if (only != nullptr && only->op == Op::kChar && (q == 0 || q == '+')) {
      run_.push_back(static_cast<char>(only->arg));
      if (q == 0) return;
    } else if (only != nullptr &&
               (only->op == Op::kBegin || only->op == Op::kEnd ||
                only->op == Op::kWordB || only->op == Op::kNWordB)) {
      return;
    }
    EndRun();
  }

  void EndRun() {
    if (run_.size() > longest_.size()) longest_ = run_;
    run_.clear();
  }

  std::string_view p_;
  size_t pos_ = 0;
  LiteRegex* out_;
  int depth_ = 0;        ///< Group nesting at pos_.
  std::string run_;      ///< Current top-level literal run.
  std::string longest_;  ///< Longest run of the current alternative.
};

bool LiteRegex::Compile(std::string_view pattern, LiteRegex* out) {
  *out = LiteRegex();
  Compiler compiler(pattern, out);
  if (!compiler.Run()) {
    *out = LiteRegex();
    return false;
  }
  out->ComputeFirstBytes();
  return true;
}

/// Collects the bytes accepted by the consuming instructions reachable from
/// pc 0 through epsilon edges. Assertions count as passable, so the set
/// covers every thread a start can spawn whatever the text around it; when
/// Match is reachable a match can begin without a byte and there is no set.
void LiteRegex::ComputeFirstBytes() {
  ClassBits bits{};
  std::vector<bool> seen(prog_.size(), false);
  std::vector<int32_t> stack = {0};
  while (!stack.empty()) {
    const int32_t pc = stack.back();
    stack.pop_back();
    if (seen[static_cast<size_t>(pc)]) continue;
    seen[static_cast<size_t>(pc)] = true;
    const Inst& inst = prog_[static_cast<size_t>(pc)];
    switch (inst.op) {
      case Op::kChar:
        SetBit(&bits, inst.arg);
        break;
      case Op::kAny:
        for (int c = 0; c < 256; ++c) {
          if (!IsLineTerminator(static_cast<unsigned char>(c))) {
            SetBit(&bits, static_cast<unsigned char>(c));
          }
        }
        break;
      case Op::kClass:
        for (int i = 0; i < 8; ++i) bits[i] |= classes_[inst.arg][i];
        break;
      case Op::kMatch:
        return;
      case Op::kSplit:
        stack.push_back(inst.y);
        stack.push_back(inst.x);
        break;
      case Op::kJmp:
        stack.push_back(inst.x);
        break;
      case Op::kBegin:
      case Op::kEnd:
      case Op::kWordB:
      case Op::kNWordB:
        stack.push_back(pc + 1);
        break;
    }
  }
  first_bytes_ = bits;
  has_first_bytes_ = true;
}

bool LiteRegex::MayStartAt(std::string_view text, size_t pos) const {
  return !has_first_bytes_ ||
         (pos < text.size() &&
          TestBit(first_bytes_, static_cast<unsigned char>(text[pos])));
}

/// Adds pc to the thread list, following epsilon transitions (jumps,
/// splits, assertions evaluated at `pos`). Returns true when the Match
/// instruction is reachable — i.e. some match ends at `pos`.
bool LiteRegex::AddThread(uint32_t pc, std::string_view text, size_t pos,
                          std::vector<uint32_t>* list,
                          LiteRegexScratch* scratch, uint64_t gen) const {
  // Iterative closure with an explicit reusable stack (epsilon fan-out is
  // bounded by program size via the visited marks, so the stack grows at
  // most once to program size and is reused for every later call).
  std::vector<uint32_t>& stack = scratch->stack;
  stack.clear();
  stack.push_back(pc);
  while (!stack.empty()) {
    uint32_t cur = stack.back();
    stack.pop_back();
    if (scratch->mark[cur] == gen) continue;
    scratch->mark[cur] = gen;
    const Inst& inst = prog_[cur];
    switch (inst.op) {
      case Op::kJmp:
        stack.push_back(static_cast<uint32_t>(inst.x));
        break;
      case Op::kSplit:
        // Push y first so x (the preferred branch) is processed first;
        // order is irrelevant for the boolean result but keeps traversal
        // close to backtracking order.
        stack.push_back(static_cast<uint32_t>(inst.y));
        stack.push_back(static_cast<uint32_t>(inst.x));
        break;
      case Op::kBegin:
        if (pos == 0) stack.push_back(cur + 1);
        break;
      case Op::kEnd:
        if (pos == text.size()) stack.push_back(cur + 1);
        break;
      case Op::kWordB:
      case Op::kNWordB: {
        bool before =
            pos > 0 && IsWordByte(static_cast<unsigned char>(text[pos - 1]));
        bool after = pos < text.size() &&
                     IsWordByte(static_cast<unsigned char>(text[pos]));
        bool boundary = before != after;
        if (boundary == (inst.op == Op::kWordB)) stack.push_back(cur + 1);
        break;
      }
      case Op::kMatch:
        return true;
      default:
        list->push_back(cur);  // Consuming instruction; runs next step.
        break;
    }
  }
  return false;
}

bool LiteRegex::Search(std::string_view text,
                       LiteRegexScratch* scratch) const {
  if (prog_.empty()) return false;
  if (!literals_.empty() &&
      std::none_of(literals_.begin(), literals_.end(),
                   [text](const std::string& lit) {
                     return text.find(lit) != std::string_view::npos;
                   })) {
    return false;
  }
  const size_t n = prog_.size();
  if (scratch->mark.size() < n) scratch->mark.resize(n, 0);
  std::vector<uint32_t>* cur = &scratch->cur;
  std::vector<uint32_t>* nxt = &scratch->nxt;
  cur->clear();
  uint64_t gen = ++scratch->generation;
  // Unanchored search: a fresh thread at program start joins at every
  // input position where a match can begin (the implicit leading .*?).
  if (MayStartAt(text, 0) && AddThread(0, text, 0, cur, scratch, gen)) {
    return true;
  }
  for (size_t pos = 0; pos < text.size(); ++pos) {
    if (cur->empty()) {
      // Nothing in flight: skip to the byte before the next start.
      while (pos + 1 < text.size() && !MayStartAt(text, pos + 1)) ++pos;
    }
    unsigned char c = static_cast<unsigned char>(text[pos]);
    nxt->clear();
    uint64_t next_gen = ++scratch->generation;
    for (size_t i = 0; i < cur->size(); ++i) {
      uint32_t pc = (*cur)[i];
      const Inst& inst = prog_[pc];
      bool consume = false;
      switch (inst.op) {
        case Op::kChar: consume = c == inst.arg; break;
        case Op::kAny: consume = !IsLineTerminator(c); break;
        case Op::kClass: consume = TestBit(classes_[inst.arg], c); break;
        default: break;  // Epsilon ops never reach the step list.
      }
      if (consume &&
          AddThread(pc + 1, text, pos + 1, nxt, scratch, next_gen)) {
        return true;
      }
    }
    // New potential match starting at pos + 1.
    if (MayStartAt(text, pos + 1) &&
        AddThread(0, text, pos + 1, nxt, scratch, next_gen)) {
      return true;
    }
    std::swap(cur, nxt);
  }
  return false;
}

}  // namespace jfeed

#ifndef JFEED_SUPPORT_LITE_REGEX_H_
#define JFEED_SUPPORT_LITE_REGEX_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace jfeed {

/// Reusable per-thread execution scratch for LiteRegex::Search. Sized to
/// the largest program it has run; steady-state searches do zero allocator
/// calls.
struct LiteRegexScratch {
  std::vector<uint64_t> mark;      ///< Per-instruction visited generation.
  std::vector<uint32_t> cur, nxt;  ///< Pike-VM thread lists.
  std::vector<uint32_t> stack;     ///< Epsilon-closure work stack.
  uint64_t generation = 0;
};

/// A compiled matcher for the regex subset the pattern templates actually
/// use, executed as a Pike VM (simultaneous NFA threads) so Search() is
/// linear-time and — given a warmed scratch — allocation-free. It is the
/// grader's only regex engine: every knowledge-base template runs on it
/// through RegexCache, and template checks are the innermost operation of
/// Algorithm 1, so the matcher runs with near-zero allocator traffic.
///
/// Supported (ECMAScript semantics, byte-wise input): literals, `.`,
/// escapes (`\d \D \w \W \s \S \b \B \n \t \r \f \v \0` and escaped
/// punctuation), character classes with ranges and negation, groups
/// (capturing or `(?:`) — captures are irrelevant to the boolean result —
/// alternation, greedy/lazy `* + ?`, and the `^`/`$` anchors. Anything
/// else (bounded repetition or any unescaped `{` `}`, lookaround,
/// backreferences, \x/\u escapes) makes Compile return false, and a
/// template that does not compile fails knowledge-base load.
class LiteRegex {
 public:
  /// Compiles `pattern`. Returns false when the pattern uses unsupported
  /// syntax or is malformed; `*out` is unusable then.
  static bool Compile(std::string_view pattern, LiteRegex* out);

  /// True when some substring of `text` matches (ECMAScript regex_search
  /// semantics). Allocation-free once `scratch` has grown to this
  /// program's size. Two prefilters decided at compile time keep the VM
  /// off texts that cannot match: a text holding none of the required
  /// literals is rejected before `scratch` is touched, and a thread
  /// starts only at positions whose byte can begin a match.
  bool Search(std::string_view text, LiteRegexScratch* scratch) const;

  size_t ProgramSize() const { return prog_.size(); }

 private:
  enum class Op : uint8_t {
    kChar,   ///< Consume one byte equal to `arg`.
    kAny,    ///< Consume one byte that is not a line terminator.
    kClass,  ///< Consume one byte in class `arg`.
    kMatch,  ///< Accept.
    kSplit,  ///< Fork to `x` and `y`.
    kJmp,    ///< Continue at `x`.
    kBegin,  ///< Assert start of text.
    kEnd,    ///< Assert end of text.
    kWordB,  ///< Assert word boundary.
    kNWordB  ///< Assert not a word boundary.
  };

  struct Inst {
    Op op;
    uint8_t arg = 0;
    int32_t x = 0, y = 0;
  };

  using ClassBits = std::array<uint32_t, 8>;  ///< 256-bit byte-set.

  class Compiler;

  bool AddThread(uint32_t pc, std::string_view text, size_t pos,
                 std::vector<uint32_t>* list, LiteRegexScratch* scratch,
                 uint64_t gen) const;
  bool MayStartAt(std::string_view text, size_t pos) const;
  void ComputeFirstBytes();

  std::vector<Inst> prog_;
  std::vector<ClassBits> classes_;
  /// The longest required literal of each top-level alternative; every
  /// match contains one of them. Empty when some alternative has none.
  std::vector<std::string> literals_;
  /// The bytes a match can begin with; unset when the program can match
  /// without consuming a byte.
  ClassBits first_bytes_{};
  bool has_first_bytes_ = false;
};

}  // namespace jfeed

#endif  // JFEED_SUPPORT_LITE_REGEX_H_

#ifndef JFEED_JAVALANG_FINGERPRINT_H_
#define JFEED_JAVALANG_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "javalang/token.h"

namespace jfeed::java {

/// 64-bit content hash of the token slice [begin, end): each token's kind
/// and spelling is folded into an FNV-1a/splitmix chain. Positions
/// (line/column) are deliberately excluded, so two slices that differ only
/// in comments, whitespace, or line layout hash identically — the edit
/// granularity resubmission caching keys on. The same chain hashes whole
/// submissions (sched::TokenFingerprint) and single methods
/// (Method::fingerprint), so the two namespaces are kept collision-coherent
/// by construction.
uint64_t FingerprintTokenRange(const std::vector<Token>& tokens, size_t begin,
                               size_t end);

/// Fingerprint of a full lexed stream, trailing kEof included — the whole-
/// submission form used by the content-addressed result cache.
uint64_t FingerprintTokenStream(const std::vector<Token>& tokens);

/// Fallback hash for sources the lexer rejects: raw bytes under a distinct
/// domain tag, so unlexable garbage still dedups byte-identical copies and
/// can never collide with a token-stream hash.
uint64_t FingerprintRawBytes(std::string_view bytes);

}  // namespace jfeed::java

#endif  // JFEED_JAVALANG_FINGERPRINT_H_

#include "javalang/fingerprint.h"

namespace jfeed::java {

namespace {

/// splitmix64 finalizer — the same mixer the fault injector uses; good
/// avalanche for cheap.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t FoldBytes(uint64_t h, std::string_view bytes) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;  // FNV-1a prime.
  }
  return h;
}

}  // namespace

uint64_t FingerprintTokenRange(const std::vector<Token>& tokens, size_t begin,
                               size_t end) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis.
  if (end > tokens.size()) end = tokens.size();
  for (size_t i = begin; i < end; ++i) {
    const Token& token = tokens[i];
    h = Mix(h ^ static_cast<uint64_t>(token.kind));
    h = FoldBytes(h, token.text);
    h *= 0x100000001b3ull;  // Separator: "ab"+"c" != "a"+"bc".
  }
  return Mix(h);
}

uint64_t FingerprintTokenStream(const std::vector<Token>& tokens) {
  return FingerprintTokenRange(tokens, 0, tokens.size());
}

uint64_t FingerprintRawBytes(std::string_view bytes) {
  return Mix(FoldBytes(0x6a66656564726177ull /* "jfeedraw" */, bytes));
}

}  // namespace jfeed::java

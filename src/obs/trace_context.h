#ifndef JFEED_OBS_TRACE_CONTEXT_H_
#define JFEED_OBS_TRACE_CONTEXT_H_

// W3C trace-context propagation for the grading fleet.
//
// A TraceContext names one distributed trace: a 128-bit trace id minted at
// the outermost entry point (broker POST /grade, jfeedd /grade, or the
// grade CLI) plus the 64-bit id of the span that is the parent on the
// remote side of a hop. It travels between processes as a `traceparent`
// HTTP header in the W3C Trace Context wire format:
//
//   00-<32 lowercase hex trace-id>-<16 lowercase hex parent-id>-<2 hex flags>
//
// ParseTraceparent applies the W3C validation rules: the version octet
// must be two lowercase hex digits and not "ff"; version 00 headers must
// be exactly 55 characters; headers from well-formed FUTURE versions are
// accepted by reading the version-00 prefix (forward compatibility per
// spec); an all-zero trace id or parent id is invalid. Callers that
// receive an invalid header mint a fresh root instead of failing the
// request — ContextFromHeader wraps that policy and counts rejects on
// jfeed_trace_context_invalid_total.
//
// Unlike the span machinery in trace.h, everything here is plain string
// and arithmetic code with no recording side effects.

#include <cstdint>
#include <string>

namespace jfeed::obs {

struct TraceContext {
  uint64_t trace_hi = 0;  ///< High 64 bits of the 128-bit trace id.
  uint64_t trace_lo = 0;  ///< Low 64 bits of the 128-bit trace id.
  uint64_t span_id = 0;   ///< Remote parent span id; 0 = root of the trace.

  /// True when this names a trace at all (W3C forbids all-zero trace ids).
  bool valid() const { return (trace_hi | trace_lo) != 0; }
};

/// Mints a fresh root context: a random non-zero 128-bit trace id with no
/// parent span. Thread-safe; each thread advances its own generator.
TraceContext MintTraceContext();

/// Lowercase 32-hex-digit trace id, e.g. "4bf92f3577b34da6a3ce929d0e0e4736".
std::string TraceIdHex(const TraceContext& ctx);

/// Lowercase 16-hex-digit span id.
std::string SpanIdHex(uint64_t span_id);

/// Renders `ctx` as a version-00 traceparent header value with the
/// sampled flag set. `ctx.span_id` is the parent-id field; W3C forbids an
/// all-zero parent, so a root context (span_id == 0) is rendered with the
/// trace id's low word standing in as the parent id.
std::string FormatTraceparent(const TraceContext& ctx);

/// Parses a traceparent header value. Returns true and fills `out` when
/// the header is valid under the rules in the file comment; returns false
/// (leaving `out` untouched) otherwise.
bool ParseTraceparent(const std::string& header, TraceContext* out);

/// Adoption policy for HTTP entry points: parse `header` if present and
/// valid; otherwise mint a fresh root. A non-empty header that fails
/// validation increments jfeed_trace_context_invalid_total — the grade
/// itself is never 4xx-ed over a bad traceparent.
TraceContext ContextFromHeader(const std::string& header);

}  // namespace jfeed::obs

#endif  // JFEED_OBS_TRACE_CONTEXT_H_

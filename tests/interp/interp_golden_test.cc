// Interpreter equivalence golden: for every Table I assignment, the
// reference solution and the kSamples submissions of synth::SampleIndexes
// are run over every suite input, and each call's observable result is compared
// with the recording in tests/interp/golden/<id>.txt. A successful call
// records its step count, return value, a stdout digest, heap bytes and
// output bytes; a failed call records its status code and message. One
// traced run per assignment (the reference on the first input) records the
// variable-trace digest.
//
// The step count is part of the grading contract (a step-budget kill is a
// failed test), so any interpreter change that moves a single step, output
// byte or heap charge fails here.
//
// To re-record after an intended semantic change, run the test binary with
// JFEED_UPDATE_INTERP_GOLDEN=1 and commit the rewritten files.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "interp/interpreter.h"
#include "javalang/parser.h"
#include "kb/assignments.h"
#include "synth/generator.h"

namespace jfeed::interp {
namespace {

constexpr uint64_t kSamples = 12;

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Deep copy of a suite input, so a submission that writes into an array
/// argument cannot change the inputs later calls see.
Value CopyInput(const Value& v) {
  if (v.kind() != Value::Kind::kArray || v.AsArray() == nullptr) return v;
  auto arr = std::make_shared<ArrayValue>(*v.AsArray());
  for (Value& elem : arr->elems) elem = CopyInput(elem);
  return Value::Array(std::move(arr));
}

/// Run settings: the suite's own options under the grading service's heap
/// and output caps (service::PipelineOptions), with no wall-clock deadline
/// so the recording cannot depend on machine speed.
ExecOptions GoldenOptions(const kb::Assignment& a) {
  ExecOptions exec = a.suite.exec_options;
  exec.max_heap_bytes = 64ll << 20;
  exec.max_output_bytes = 1ll << 20;
  exec.deadline_ms = 0;
  return exec;
}

std::string DescribeCall(const Result<ExecResult>& r) {
  if (!r.ok()) {
    return std::string("err ") + StatusCodeName(r.status().code()) + " " +
           r.status().message();
  }
  return "ok steps=" + std::to_string(r->steps) + " ret=" +
         std::to_string(static_cast<int>(r->return_value.kind())) + ":" +
         r->return_value.ToJavaString() +
         " out=" + Hex(Fnv1a(r->stdout_text)) +
         " heap=" + std::to_string(r->heap_bytes) +
         " outb=" + std::to_string(r->output_bytes);
}

/// Recomputes the golden lines of one assignment.
std::string Record(const kb::Assignment& a) {
  const ExecOptions exec = GoldenOptions(a);
  std::ostringstream out;
  std::vector<uint64_t> indexes{0};
  for (uint64_t index :
       synth::SampleIndexes(a.generator.SpaceSize(), kSamples)) {
    if (index != 0) indexes.push_back(index);
  }
  for (uint64_t index : indexes) {
    auto unit = java::Parse(a.generator.Generate(index));
    if (!unit.ok()) {
      out << index << " parse-error\n";
      continue;
    }
    Interpreter interp(*unit, a.suite.files);
    for (size_t i = 0; i < a.suite.inputs.size(); ++i) {
      std::vector<Value> args;
      for (const Value& v : a.suite.inputs[i]) args.push_back(CopyInput(v));
      out << index << " " << i << " "
          << DescribeCall(interp.Call(a.suite.method, args, exec)) << "\n";
    }
  }

  auto reference = java::Parse(a.Reference());
  if (reference.ok() && !a.suite.inputs.empty()) {
    std::vector<TraceEvent> trace;
    ExecOptions traced = exec;
    traced.trace = &trace;
    std::vector<Value> args;
    for (const Value& v : a.suite.inputs[0]) args.push_back(CopyInput(v));
    Interpreter interp(*reference, a.suite.files);
    auto r = interp.Call(a.suite.method, args, traced);
    std::string events;
    for (const auto& e : trace) events += e.var + "=" + e.value + "\n";
    out << "trace " << (r.ok() ? "ok" : "err") << " events=" << trace.size()
        << " digest=" << Hex(Fnv1a(events)) << "\n";
  }
  return out.str();
}

std::string GoldenPath(const std::string& id) {
  return std::string(JFEED_INTERP_GOLDEN_DIR) + "/" + id + ".txt";
}

class InterpGoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(InterpGoldenTest, CallsMatchRecording) {
  const auto& a = kb::KnowledgeBase::Get().assignment(GetParam());
  const std::string actual = Record(a);
  const std::string path = GoldenPath(a.id);

  if (std::getenv("JFEED_UPDATE_INTERP_GOLDEN") != nullptr) {
    std::ofstream file(path);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    file << actual;
    return;
  }

  std::ifstream file(path);
  ASSERT_TRUE(file.good()) << "missing golden " << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string expected = buffer.str();
  if (expected == actual) return;

  // Report the first differing line rather than two whole recordings.
  std::istringstream want(expected), got(actual);
  std::string want_line, got_line;
  int line = 0;
  while (true) {
    ++line;
    bool more_want = static_cast<bool>(std::getline(want, want_line));
    bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) break;
    if (!more_want || !more_got || want_line != got_line) {
      ADD_FAILURE() << a.id << " line " << line << "\n  golden: "
                    << (more_want ? want_line : "<end>")
                    << "\n  actual: " << (more_got ? got_line : "<end>");
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAssignments, InterpGoldenTest,
    ::testing::ValuesIn([]() {
      std::vector<const char*> ids;
      for (const auto& id : kb::KnowledgeBase::Get().assignment_ids()) {
        ids.push_back(id.c_str());
      }
      return ids;
    }()),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace jfeed::interp

// Unit tests for the common module: Value semantics, string helpers, the
// '::' composite-id convention, Status/Result, and JSON parsing errors.

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/value.h"

namespace db2graph {
namespace {

// ----------------------------------------------------------------- Value

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(7).is_int());
  EXPECT_TRUE(Value(int64_t{7}).is_int());
  EXPECT_TRUE(Value(7.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_TRUE(Value(7).is_numeric());
  EXPECT_TRUE(Value(7.5).is_numeric());
  EXPECT_FALSE(Value("7").is_numeric());
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value(2.0).ToString(), "2.0");
  EXPECT_EQ(Value("abc").ToString(), "abc");
}

TEST(ValueTest, SqlLiteralEscapesQuotes) {
  EXPECT_EQ(Value("a'b").ToSqlLiteral(), "'a''b'");
  EXPECT_EQ(Value(42).ToSqlLiteral(), "42");
  EXPECT_EQ(Value().ToSqlLiteral(), "NULL");
}

TEST(ValueTest, CrossTypeNumericEquality) {
  EXPECT_EQ(Value(3), Value(3.0));
  EXPECT_LT(Value(3), Value(3.5));
  EXPECT_LT(Value(3.5), Value(4));
  EXPECT_EQ(Value(3).Hash(), Value(3.0).Hash());
}

TEST(ValueTest, TypeFamiliesAreOrderedConsistently) {
  // NULL < BOOL < numeric < string.
  EXPECT_LT(Value(), Value(false));
  EXPECT_LT(Value(true), Value(0));
  EXPECT_LT(Value(999999), Value(""));
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value().Truthy());
  EXPECT_FALSE(Value(false).Truthy());
  EXPECT_FALSE(Value(0).Truthy());
  EXPECT_FALSE(Value("").Truthy());
  EXPECT_TRUE(Value(1).Truthy());
  EXPECT_TRUE(Value("x").Truthy());
  EXPECT_TRUE(Value(0.1).Truthy());
}

// --------------------------------------------------------------- strings

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
  EXPECT_TRUE(EqualsIgnoreCase("Patient", "PATIENT"));
  EXPECT_FALSE(EqualsIgnoreCase("Patient", "Patients"));
}

TEST(StringsTest, SplitAndJoin) {
  EXPECT_EQ(Split("a::b::c", "::"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("abc", "::"), std::vector<std::string>{"abc"});
  EXPECT_EQ(Split("::", "::"), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ", "), "");
}

TEST(StringsTest, TrimAndStartsWith) {
  EXPECT_EQ(Trim("  x \n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_TRUE(StartsWith("patient::1", "patient"));
  EXPECT_FALSE(StartsWith("pa", "patient"));
}

TEST(StringsTest, ComposeDecomposeIdRoundTrip) {
  std::string id = ComposeId({"patient", "17"});
  EXPECT_EQ(id, "patient::17");
  EXPECT_EQ(DecomposeId(id), (std::vector<std::string>{"patient", "17"}));
  EXPECT_EQ(DecomposeId("just-one"),
            std::vector<std::string>{"just-one"});
}

// ---------------------------------------------------------------- Status

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  Result<int> bad(Status::InvalidArgument("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_THROW(std::move(bad).ValueOrThrow(), std::runtime_error);
}

// ------------------------------------------------------------------ JSON

TEST(JsonTest, ParsesScalarsAndContainers) {
  Result<Json> doc = Json::Parse(
      R"({"a": 1, "b": [true, null, "x"], "c": {"d": 2.5}})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("a")->as_int(), 1);
  EXPECT_EQ(doc->Find("b")->items().size(), 3u);
  EXPECT_TRUE(doc->Find("b")->items()[1].is_null());
  EXPECT_DOUBLE_EQ(doc->Find("c")->Find("d")->as_number(), 2.5);
  EXPECT_EQ(doc->Find("nope"), nullptr);
}

TEST(JsonTest, ObjectsPreserveInsertionOrder) {
  Json obj = Json::Object();
  obj.Set("z", Json::Number(1));
  obj.Set("a", Json::Number(2));
  obj.Set("z", Json::Number(3));  // update, not reorder
  ASSERT_EQ(obj.members().size(), 2u);
  EXPECT_EQ(obj.members()[0].first, "z");
  EXPECT_EQ(obj.members()[0].second.as_int(), 3);
}

TEST(JsonTest, StringEscapes) {
  Result<Json> doc = Json::Parse(R"({"s": "a\"b\\c\nd"})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("s")->as_string(), "a\"b\\c\nd");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse(R"({"a" 1})").ok());
  EXPECT_FALSE(Json::Parse(R"({"a": 1} garbage)").ok());
  EXPECT_FALSE(Json::Parse(R"("unterminated)").ok());
}

// Container nesting is bounded: 10k nested arrays or objects fail with
// InvalidArgument instead of overflowing the stack.
TEST(JsonTest, DeepNestingFailsCleanly) {
  const int kDepth = 10000;
  std::string objects;
  for (int i = 0; i < kDepth; ++i) objects += "{\"k\":";
  objects += "1" + std::string(kDepth, '}');
  for (const std::string& doc :
       {std::string(kDepth, '[') + std::string(kDepth, ']'), objects}) {
    Result<Json> parsed = Json::Parse(doc);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << parsed.status().ToString();
  }
  EXPECT_TRUE(
      Json::Parse(std::string(50, '[') + std::string(50, ']')).ok());
}

TEST(JsonTest, GetHelpersApplyDefaults) {
  Result<Json> doc = Json::Parse(R"({"flag": true, "name": "x"})");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->GetBool("flag", false));
  EXPECT_FALSE(doc->GetBool("missing", false));
  EXPECT_EQ(doc->GetString("name", "d"), "x");
  EXPECT_EQ(doc->GetString("missing", "d"), "d");
  // Wrong-typed fields fall back too.
  EXPECT_EQ(doc->GetString("flag", "d"), "d");
}

TEST(JsonTest, NegativeAndExponentNumbers) {
  Result<Json> doc = Json::Parse(R"([-5, 1.5e3, -0.25])");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->items()[0].as_int(), -5);
  EXPECT_DOUBLE_EQ(doc->items()[1].as_number(), 1500.0);
  EXPECT_DOUBLE_EQ(doc->items()[2].as_number(), -0.25);
}

TEST(JsonTest, DumpEscapesControlCharacters) {
  // Raw control bytes (a SQL script with tabs/newlines, a stray 0x01)
  // must come out as \uXXXX escapes, never as raw bytes.
  Json s = Json::Str(std::string("a\tb\nc\x01") + '\x1f');
  std::string dumped = s.Dump(0);
  EXPECT_EQ(dumped, "\"a\\tb\\nc\\u0001\\u001f\"");
  // And the escaped form parses back to the original bytes.
  Result<Json> round = Json::Parse(dumped);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->as_string(), s.as_string());
}

TEST(JsonTest, DumpReplacesInvalidUtf8) {
  // A lone 0xFF (invalid UTF-8 anywhere) and a truncated multibyte
  // sequence become U+FFFD so the output stays valid JSON/UTF-8.
  Json bad = Json::Str(std::string("ok\xff") + "\xe2\x82");
  std::string dumped = bad.Dump(0);
  EXPECT_EQ(dumped.find('\xff'), std::string::npos);
  Result<Json> round = Json::Parse(dumped);
  ASSERT_TRUE(round.ok());
  EXPECT_NE(round->as_string().find("\xef\xbf\xbd"), std::string::npos);
}

TEST(JsonTest, DumpPassesValidMultibyteUtf8Through) {
  Json s = Json::Str("caf\xc3\xa9 \xe2\x82\xac");  // café €
  std::string dumped = s.Dump(0);
  EXPECT_EQ(dumped, "\"caf\xc3\xa9 \xe2\x82\xac\"");
}

TEST(JsonTest, ParsesUnicodeEscapesAndSurrogatePairs) {
  Result<Json> doc = Json::Parse(R"({"s": "Aé€😀"})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  // A, é (2 bytes), € (3 bytes), 😀 (4 bytes via surrogate pair).
  EXPECT_EQ(doc->Find("s")->as_string(),
            "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  // Unpaired surrogates are malformed.
  EXPECT_FALSE(Json::Parse(R"("\ud83d")").ok());
  EXPECT_FALSE(Json::Parse(R"("\uZZZZ")").ok());
}

// ------------------------------------------------------------- metrics

TEST(MetricsTest, RenderPrometheusExposesAllKinds) {
  metrics::MetricsRegistry registry;
  registry.GetCounter("requests.total")->fetch_add(42);
  registry.GetGauge("queue.depth")->Set(-3);
  registry.GetHistogram("latency.micros")->Observe(7);
  registry.GetHistogram("latency.micros")->Observe(9);

  std::string out = registry.RenderPrometheus();
  // Dots are outside the Prometheus charset and collapse to '_'.
  EXPECT_NE(out.find("# TYPE requests_total counter\nrequests_total 42\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("# TYPE queue_depth gauge\nqueue_depth -3\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE latency_micros summary"), std::string::npos);
  EXPECT_NE(out.find("latency_micros{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(out.find("latency_micros{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(out.find("latency_micros_sum 16\n"), std::string::npos);
  EXPECT_NE(out.find("latency_micros_count 2\n"), std::string::npos);
}

TEST(MetricsTest, PrometheusNamesSanitizedToCharset) {
  metrics::MetricsRegistry registry;
  registry.GetCounter("1weird name\xc3\xa9!")->fetch_add(1);
  std::string out = registry.RenderPrometheus();
  // Leading digit gets a '_' prefix; every other foreign byte maps to '_'.
  EXPECT_NE(out.find("_1weird_name___ 1\n"), std::string::npos) << out;
}

TEST(MetricsTest, RegistrySnapshotCoversEveryMetric) {
  metrics::MetricsRegistry registry;
  registry.GetCounter("c")->fetch_add(5);
  registry.GetGauge("g")->Set(6);
  registry.GetHistogram("h")->Observe(200);
  std::vector<metrics::MetricsRegistry::Sample> samples =
      registry.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  bool saw_histogram = false;
  for (const auto& s : samples) {
    if (s.kind == "histogram") {
      saw_histogram = true;
      EXPECT_EQ(s.name, "h");
      EXPECT_EQ(s.value, 1);  // count
      EXPECT_EQ(s.sum, 200u);
      EXPECT_GE(s.p99, 200u);
    }
  }
  EXPECT_TRUE(saw_histogram);
}

}  // namespace
}  // namespace db2graph

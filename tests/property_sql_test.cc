// Property-based tests for the SQL substrate: index-vs-scan equivalence
// for SELECT and for UPDATE/DELETE, hash-join-vs-nested-loop equivalence, transaction atomicity under random
// workloads, JSON round-trips, KV-store behaviour against a reference
// model, and codec round-trips. Parameterized over random seeds.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "baselines/codec.h"
#include "baselines/kvstore.h"
#include "common/json.h"
#include "sql/database.h"

namespace db2graph {
namespace {

// ------------------------------------------------------------------
// Index vs. scan equivalence: the same predicates must select the same
// rows whether or not an index exists.
// ------------------------------------------------------------------

class IndexEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(IndexEquivalenceTest, IndexedAndUnindexedTablesAgree) {
  std::mt19937_64 rng(GetParam());
  sql::Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE WithIdx (a BIGINT, b BIGINT, c VARCHAR(8));
    CREATE TABLE NoIdx (a BIGINT, b BIGINT, c VARCHAR(8));
    CREATE INDEX idx_a ON WithIdx (a);
    CREATE INDEX idx_ab ON WithIdx (a, b);
  )sql")
                  .ok());
  std::uniform_int_distribution<int64_t> small(0, 20);
  const char* strings[] = {"x", "y", "z", "w"};
  for (int i = 0; i < 300; ++i) {
    int64_t a = small(rng);
    int64_t b = small(rng);
    const char* c = strings[rng() % 4];
    std::string values = "(" + std::to_string(a) + ", " + std::to_string(b) +
                         ", '" + c + "')";
    ASSERT_TRUE(db.Execute("INSERT INTO WithIdx VALUES " + values).ok());
    ASSERT_TRUE(db.Execute("INSERT INTO NoIdx VALUES " + values).ok());
  }
  for (int q = 0; q < 40; ++q) {
    int64_t a = small(rng);
    int64_t b = small(rng);
    std::string predicates[] = {
        "a = " + std::to_string(a),
        "a = " + std::to_string(a) + " AND b = " + std::to_string(b),
        "a IN (" + std::to_string(a) + ", " + std::to_string(b) + ")",
        "a = " + std::to_string(a) + " OR b = " + std::to_string(b),
        "a > " + std::to_string(a),
        "a = " + std::to_string(a) + " AND c = 'x'",
    };
    for (const std::string& pred : predicates) {
      auto with_idx = db.Execute(
          "SELECT COUNT(*), SUM(b) FROM WithIdx WHERE " + pred);
      auto without = db.Execute(
          "SELECT COUNT(*), SUM(b) FROM NoIdx WHERE " + pred);
      ASSERT_TRUE(with_idx.ok()) << pred;
      ASSERT_TRUE(without.ok()) << pred;
      EXPECT_EQ(with_idx->rows[0][0], without->rows[0][0]) << pred;
      EXPECT_EQ(with_idx->rows[0][1], without->rows[0][1]) << pred;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexEquivalenceTest,
                         ::testing::Range(1, 9));

// ------------------------------------------------------------------
// DML equivalence: UPDATE/DELETE find their rows through an index when the
// WHERE clause has an indexed equality/IN term, and by walking every slot
// otherwise. The same random statements on an indexed table and on its
// unindexed twin must touch the same rows.
// ------------------------------------------------------------------

class DmlEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(DmlEquivalenceTest, IndexedAndUnindexedDmlAgree) {
  std::mt19937_64 rng(GetParam() * 977);
  sql::Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE Idx (id BIGINT PRIMARY KEY, a BIGINT, b BIGINT,
                      c VARCHAR(8), d DOUBLE);
    CREATE INDEX idx_a ON Idx (a);
    CREATE INDEX idx_bc ON Idx (b, c);
    CREATE TABLE Twin (id BIGINT, a BIGINT, b BIGINT, c VARCHAR(8),
                       d DOUBLE);
  )sql")
                  .ok());
  auto pick_a = [&]() { return static_cast<int64_t>(rng() % 12); };
  auto pick_b = [&]() { return static_cast<int64_t>(rng() % 4); };
  auto pick_c = [&]() { return std::string(1, "xyz"[rng() % 3]); };
  int64_t next_id = 0;
  auto insert_row = [&]() {
    std::string a = rng() % 8 == 0 ? "NULL" : std::to_string(pick_a());
    std::string c = rng() % 8 == 0 ? "NULL" : "'" + pick_c() + "'";
    std::string values = "(" + std::to_string(next_id++) + ", " + a + ", " +
                         std::to_string(pick_b()) + ", " + c + ", " +
                         std::to_string(rng() % 20) + ".5)";
    ASSERT_TRUE(db.Execute("INSERT INTO Idx VALUES " + values).ok());
    ASSERT_TRUE(db.Execute("INSERT INTO Twin VALUES " + values).ok());
  };
  for (int i = 0; i < 150; ++i) insert_row();
  auto contents = [&](const std::string& table) {
    auto rs = db.Execute("SELECT id, a, b, c, d FROM " + table +
                         " ORDER BY id");
    EXPECT_TRUE(rs.ok());
    return rs.ok() ? rs->rows : std::vector<Row>{};
  };

  // Runs `text` ({T} = table name) on both tables with the same
  // parameters. `keys` is the number of distinct index keys the indexed
  // table probes; 0 means no indexed term, so both walk every slot.
  std::set<std::string> shapes_seen;
  auto run = [&](const std::string& shape, const std::string& text,
                 const std::vector<Value>& params, uint64_t keys) {
    shapes_seen.insert(shape);
    std::vector<sql::ResultSet> results;
    for (const std::string table : {"Idx", "Twin"}) {
      std::string sql = text;
      sql.replace(sql.find("{T}"), 3, table);
      auto prepared = db.Prepare(sql);
      ASSERT_TRUE(prepared.ok()) << sql;
      auto rs = prepared->Execute(params);
      ASSERT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
      results.push_back(std::move(*rs));
    }
    const sql::ExecInfo& indexed = results[0].exec;
    const sql::ExecInfo& twin = results[1].exec;
    EXPECT_EQ(results[0].affected, results[1].affected) << text;
    EXPECT_EQ(twin.full_scans, 1u) << text;
    EXPECT_EQ(twin.index_probes, 0u) << text;
    if (keys == 0) {
      EXPECT_EQ(indexed.full_scans, 1u) << text;
      EXPECT_EQ(indexed.index_probes, 0u) << text;
    } else {
      EXPECT_EQ(indexed.full_scans, 0u) << text;
      EXPECT_EQ(indexed.index_probes, keys) << text;
      EXPECT_GE(indexed.rows_scanned,
                static_cast<uint64_t>(results[0].affected))
          << text;
      EXPECT_LT(indexed.rows_scanned, twin.rows_scanned) << text;
    }
  };
  auto random_statement = [&]() {
    int64_t a = pick_a();
    int64_t a2 = pick_a();
    switch (rng() % 11) {
      case 0:
        run("eq", "UPDATE {T} SET d = d + 1 WHERE a = ?", {Value(a)}, 1);
        break;
      case 1:
        run("eq+residual", "DELETE FROM {T} WHERE a = ? AND d > ?",
            {Value(a), Value(static_cast<double>(rng() % 20))}, 1);
        break;
      case 2: {
        std::set<int64_t> distinct = {a, a2};
        run("in", "UPDATE {T} SET c = 'q' WHERE a IN (?, ?, ?)",
            {Value(a), Value(a2), Value(a)}, distinct.size());
        break;
      }
      case 3:
        run("null-param", "UPDATE {T} SET b = 3 WHERE a = ?",
            {Value::Null()}, 1);
        break;
      case 4:
        run("int=double",
            "UPDATE {T} SET d = 0.25 WHERE a = " + std::to_string(a) + ".0",
            {}, 1);
        break;
      case 5:
        run("rewrite-key", "UPDATE {T} SET a = ? WHERE a = ?",
            {Value(a2), Value(a)}, 1);
        break;
      case 6:
        run("composite", "DELETE FROM {T} WHERE c = ? AND b = ?",
            {Value(pick_c()), Value(pick_b())}, 1);
        break;
      case 7:
        run("pk", "UPDATE {T} SET d = d * 2 WHERE id = ?",
            {Value(static_cast<int64_t>(rng() % next_id))}, 1);
        break;
      case 8: {
        int64_t x = static_cast<int64_t>(rng() % next_id);
        int64_t y = static_cast<int64_t>(rng() % next_id);
        run("pk-in", "DELETE FROM {T} WHERE id IN (?, ?)",
            {Value(x), Value(y)}, x == y ? 1 : 2);
        break;
      }
      case 9:
        run("unindexed", "UPDATE {T} SET a = a + 1 WHERE d < ?",
            {Value(static_cast<double>(rng() % 6))}, 0);
        break;
      default:
        insert_row();
        break;
    }
  };
  for (int step = 0; step < 120; ++step) {
    if (rng() % 8 == 0) {
      std::vector<Row> idx_before = contents("Idx");
      ASSERT_TRUE(db.Execute("BEGIN").ok());
      for (int i = 0; i < 3; ++i) random_statement();
      ASSERT_EQ(contents("Idx"), contents("Twin")) << "step " << step;
      ASSERT_TRUE(db.Execute("ROLLBACK").ok());
      shapes_seen.insert("rollback");
      ASSERT_EQ(contents("Idx"), idx_before) << "step " << step;
    } else {
      random_statement();
    }
    ASSERT_EQ(contents("Idx"), contents("Twin")) << "step " << step;
  }
  // Every shape ran at least once for this seed.
  EXPECT_EQ(shapes_seen.size(), 11u);
  // The indexes still agree with the data after the churn.
  for (const Row& row : contents("Idx")) {
    auto rs = db.Execute("SELECT COUNT(*) FROM Idx WHERE id = " +
                         row[0].ToString());
    ASSERT_TRUE(rs.ok());
    EXPECT_EQ(rs->rows[0][0], Value(int64_t{1}));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmlEquivalenceTest, ::testing::Range(1, 9));

// ------------------------------------------------------------------
// Join equivalence: joining many-vs-few rows must produce identical
// results through the index path, the hash-join path, and the
// nested-loop path (exercised by column choice and row counts).
// ------------------------------------------------------------------

class JoinEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinEquivalenceTest, JoinResultsMatchReferenceComputation) {
  std::mt19937_64 rng(GetParam() * 77);
  sql::Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE L (id BIGINT PRIMARY KEY, k BIGINT);
    CREATE TABLE R2 (k BIGINT, v BIGINT);
  )sql")
                  .ok());
  std::uniform_int_distribution<int64_t> keys(0, 15);
  std::map<int64_t, int64_t> left;  // id -> k
  std::multimap<int64_t, int64_t> right;
  for (int64_t i = 1; i <= 60; ++i) {
    int64_t k = keys(rng);
    left[i] = k;
    ASSERT_TRUE(db.Execute("INSERT INTO L VALUES (" + std::to_string(i) +
                           ", " + std::to_string(k) + ")")
                    .ok());
  }
  for (int i = 0; i < 120; ++i) {
    int64_t k = keys(rng);
    int64_t v = static_cast<int64_t>(rng() % 1000);
    right.emplace(k, v);
    ASSERT_TRUE(db.Execute("INSERT INTO R2 VALUES (" + std::to_string(k) +
                           ", " + std::to_string(v) + ")")
                    .ok());
  }
  // Reference: count of matching pairs and sum of v over them.
  int64_t expected_pairs = 0;
  int64_t expected_sum = 0;
  for (const auto& [id, k] : left) {
    (void)id;
    auto [begin, end] = right.equal_range(k);
    for (auto it = begin; it != end; ++it) {
      ++expected_pairs;
      expected_sum += it->second;
    }
  }
  for (const char* join : {
           "SELECT COUNT(*), SUM(v) FROM L JOIN R2 ON L.k = R2.k",
           "SELECT COUNT(*), SUM(v) FROM L, R2 WHERE L.k = R2.k",
           "SELECT COUNT(*), SUM(v) FROM R2, L WHERE R2.k = L.k",
       }) {
    auto rs = db.Execute(join);
    ASSERT_TRUE(rs.ok()) << join << ": " << rs.status().ToString();
    EXPECT_EQ(rs->rows[0][0], Value(expected_pairs)) << join;
    EXPECT_EQ(rs->rows[0][1], Value(expected_sum)) << join;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinEquivalenceTest,
                         ::testing::Range(1, 9));

// ------------------------------------------------------------------
// Transaction atomicity: a random batch of mutations inside
// BEGIN..ROLLBACK must leave no observable trace.
// ------------------------------------------------------------------

class TransactionAtomicityTest : public ::testing::TestWithParam<int> {};

TEST_P(TransactionAtomicityTest, RollbackRestoresExactState) {
  std::mt19937_64 rng(GetParam() * 131);
  sql::Database db;
  ASSERT_TRUE(
      db.Execute("CREATE TABLE T (id BIGINT PRIMARY KEY, v BIGINT)").ok());
  for (int64_t i = 1; i <= 50; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (" + std::to_string(i) +
                           ", " + std::to_string(i * 10) + ")")
                    .ok());
  }
  auto snapshot = [&]() {
    auto rs = db.Execute("SELECT id, v FROM T ORDER BY id");
    EXPECT_TRUE(rs.ok());
    return rs->rows;
  };
  std::vector<Row> before = snapshot();

  ASSERT_TRUE(db.Execute("BEGIN").ok());
  std::uniform_int_distribution<int64_t> id_pick(1, 80);
  for (int op = 0; op < 30; ++op) {
    int64_t id = id_pick(rng);
    switch (rng() % 3) {
      case 0:
        (void)db.Execute("INSERT INTO T VALUES (" + std::to_string(100 + op) +
                         ", " + std::to_string(op) + ")");
        break;
      case 1:
        (void)db.Execute("UPDATE T SET v = v + 1 WHERE id = " +
                         std::to_string(id));
        break;
      case 2:
        (void)db.Execute("DELETE FROM T WHERE id = " + std::to_string(id));
        break;
    }
  }
  ASSERT_TRUE(db.Execute("ROLLBACK").ok());
  std::vector<Row> after = snapshot();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]);
  }
  // Indexes survived too: point lookups still work.
  db.stats().Reset();
  auto rs = db.Execute("SELECT v FROM T WHERE id = 25");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_GE(db.stats().Snapshot().index_probes, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransactionAtomicityTest,
                         ::testing::Range(1, 9));

// ------------------------------------------------------------------
// JSON round trip on randomly generated documents.
// ------------------------------------------------------------------

class JsonRoundTripTest : public ::testing::TestWithParam<int> {};

Json RandomJson(std::mt19937_64* rng, int depth) {
  switch ((*rng)() % (depth > 2 ? 4 : 6)) {
    case 0:
      return Json();
    case 1:
      return Json::Bool((*rng)() % 2 == 0);
    case 2:
      return Json::Number(static_cast<double>(
          static_cast<int64_t>((*rng)() % 100000) - 50000));
    case 3: {
      std::string s;
      int len = (*rng)() % 12;
      const char* alphabet = "ab\"\\\ncd ef\tgh";
      for (int i = 0; i < len; ++i) s.push_back(alphabet[(*rng)() % 13]);
      return Json::Str(std::move(s));
    }
    case 4: {
      Json arr = Json::Array();
      int n = (*rng)() % 4;
      for (int i = 0; i < n; ++i) {
        arr.Append(RandomJson(rng, depth + 1));
      }
      return arr;
    }
    default: {
      Json obj = Json::Object();
      int n = (*rng)() % 4;
      for (int i = 0; i < n; ++i) {
        obj.Set("k" + std::to_string(i), RandomJson(rng, depth + 1));
      }
      return obj;
    }
  }
}

TEST_P(JsonRoundTripTest, DumpParseDumpIsStable) {
  std::mt19937_64 rng(GetParam() * 31337);
  for (int i = 0; i < 50; ++i) {
    Json doc = RandomJson(&rng, 0);
    std::string text = doc.Dump();
    Result<Json> parsed = Json::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->Dump(), text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripTest, ::testing::Range(1, 7));

// ------------------------------------------------------------------
// KV store vs. a reference std::map model under random operations.
// ------------------------------------------------------------------

class KvStoreModelTest : public ::testing::TestWithParam<int> {};

TEST_P(KvStoreModelTest, MatchesReferenceModel) {
  std::mt19937_64 rng(GetParam() * 997);
  baselines::KvStore store;
  std::map<std::string, std::string> model;
  auto random_key = [&] {
    return std::string(1, static_cast<char>('a' + rng() % 4)) + ":" +
           std::to_string(rng() % 30);
  };
  for (int op = 0; op < 500; ++op) {
    std::string key = random_key();
    switch (rng() % 4) {
      case 0:
      case 1: {
        std::string value = "v" + std::to_string(rng() % 1000);
        store.Put(key, value);
        model[key] = value;
        break;
      }
      case 2: {
        auto got = store.Get(key);
        auto it = model.find(key);
        if (it == model.end()) {
          EXPECT_FALSE(got.has_value()) << key;
        } else {
          ASSERT_TRUE(got.has_value()) << key;
          EXPECT_EQ(*got, it->second);
        }
        break;
      }
      case 3:
        EXPECT_EQ(store.Delete(key), model.erase(key) > 0) << key;
        break;
    }
  }
  EXPECT_EQ(store.size(), model.size());
  // Prefix scans agree with the model.
  for (char c = 'a'; c <= 'd'; ++c) {
    std::string prefix(1, c);
    prefix += ":";
    auto scanned = store.Scan(prefix);
    std::vector<std::pair<std::string, std::string>> expected;
    for (auto it = model.lower_bound(prefix);
         it != model.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      expected.emplace_back(it->first, it->second);
    }
    EXPECT_EQ(scanned, expected) << prefix;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvStoreModelTest, ::testing::Range(1, 7));

// ------------------------------------------------------------------
// Codec round trip on random value streams.
// ------------------------------------------------------------------

class CodecRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(CodecRoundTripTest, RandomValueStreamsRoundTrip) {
  std::mt19937_64 rng(GetParam() * 4242);
  for (int round = 0; round < 40; ++round) {
    std::vector<Value> values;
    int n = 1 + rng() % 12;
    for (int i = 0; i < n; ++i) {
      switch (rng() % 5) {
        case 0:
          values.push_back(Value::Null());
          break;
        case 1:
          values.push_back(Value(rng() % 2 == 0));
          break;
        case 2:
          // Wrapping subtraction in unsigned arithmetic: the signed form
          // overflows for draws below 2^62 - 2^63.
          values.push_back(
              Value(static_cast<int64_t>(rng() - (uint64_t{1} << 62))));
          break;
        case 3:
          values.push_back(
              Value(static_cast<double>(rng() % 100000) / 7.0));
          break;
        default: {
          std::string s;
          int len = rng() % 20;
          for (int j = 0; j < len; ++j) {
            s.push_back(static_cast<char>(rng() % 256));
          }
          values.push_back(Value(std::move(s)));
        }
      }
    }
    std::string buf;
    for (const Value& v : values) baselines::PutValue(v, &buf);
    baselines::Decoder dec(buf);
    for (const Value& v : values) {
      Value back;
      ASSERT_TRUE(dec.GetValue(&back).ok());
      EXPECT_EQ(back, v);
    }
    EXPECT_TRUE(dec.AtEnd());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTripTest, ::testing::Range(1, 7));

// ------------------------------------------------------------------
// Value total-order invariants.
// ------------------------------------------------------------------

class ValueOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(ValueOrderTest, CompareIsATotalOrderAndHashAgrees) {
  std::mt19937_64 rng(GetParam() * 555);
  std::vector<Value> pool = {Value::Null(), Value(true), Value(false),
                             Value(int64_t{0}), Value(int64_t{7}),
                             Value(7.0), Value(7.5), Value(-3),
                             Value(""), Value("abc"), Value("abd")};
  for (int i = 0; i < 20; ++i) {
    pool.push_back(Value(static_cast<int64_t>(rng() % 100) - 50));
    pool.push_back(Value(static_cast<double>(rng() % 100) / 3.0));
  }
  for (const Value& a : pool) {
    EXPECT_EQ(a.Compare(a), 0);
    for (const Value& b : pool) {
      int ab = a.Compare(b);
      int ba = b.Compare(a);
      EXPECT_EQ(ab == 0, ba == 0);
      EXPECT_EQ(ab < 0, ba > 0);
      if (ab == 0) {
        EXPECT_EQ(a.Hash(), b.Hash())
            << a.ToString() << " vs " << b.ToString();
      }
      for (const Value& c : pool) {
        if (ab <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0)
              << a.ToString() << " " << b.ToString() << " " << c.ToString();
        }
      }
    }
  }
  // Int/double cross-type equality.
  EXPECT_EQ(Value(int64_t{7}), Value(7.0));
  EXPECT_NE(Value(int64_t{7}), Value(7.5));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueOrderTest, ::testing::Range(1, 4));

}  // namespace
}  // namespace db2graph

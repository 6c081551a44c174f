// Unit tests for the MiniDb2 relational engine: DDL, DML, SELECT pipeline,
// indexes, views, table functions, and transactions.

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "common/metrics.h"
#include "sql/database.h"
#include "sql/parser.h"
#include "sql/table.h"

namespace db2graph::sql {
namespace {

class SqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE Patient (
        patientID BIGINT PRIMARY KEY,
        name VARCHAR(100),
        address VARCHAR(200),
        subscriptionID BIGINT
      );
      CREATE TABLE Disease (
        diseaseID BIGINT PRIMARY KEY,
        conceptCode VARCHAR(20),
        conceptName VARCHAR(100)
      );
      CREATE TABLE HasDisease (
        patientID BIGINT,
        diseaseID BIGINT,
        description VARCHAR(200),
        FOREIGN KEY (patientID) REFERENCES Patient (patientID),
        FOREIGN KEY (diseaseID) REFERENCES Disease (diseaseID)
      );
      INSERT INTO Patient VALUES
        (1, 'Alice', '1 Main St', 101),
        (2, 'Bob', '2 Oak Ave', 102),
        (3, 'Carol', '3 Pine Rd', 103);
      INSERT INTO Disease VALUES
        (10, 'D10', 'diabetes'),
        (11, 'D11', 'type 2 diabetes'),
        (12, 'D12', 'hypertension');
      INSERT INTO HasDisease VALUES
        (1, 11, 'diagnosed 2019'),
        (2, 12, 'diagnosed 2020'),
        (3, 11, 'diagnosed 2021');
    )sql")
                    .ok());
  }

  ResultSet Query(const std::string& sql) {
    Result<ResultSet> rs = db_.Execute(sql);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString() << " for " << sql;
    return rs.ok() ? *rs : ResultSet{};
  }

  Database db_;
};

TEST_F(SqlEngineTest, SelectStarReturnsAllRowsAndColumns) {
  ResultSet rs = Query("SELECT * FROM Patient");
  EXPECT_EQ(rs.columns,
            (std::vector<std::string>{"patientID", "name", "address",
                                      "subscriptionID"}));
  EXPECT_EQ(rs.rows.size(), 3u);
}

TEST_F(SqlEngineTest, WhereEqualityFilters) {
  ResultSet rs = Query("SELECT name FROM Patient WHERE patientID = 2");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("Bob"));
}

TEST_F(SqlEngineTest, WhereUsesPrimaryKeyIndex) {
  db_.stats().Reset();
  Query("SELECT name FROM Patient WHERE patientID = 2");
  EXPECT_GE(db_.stats().Snapshot().index_probes, 1u);
  EXPECT_EQ(db_.stats().Snapshot().full_scans, 0u);
}

TEST_F(SqlEngineTest, InListProbesIndexPerValue) {
  db_.stats().Reset();
  ResultSet rs = Query("SELECT name FROM Patient WHERE patientID IN (1, 3)");
  EXPECT_EQ(rs.rows.size(), 2u);
  EXPECT_GE(db_.stats().Snapshot().index_probes, 2u);
  EXPECT_EQ(db_.stats().Snapshot().full_scans, 0u);
}

TEST_F(SqlEngineTest, NonIndexedPredicateFallsBackToScan) {
  db_.stats().Reset();
  ResultSet rs = Query("SELECT * FROM Patient WHERE name = 'Alice'");
  EXPECT_EQ(rs.rows.size(), 1u);
  EXPECT_GE(db_.stats().Snapshot().full_scans, 1u);
}

TEST_F(SqlEngineTest, SecondaryIndexIsUsedAfterCreation) {
  Query("SELECT 1 FROM Patient");  // warm-up no-op
  ASSERT_TRUE(db_.Execute("CREATE INDEX idx_name ON Patient (name)").ok());
  db_.stats().Reset();
  ResultSet rs = Query("SELECT * FROM Patient WHERE name = 'Alice'");
  EXPECT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(db_.stats().Snapshot().full_scans, 0u);
  EXPECT_GE(db_.stats().Snapshot().index_probes, 1u);
}

TEST_F(SqlEngineTest, JoinOnForeignKey) {
  ResultSet rs = Query(
      "SELECT p.name, d.conceptName FROM HasDisease h "
      "JOIN Patient p ON h.patientID = p.patientID "
      "JOIN Disease d ON h.diseaseID = d.diseaseID "
      "ORDER BY p.name");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.rows[0][0], Value("Alice"));
  EXPECT_EQ(rs.rows[0][1], Value("type 2 diabetes"));
}

TEST_F(SqlEngineTest, ImplicitJoinViaWhere) {
  ResultSet rs = Query(
      "SELECT p.name FROM Patient p, HasDisease h "
      "WHERE p.patientID = h.patientID AND h.diseaseID = 11 ORDER BY p.name");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value("Alice"));
  EXPECT_EQ(rs.rows[1][0], Value("Carol"));
}

TEST_F(SqlEngineTest, LeftJoinPreservesUnmatchedRows) {
  ASSERT_TRUE(db_.Execute("INSERT INTO Patient VALUES (4, 'Dave', '4 Elm', "
                          "104)")
                  .ok());
  ResultSet rs = Query(
      "SELECT p.name, h.diseaseID FROM Patient p "
      "LEFT JOIN HasDisease h ON p.patientID = h.patientID "
      "ORDER BY p.name");
  ASSERT_EQ(rs.rows.size(), 4u);
  EXPECT_EQ(rs.rows[3][0], Value("Dave"));
  EXPECT_TRUE(rs.rows[3][1].is_null());
}

TEST_F(SqlEngineTest, AggregatesOverWholeTable) {
  ResultSet rs = Query(
      "SELECT COUNT(*), MIN(patientID), MAX(patientID), AVG(patientID) "
      "FROM Patient");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{3}));
  EXPECT_EQ(rs.rows[0][1], Value(int64_t{1}));
  EXPECT_EQ(rs.rows[0][2], Value(int64_t{3}));
  EXPECT_DOUBLE_EQ(rs.rows[0][3].NumericValue(), 2.0);
}

TEST_F(SqlEngineTest, CountOnEmptyResultIsZero) {
  ResultSet rs = Query("SELECT COUNT(*) FROM Patient WHERE patientID = 99");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{0}));
}

TEST_F(SqlEngineTest, GroupByWithAggregate) {
  ResultSet rs = Query(
      "SELECT diseaseID, COUNT(*) AS n FROM HasDisease "
      "GROUP BY diseaseID ORDER BY n DESC, diseaseID");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{11}));
  EXPECT_EQ(rs.rows[0][1], Value(int64_t{2}));
}

TEST_F(SqlEngineTest, DistinctRemovesDuplicates) {
  ResultSet rs = Query("SELECT DISTINCT diseaseID FROM HasDisease");
  EXPECT_EQ(rs.rows.size(), 2u);
}

TEST_F(SqlEngineTest, OrderByDescAndLimit) {
  ResultSet rs =
      Query("SELECT patientID FROM Patient ORDER BY patientID DESC LIMIT 2");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{3}));
  EXPECT_EQ(rs.rows[1][0], Value(int64_t{2}));
}

TEST_F(SqlEngineTest, ArithmeticAndStringConcat) {
  ResultSet rs = Query(
      "SELECT patientID * 2 + 1, name || '!' FROM Patient WHERE "
      "patientID = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{3}));
  EXPECT_EQ(rs.rows[0][1], Value("Alice!"));
}

TEST_F(SqlEngineTest, LikePatterns) {
  ResultSet rs = Query("SELECT name FROM Patient WHERE name LIKE 'A%'");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("Alice"));
  rs = Query("SELECT name FROM Patient WHERE name LIKE '_ob'");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("Bob"));
}

TEST_F(SqlEngineTest, IsNullAndIsNotNull) {
  ASSERT_TRUE(
      db_.Execute("INSERT INTO Patient (patientID, name) VALUES (5, 'Eve')")
          .ok());
  ResultSet rs = Query("SELECT name FROM Patient WHERE address IS NULL");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("Eve"));
  rs = Query(
      "SELECT COUNT(*) FROM Patient WHERE address IS NOT NULL");
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{3}));
}

TEST_F(SqlEngineTest, PrimaryKeyUniquenessEnforced) {
  Result<ResultSet> rs =
      db_.Execute("INSERT INTO Patient VALUES (1, 'Dup', 'x', 1)");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(SqlEngineTest, ForeignKeyEnforcedOnInsert) {
  Result<ResultSet> rs =
      db_.Execute("INSERT INTO HasDisease VALUES (99, 11, 'bad patient')");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(SqlEngineTest, NotNullEnforced) {
  ASSERT_TRUE(
      db_.Execute("CREATE TABLE T (a BIGINT NOT NULL, b VARCHAR(10))").ok());
  Result<ResultSet> rs = db_.Execute("INSERT INTO T (b) VALUES ('x')");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(SqlEngineTest, UpdateChangesMatchingRows) {
  ResultSet rs =
      Query("UPDATE Patient SET address = 'moved' WHERE patientID = 1");
  EXPECT_EQ(rs.affected, 1);
  rs = Query("SELECT address FROM Patient WHERE patientID = 1");
  EXPECT_EQ(rs.rows[0][0], Value("moved"));
}

TEST_F(SqlEngineTest, DmlCountsItsSlotWalkAsAFullScan) {
  // UPDATE and DELETE visit every live slot to find their rows; both the
  // statement's ExecInfo and the database counters report that walk.
  ASSERT_TRUE(db_.Execute("CREATE TABLE Hundred (k BIGINT, v BIGINT)").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO Hundred VALUES (" +
                            std::to_string(i) + ", 0)")
                    .ok());
  }
  ExecStats::Counts before = db_.stats().Snapshot();
  ResultSet rs = Query("UPDATE Hundred SET v = 1 WHERE k = 7");
  ExecStats::Counts after = db_.stats().Snapshot();
  EXPECT_EQ(rs.affected, 1);
  EXPECT_EQ(rs.exec.rows_scanned, 100u);
  EXPECT_EQ(rs.exec.full_scans, 1u);
  EXPECT_EQ(after.rows_scanned - before.rows_scanned, 100u);
  EXPECT_EQ(after.full_scans - before.full_scans, 1u);

  before = db_.stats().Snapshot();
  rs = Query("DELETE FROM Hundred WHERE k < 10");
  after = db_.stats().Snapshot();
  EXPECT_EQ(rs.affected, 10);
  EXPECT_EQ(rs.exec.rows_scanned, 100u);
  EXPECT_EQ(after.rows_scanned - before.rows_scanned, 100u);
  EXPECT_EQ(after.full_scans - before.full_scans, 1u);
}

TEST_F(SqlEngineTest, DeleteRemovesRowsAndIndexEntries) {
  ResultSet rs = Query("DELETE FROM HasDisease WHERE diseaseID = 11");
  EXPECT_EQ(rs.affected, 2);
  rs = Query("SELECT COUNT(*) FROM HasDisease");
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{1}));
}

TEST_F(SqlEngineTest, ViewExpandsAtQueryTimeAndSeesUpdates) {
  ASSERT_TRUE(db_.Execute(
                     "CREATE VIEW Diabetics AS SELECT p.patientID, p.name "
                     "FROM Patient p JOIN HasDisease h ON p.patientID = "
                     "h.patientID WHERE h.diseaseID = 11")
                  .ok());
  ResultSet rs = Query("SELECT * FROM Diabetics ORDER BY patientID");
  ASSERT_EQ(rs.rows.size(), 2u);
  // A new base-table row is visible through the view immediately.
  ASSERT_TRUE(
      db_.Execute("INSERT INTO HasDisease VALUES (2, 11, 'later')").ok());
  rs = Query("SELECT * FROM Diabetics");
  EXPECT_EQ(rs.rows.size(), 3u);
}

TEST_F(SqlEngineTest, ViewSchemaIsDerivedWithoutExecution) {
  ASSERT_TRUE(db_.Execute("CREATE VIEW V AS SELECT name AS who, "
                          "patientID * 2 AS twice FROM Patient")
                  .ok());
  const TableSchema* schema = db_.GetSchema("V");
  ASSERT_NE(schema, nullptr);
  ASSERT_EQ(schema->columns.size(), 2u);
  EXPECT_EQ(schema->columns[0].name, "who");
  EXPECT_EQ(schema->columns[1].name, "twice");
}

TEST_F(SqlEngineTest, SubqueryInFrom) {
  ResultSet rs = Query(
      "SELECT COUNT(*) FROM (SELECT patientID FROM Patient "
      "WHERE patientID > 1) AS sub");
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{2}));
}

TEST_F(SqlEngineTest, TableFunctionInFrom) {
  db_.RegisterTableFunction(
      "twoRows", [](const std::vector<Value>& args) -> Result<ResultSet> {
        ResultSet rs;
        rs.columns = {"a", "b"};
        rs.rows.push_back({args.empty() ? Value(int64_t{0}) : args[0],
                           Value("x")});
        rs.rows.push_back({Value(int64_t{2}), Value("y")});
        return rs;
      });
  ResultSet rs = Query(
      "SELECT t.a, t.b FROM TABLE (twoRows(7)) AS t (a BIGINT, b "
      "VARCHAR(5)) ORDER BY a");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{2}));
  EXPECT_EQ(rs.rows[1][0], Value(int64_t{7}));
}

TEST_F(SqlEngineTest, PreparedStatementWithParameters) {
  Result<PreparedStatement> prepared =
      db_.Prepare("SELECT name FROM Patient WHERE patientID = ?");
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->param_count(), 1);
  Result<ResultSet> rs = prepared->Execute({Value(int64_t{2})});
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0], Value("Bob"));
  rs = prepared->Execute({Value(int64_t{3})});
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0], Value("Carol"));
}

TEST_F(SqlEngineTest, PreparedStatementParamCountMismatch) {
  Result<PreparedStatement> prepared =
      db_.Prepare("SELECT name FROM Patient WHERE patientID = ?");
  ASSERT_TRUE(prepared.ok());
  Result<ResultSet> rs = prepared->Execute({});
  EXPECT_FALSE(rs.ok());
}

TEST_F(SqlEngineTest, TransactionRollbackUndoesAllChanges) {
  ASSERT_TRUE(db_.Execute("BEGIN").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO Patient VALUES (7, 'Tmp', 't', 107)")
                  .ok());
  ASSERT_TRUE(
      db_.Execute("UPDATE Patient SET name = 'Changed' WHERE patientID = 1")
          .ok());
  ASSERT_TRUE(
      db_.Execute("DELETE FROM Patient WHERE patientID = 3").ok());
  ASSERT_TRUE(db_.Execute("ROLLBACK").ok());
  ResultSet rs = Query("SELECT COUNT(*) FROM Patient");
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{3}));
  rs = Query("SELECT name FROM Patient WHERE patientID = 1");
  EXPECT_EQ(rs.rows[0][0], Value("Alice"));
  rs = Query("SELECT COUNT(*) FROM Patient WHERE patientID = 3");
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{1}));
}

TEST_F(SqlEngineTest, TransactionCommitKeepsChanges) {
  ASSERT_TRUE(db_.Execute("BEGIN").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO Patient VALUES (8, 'Kept', 'k', 108)")
                  .ok());
  ASSERT_TRUE(db_.Execute("COMMIT").ok());
  ResultSet rs = Query("SELECT COUNT(*) FROM Patient");
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{4}));
}

TEST_F(SqlEngineTest, RollbackRestoresIndexConsistency) {
  ASSERT_TRUE(db_.Execute("BEGIN").ok());
  ASSERT_TRUE(
      db_.Execute("DELETE FROM Patient WHERE patientID = 2").ok());
  ASSERT_TRUE(db_.Execute("ROLLBACK").ok());
  db_.stats().Reset();
  ResultSet rs = Query("SELECT name FROM Patient WHERE patientID = 2");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("Bob"));
  EXPECT_GE(db_.stats().Snapshot().index_probes, 1u);  // found via restored index
}

TEST_F(SqlEngineTest, BetweenPredicate) {
  ResultSet rs =
      Query("SELECT COUNT(*) FROM Patient WHERE patientID BETWEEN 1 AND 2");
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{2}));
}

TEST_F(SqlEngineTest, ParseErrorsSurfaceAsInvalidArgument) {
  Result<ResultSet> rs = db_.Execute("SELEC * FORM Patient");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SqlEngineTest, UnknownTableIsNotFound) {
  Result<ResultSet> rs = db_.Execute("SELECT * FROM Nope");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kNotFound);
}

TEST_F(SqlEngineTest, DropTableRemovesRelation) {
  ASSERT_TRUE(db_.Execute("DROP TABLE HasDisease").ok());
  EXPECT_FALSE(db_.HasRelation("HasDisease"));
  EXPECT_FALSE(db_.Execute("SELECT * FROM HasDisease").ok());
}

TEST_F(SqlEngineTest, ApproxBytesGrowsWithData) {
  size_t before = db_.ApproxBytes();
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO Patient VALUES (" +
                            std::to_string(i) + ", 'P', 'addr', 1)")
                    .ok());
  }
  EXPECT_GT(db_.ApproxBytes(), before);
}

TEST_F(SqlEngineTest, CatalogListsTablesAndViews) {
  ASSERT_TRUE(
      db_.Execute("CREATE VIEW V1 AS SELECT name FROM Patient").ok());
  std::vector<std::string> tables = db_.TableNames();
  EXPECT_EQ(tables.size(), 3u);
  std::vector<std::string> views = db_.ViewNames();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0], "V1");
}

TEST_F(SqlEngineTest, SchemaExposesPrimaryAndForeignKeys) {
  const TableSchema* schema = db_.GetSchema("HasDisease");
  ASSERT_NE(schema, nullptr);
  EXPECT_FALSE(schema->has_primary_key());
  ASSERT_EQ(schema->foreign_keys.size(), 2u);
  EXPECT_EQ(schema->foreign_keys[0].ref_table, "Patient");
}

// The multi-row VALUES and quoted-identifier paths.
TEST_F(SqlEngineTest, MultiRowInsertAndQuotedIdentifiers) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE \"Mixed\" (\"idCol\" BIGINT)").ok());
  ASSERT_TRUE(
      db_.Execute("INSERT INTO Mixed VALUES (1), (2), (3)").ok());
  ResultSet rs = Query("SELECT COUNT(*) FROM Mixed");
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{3}));
}

// ------------------------------------------------------------------
// Columnar storage + vectorized execution
// ------------------------------------------------------------------

// Every statement must produce identical results on the vectorized and
// the scalar path, including over NULL-heavy columns (kernels must drop
// NULL cells exactly where three-valued logic does, and aggregates must
// skip them exactly like AggState does).
TEST_F(SqlEngineTest, VectorizedAndScalarAgreeOnNullHeavyColumns) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE Nully (id BIGINT, score DOUBLE, tag VARCHAR(10));
      INSERT INTO Nully VALUES
        (1, 1.5, 'a'), (2, NULL, NULL), (NULL, 2.5, 'b'),
        (4, NULL, 'a'), (5, 7.25, NULL), (NULL, NULL, NULL);
    )sql")
                  .ok());
  const char* const kQueries[] = {
      "SELECT * FROM Nully",
      "SELECT id, tag FROM Nully",
      "SELECT * FROM Nully WHERE id > 1",
      "SELECT * FROM Nully WHERE score >= 2.5",
      "SELECT * FROM Nully WHERE tag = 'a'",
      "SELECT * FROM Nully WHERE id <> 4",
      "SELECT * FROM Nully WHERE 2 < id",
      "SELECT * FROM Nully WHERE id > 0.5",
      "SELECT * FROM Nully WHERE id = 'a'",
      "SELECT * FROM Nully WHERE id IS NULL",
      "SELECT * FROM Nully WHERE tag IS NOT NULL",
      "SELECT * FROM Nully WHERE id > 1 AND tag = 'a'",
      "SELECT * FROM Nully WHERE id + 1 > 2",  // scalar-fallback kernel
      "SELECT COUNT(*), COUNT(id), COUNT(score) FROM Nully",
      "SELECT SUM(id), AVG(score), MIN(id), MAX(score) FROM Nully",
      "SELECT MIN(tag), MAX(tag), SUM(score) FROM Nully",
      "SELECT tag, COUNT(*) FROM Nully GROUP BY tag",
      "SELECT tag, SUM(id), MIN(score) FROM Nully GROUP BY tag",
      "SELECT DISTINCT tag FROM Nully",
  };
  for (const char* q : kQueries) {
    db_.SetExecConfig(db_.exec_config().vectorized(true));
    Result<ResultSet> vectorized = db_.Execute(q);
    db_.SetExecConfig(db_.exec_config().vectorized(false));
    Result<ResultSet> scalar = db_.Execute(q);
    db_.SetExecConfig(db_.exec_config().vectorized(true));
    ASSERT_TRUE(vectorized.ok()) << q << ": " << vectorized.status().ToString();
    ASSERT_TRUE(scalar.ok()) << q << ": " << scalar.status().ToString();
    EXPECT_EQ(vectorized->columns, scalar->columns) << q;
    EXPECT_EQ(vectorized->rows, scalar->rows) << q;
  }
}

TEST_F(SqlEngineTest, ExecModeAttributesVectorizedAndScalarOperators) {
  // Full scan + column projection: pure vectorized.
  ResultSet rs = Query("SELECT name FROM Patient");
  EXPECT_STREQ(rs.exec.ExecMode(), "vectorized");
  EXPECT_EQ(rs.exec.vectorized_rows, 3u);
  EXPECT_EQ(rs.exec.scalar_fallback_rows, 0u);

  // Computed select item: the column scan feeds the scalar projection.
  rs = Query("SELECT patientID + 1 FROM Patient");
  EXPECT_STREQ(rs.exec.ExecMode(), "mixed");

  // Index probes stay on the scalar join machinery.
  rs = Query("SELECT name FROM Patient WHERE patientID = 2");
  EXPECT_STREQ(rs.exec.ExecMode(), "scalar");
  EXPECT_EQ(rs.exec.index_probes, 1u);

  // A predicate without a kernel runs the scalar evaluator inside the
  // vectorized filter, visible as scalar_fallback_rows.
  rs = Query("SELECT name FROM Patient WHERE patientID + 0 = 2");
  EXPECT_STREQ(rs.exec.ExecMode(), "vectorized");
  EXPECT_EQ(rs.exec.scalar_fallback_rows, 3u);

  // The toggle forces everything back onto the row operators.
  db_.SetExecConfig(db_.exec_config().vectorized(false));
  rs = Query("SELECT name FROM Patient");
  EXPECT_STREQ(rs.exec.ExecMode(), "scalar");
  EXPECT_EQ(rs.exec.vectorized_rows, 0u);
  db_.SetExecConfig(db_.exec_config().vectorized(true));
}

// Every recursive production is nesting-bounded: at 10k levels the
// parser fails with InvalidArgument instead of overflowing the stack,
// and ordinary nesting still parses.
TEST(SqlParseTest, DeepNestingFailsCleanly) {
  auto repeat = [](const std::string& s, int n) {
    std::string out;
    for (int i = 0; i < n; ++i) out += s;
    return out;
  };
  auto shapes = [&](int n) {
    return std::vector<std::string>{
        "SELECT " + repeat("(", n) + "1" + repeat(")", n) + " FROM t",
        "SELECT " + repeat("ABS(", n) + "1" + repeat(")", n) + " FROM t",
        "SELECT a FROM t WHERE " + repeat("NOT ", n) + "a = 1",
        "SELECT " + repeat("- ", n) + "1 FROM t",
        "SELECT * FROM " + repeat("(SELECT * FROM ", n) + "t" +
            repeat(") AS s", n),
    };
  };
  for (const std::string& sql : shapes(50)) {
    EXPECT_TRUE(ParseSql(sql).ok()) << sql.substr(0, 40);
  }
  for (const std::string& sql : shapes(10000)) {
    Result<std::unique_ptr<Statement>> stmt = ParseSql(sql);
    ASSERT_FALSE(stmt.ok()) << sql.substr(0, 40);
    EXPECT_EQ(stmt.status().code(), StatusCode::kInvalidArgument)
        << stmt.status().ToString();
  }
}

// Deletes leave a recyclable slot; re-inserts reuse it without growing
// the column vectors, and both execution modes keep dead slots invisible.
TEST_F(SqlEngineTest, DeletedSlotsAreRecycledAndStayInvisible) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE Slots (id BIGINT PRIMARY KEY, v VARCHAR(10));
      INSERT INTO Slots VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd');
    )sql")
                  .ok());
  Table* table = db_.GetTable("Slots");
  ASSERT_NE(table, nullptr);
  const size_t slots = table->slot_count();
  ASSERT_TRUE(db_.Execute("DELETE FROM Slots WHERE id = 2 OR id = 3").ok());
  EXPECT_EQ(table->row_count(), 2u);
  EXPECT_EQ(table->slot_count(), slots);
  for (bool vectorized : {true, false}) {
    db_.SetExecConfig(db_.exec_config().vectorized(vectorized));
    EXPECT_EQ(Query("SELECT COUNT(*) FROM Slots").rows[0][0],
              Value(int64_t{2}));
  }
  db_.SetExecConfig(db_.exec_config().vectorized(true));
  ASSERT_TRUE(db_.Execute("INSERT INTO Slots VALUES (5, 'e'), (6, 'f')").ok());
  EXPECT_EQ(table->slot_count(), slots);  // free slots recycled, no growth
  EXPECT_EQ(table->row_count(), 4u);
  // The primary-key index probes the recycled slots correctly.
  ResultSet rs = Query("SELECT v FROM Slots WHERE id = 6");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("f"));
  EXPECT_EQ(rs.exec.index_probes, 1u);
}

// Index postings hold stable slot numbers, so in-place column rewrites
// (UPDATE of an unrelated column) must not invalidate them.
TEST_F(SqlEngineTest, IndexPostingsSurviveColumnRewrites) {
  ASSERT_TRUE(
      db_.Execute("CREATE INDEX idx_sub ON Patient (subscriptionID)").ok());
  ASSERT_TRUE(
      db_.Execute("UPDATE Patient SET address = 'moved' WHERE patientID = 2")
          .ok());
  ResultSet rs =
      Query("SELECT name, address FROM Patient WHERE subscriptionID = 102");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("Bob"));
  EXPECT_EQ(rs.rows[0][1], Value("moved"));
  EXPECT_EQ(rs.exec.index_probes, 1u);
  // Rewriting the indexed column itself moves the posting.
  ASSERT_TRUE(
      db_.Execute(
             "UPDATE Patient SET subscriptionID = 202 WHERE patientID = 2")
          .ok());
  EXPECT_TRUE(
      Query("SELECT name FROM Patient WHERE subscriptionID = 102")
          .rows.empty());
  rs = Query("SELECT name FROM Patient WHERE subscriptionID = 202");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("Bob"));
}

TEST_F(SqlEngineTest, ColumnStatsTrackCountsAndMinMax) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE Stats (id BIGINT, score DOUBLE);
      INSERT INTO Stats VALUES (1, 2.5), (2, NULL), (7, 9.5), (4, 0.5);
    )sql")
                  .ok());
  const Table* table = db_.GetTable("Stats");
  ASSERT_NE(table, nullptr);
  Table::ColumnStats id_stats = table->GetColumnStats(0);
  EXPECT_EQ(id_stats.row_count, 4u);
  EXPECT_EQ(id_stats.null_count, 0u);
  EXPECT_EQ(id_stats.min, Value(int64_t{1}));
  EXPECT_EQ(id_stats.max, Value(int64_t{7}));
  Table::ColumnStats score_stats = table->GetColumnStats(1);
  EXPECT_EQ(score_stats.null_count, 1u);
  EXPECT_EQ(score_stats.min, Value(0.5));
  EXPECT_EQ(score_stats.max, Value(9.5));
  // Deleting the extreme value forces the lazy min/max rescan.
  ASSERT_TRUE(db_.Execute("DELETE FROM Stats WHERE id = 7").ok());
  id_stats = table->GetColumnStats(0);
  EXPECT_EQ(id_stats.row_count, 3u);
  EXPECT_EQ(id_stats.max, Value(int64_t{4}));
  EXPECT_EQ(table->GetColumnStats(1).max, Value(2.5));
  // The write path published per-column gauges to the global registry.
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  EXPECT_EQ(registry.GetGauge("sql.colstats.Stats.id.rows")->Value(), 3);
  EXPECT_EQ(registry.GetGauge("sql.colstats.Stats.score.nulls")->Value(), 1);
}

// OrderedIndex::ApproxBytes is driven by actual encoded key widths, not a
// per-entry constant: wider keys cost more bytes, and erases give the
// bytes back.
TEST_F(SqlEngineTest, OrderedIndexBytesTrackActualKeyWidths) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE Keys (id BIGINT, sk VARCHAR(8), lk VARCHAR(64));
      CREATE ORDERED INDEX oi_short ON Keys (sk);
      CREATE ORDERED INDEX oi_long ON Keys (lk);
      INSERT INTO Keys VALUES
        (1, 'a', 'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa'),
        (2, 'b', 'bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb');
    )sql")
                  .ok());
  const Table* table = db_.GetTable("Keys");
  ASSERT_NE(table, nullptr);
  const TableSchema& schema = table->schema();
  const OrderedIndex* short_index =
      table->FindOrderedIndexOn(*schema.ColumnIndex("sk"));
  const OrderedIndex* long_index =
      table->FindOrderedIndexOn(*schema.ColumnIndex("lk"));
  ASSERT_NE(short_index, nullptr);
  ASSERT_NE(long_index, nullptr);
  // Encoded string keys are length + 2.
  EXPECT_EQ(short_index->key_bytes(), 2u * (1 + 2));
  EXPECT_EQ(long_index->key_bytes(), 2u * (32 + 2));
  EXPECT_GT(long_index->ApproxBytes(), short_index->ApproxBytes());
  size_t before = long_index->ApproxBytes();
  ASSERT_TRUE(db_.Execute("DELETE FROM Keys WHERE id = 2").ok());
  EXPECT_EQ(long_index->key_bytes(), 32u + 2);
  EXPECT_LT(long_index->ApproxBytes(), before);
}

// Hash-index entries hold only the key hash and the row id; every check
// that used to compare stored key copies now reads the table's cells.
TEST_F(SqlEngineTest, KeyFreeIndexStillEnforcesUniqueAndForeignKeys) {
  // Single-row INSERT against the primary key.
  EXPECT_EQ(db_.Execute("INSERT INTO Patient VALUES (2, 'Dup', 'x', 1)")
                .status()
                .code(),
            StatusCode::kConstraintViolation);
  // Multi-row INSERT: the second row collides with the first.
  EXPECT_EQ(db_.Execute("INSERT INTO Disease VALUES (20, 'a', 'b'), "
                        "(20, 'c', 'd')")
                .status()
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(Query("SELECT COUNT(*) FROM Disease WHERE diseaseID = 20")
                .rows[0][0],
            Value(int64_t{1}));
  // A string-keyed unique index rejects duplicates, including on build.
  ASSERT_TRUE(db_.Execute("CREATE UNIQUE INDEX u_code ON Disease "
                          "(conceptCode)")
                  .ok());
  EXPECT_EQ(db_.Execute("INSERT INTO Disease VALUES (21, 'D10', 'dup')")
                .status()
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(db_.Execute("CREATE UNIQUE INDEX u_sub ON HasDisease "
                        "(diseaseID)")
                .status()
                .code(),
            StatusCode::kConstraintViolation);
  // A composite unique index sees a collision only on the whole key.
  ASSERT_TRUE(db_.Execute("CREATE UNIQUE INDEX u_pd ON HasDisease "
                          "(patientID, diseaseID)")
                  .ok());
  EXPECT_TRUE(db_.Execute("INSERT INTO HasDisease VALUES (1, 12, 'x')").ok());
  EXPECT_EQ(db_.Execute("INSERT INTO HasDisease VALUES (1, 12, 'y')")
                .status()
                .code(),
            StatusCode::kConstraintViolation);
  // Foreign keys probe the referenced primary key with Contains: a moved
  // key is found under its new value only.
  ASSERT_TRUE(
      db_.Execute("UPDATE Patient SET patientID = 9 WHERE patientID = 3").ok());
  EXPECT_EQ(db_.Execute("INSERT INTO HasDisease VALUES (3, 10, 'gone')")
                .status()
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_TRUE(db_.Execute("INSERT INTO HasDisease VALUES (9, 10, 'moved')")
                  .ok());
}

TEST_F(SqlEngineTest, KeyFreeIndexReturnsExactRowsAfterChurn) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE Churn (id BIGINT PRIMARY KEY, s VARCHAR(16), n BIGINT,
                          d DOUBLE);
      CREATE INDEX i_s ON Churn (s);
      CREATE INDEX i_n ON Churn (n);
      CREATE INDEX i_sn ON Churn (s, n);
    )sql")
                  .ok());
  Table* table = db_.GetTable("Churn");
  ASSERT_NE(table, nullptr);
  const size_t s_col = 1;
  const size_t n_col = 2;
  const Index* by_s = table->FindIndexOn({s_col});
  const Index* by_n = table->FindIndexOn({n_col});
  const Index* by_sn = table->FindIndexOn({s_col, n_col});
  ASSERT_NE(by_s, nullptr);
  ASSERT_NE(by_n, nullptr);
  ASSERT_NE(by_sn, nullptr);
  ASSERT_EQ(by_sn->column_indexes(), (std::vector<size_t>{s_col, n_col}));

  std::mt19937_64 rng(7);
  auto pick_s = [&]() -> std::string {
    int k = static_cast<int>(rng() % 6);
    return k == 5 ? "NULL" : "'k" + std::to_string(k) + "'";
  };
  auto pick_n = [&]() -> std::string {
    int k = static_cast<int>(rng() % 5);
    return k == 4 ? "NULL" : std::to_string(k);
  };
  int64_t next_id = 0;
  for (; next_id < 60; ++next_id) {
    ASSERT_TRUE(db_.Execute("INSERT INTO Churn VALUES (" +
                            std::to_string(next_id) + ", " + pick_s() + ", " +
                            pick_n() + ", 1.5)")
                    .ok());
  }
  // Brute force: live rows whose cells compare equal to `key`, which is
  // what an index lookup promises (NULL matches NULL; 2.0 matches 2).
  auto expected = [&](const std::vector<size_t>& cols, const Row& key) {
    std::vector<RowId> rids;
    for (RowId rid = 0; rid < table->slot_count(); ++rid) {
      if (!table->IsLive(rid)) continue;
      bool match = true;
      for (size_t i = 0; i < cols.size(); ++i) {
        match &= table->ValueAt(rid, cols[i]) == key[i];
      }
      if (match) rids.push_back(rid);
    }
    return rids;
  };
  auto lookup = [](const Index* index, const Row& key) {
    std::vector<RowId> rids;
    index->Lookup(key, &rids);
    std::sort(rids.begin(), rids.end());
    return rids;
  };
  std::vector<Value> s_keys = {Value("k0"), Value("k1"), Value("k4"),
                               Value("nope"), Value::Null()};
  std::vector<Value> n_keys = {Value(int64_t{0}), Value(2.0), Value(3.5),
                               Value::Null()};
  for (int round = 0; round < 40; ++round) {
    switch (rng() % 4) {
      case 0:
        ASSERT_TRUE(db_.Execute("UPDATE Churn SET s = " + pick_s() +
                                " WHERE n = " + pick_n())
                        .ok());
        break;
      case 1:
        ASSERT_TRUE(db_.Execute("UPDATE Churn SET n = " + pick_n() +
                                " WHERE s = " + pick_s())
                        .ok());
        break;
      case 2:
        ASSERT_TRUE(db_.Execute("DELETE FROM Churn WHERE id = " +
                                std::to_string(rng() % next_id))
                        .ok());
        break;
      default:
        ASSERT_TRUE(db_.Execute("INSERT INTO Churn VALUES (" +
                                std::to_string(next_id++) + ", " + pick_s() +
                                ", " + pick_n() + ", 2.5)")
                        .ok());
        break;
    }
    for (const Value& s : s_keys) {
      EXPECT_EQ(lookup(by_s, {s}), expected({s_col}, {s})) << round;
      EXPECT_EQ(by_s->Contains({s}), !expected({s_col}, {s}).empty());
      for (const Value& n : n_keys) {
        EXPECT_EQ(lookup(by_sn, {s, n}), expected({s_col, n_col}, {s, n}))
            << round;
      }
    }
    for (const Value& n : n_keys) {
      EXPECT_EQ(lookup(by_n, {n}), expected({n_col}, {n})) << round;
    }
    EXPECT_EQ(by_s->entry_count(), table->row_count());
    EXPECT_EQ(by_sn->entry_count(), table->row_count());
  }
}

TEST_F(SqlEngineTest, KeyFreeIndexEntryBytesIgnoreKeyWidth) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE WideKeys (k VARCHAR(64));
      CREATE TABLE IntKeys (k BIGINT);
      CREATE INDEX i_wide ON WideKeys (k);
      CREATE INDEX i_int ON IntKeys (k);
    )sql")
                  .ok());
  for (int i = 0; i < 50; ++i) {
    std::string wide = std::to_string(i);
    wide = std::string(64 - wide.size(), 'w') + wide;
    ASSERT_EQ(wide.size(), 64u);
    ASSERT_TRUE(
        db_.Execute("INSERT INTO WideKeys VALUES ('" + wide + "')").ok());
    ASSERT_TRUE(
        db_.Execute("INSERT INTO IntKeys VALUES (" + std::to_string(i) + ")")
            .ok());
  }
  const Index* wide = db_.GetTable("WideKeys")->indexes().front().get();
  const Index* narrow = db_.GetTable("IntKeys")->indexes().front().get();
  ASSERT_EQ(wide->entry_count(), 50u);
  EXPECT_EQ(wide->ApproxBytes(), narrow->ApproxBytes());
  EXPECT_EQ(wide->ApproxBytes(),
            64 + 50 * (sizeof(size_t) + sizeof(RowId) + 32));
}

// Writes keep the counts exact and leave min/max/NDV to the next stats
// read, which rescans whatever a delete or update invalidated.
TEST_F(SqlEngineTest, ColumnStatsStayExactAcrossUpdatesAndDeletes) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE Fresh (id BIGINT PRIMARY KEY, "
                          "v BIGINT, s VARCHAR(8))")
                  .ok());
  for (int i = 0; i < 40; ++i) {
    std::string v = i % 7 == 0 ? "NULL" : std::to_string(i % 13);
    ASSERT_TRUE(db_.Execute("INSERT INTO Fresh VALUES (" + std::to_string(i) +
                            ", " + v + ", 's" + std::to_string(i % 5) + "')")
                    .ok());
  }
  std::mt19937_64 rng(11);
  for (int op = 0; op < 30; ++op) {
    std::string id = std::to_string(rng() % 40);
    std::string sql;
    switch (rng() % 3) {
      case 0:
        sql = "UPDATE Fresh SET v = " + std::to_string(rng() % 50) +
              " WHERE id = " + id;
        break;
      case 1:
        sql = "UPDATE Fresh SET v = NULL, s = 'z' WHERE id = " + id;
        break;
      default:
        sql = "DELETE FROM Fresh WHERE id = " + id;
        break;
    }
    ResultSet rs = Query(sql);
    EXPECT_EQ(rs.exec.full_scans, 0u) << sql;
  }
  const Table* table = db_.GetTable("Fresh");
  ASSERT_NE(table, nullptr);
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  for (size_t c = 0; c < table->column_count(); ++c) {
    const std::string& name = table->schema().columns[c].name;
    ResultSet values = Query("SELECT " + name + " FROM Fresh");
    std::set<Value> distinct;
    uint64_t nulls = 0;
    for (const Row& row : values.rows) {
      if (row[0].is_null()) {
        ++nulls;
      } else {
        distinct.insert(row[0]);
      }
    }
    // The write path published exact counts without a stats read.
    const std::string prefix = "sql.colstats.Fresh." + name;
    EXPECT_EQ(registry.GetGauge(prefix + ".rows")->Value(),
              static_cast<int64_t>(values.rows.size()));
    EXPECT_EQ(registry.GetGauge(prefix + ".nulls")->Value(),
              static_cast<int64_t>(nulls));

    Table::ColumnStats stats = table->GetColumnStats(c);
    EXPECT_EQ(stats.row_count, values.rows.size()) << name;
    EXPECT_EQ(stats.null_count, nulls) << name;
    EXPECT_EQ(stats.ndv, distinct.size()) << name;  // exact below 256
    ASSERT_FALSE(distinct.empty());
    EXPECT_EQ(stats.min, *distinct.begin()) << name;
    EXPECT_EQ(stats.max, *distinct.rbegin()) << name;
    // The stats read published the NDV it computed.
    EXPECT_EQ(registry.GetGauge(prefix + ".ndv")->Value(),
              static_cast<int64_t>(distinct.size()));

    ResultSet sysmon = Query(
        "SELECT rows, nulls, ndv, min, max FROM sysmon.column_stats "
        "WHERE table_name = 'Fresh' AND column_name = '" + name + "'");
    ASSERT_EQ(sysmon.rows.size(), 1u);
    EXPECT_EQ(sysmon.rows[0][0],
              Value(static_cast<int64_t>(values.rows.size())));
    EXPECT_EQ(sysmon.rows[0][1], Value(static_cast<int64_t>(nulls)));
    EXPECT_EQ(sysmon.rows[0][2],
              Value(static_cast<int64_t>(distinct.size())));
    EXPECT_EQ(sysmon.rows[0][3], Value(distinct.begin()->ToString()));
    EXPECT_EQ(sysmon.rows[0][4], Value(distinct.rbegin()->ToString()));
  }
}

TEST_F(SqlEngineTest, UpdateCoercesAndChecksLikeInsert) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE Typed (id BIGINT PRIMARY KEY, "
                          "d DOUBLE, n BIGINT NOT NULL)")
                  .ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO Typed VALUES (1, 1, 1)").ok());
  ASSERT_TRUE(db_.Execute("UPDATE Typed SET d = 4, n = 6.0 WHERE id = 1").ok());
  ResultSet rs = Query("SELECT d, n FROM Typed WHERE id = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_TRUE(rs.rows[0][0].is_double());
  EXPECT_EQ(rs.rows[0][0], Value(4.0));
  EXPECT_TRUE(rs.rows[0][1].is_int());
  EXPECT_EQ(rs.rows[0][1], Value(int64_t{6}));
  EXPECT_EQ(db_.Execute("UPDATE Typed SET n = NULL WHERE id = 1")
                .status()
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(db_.Execute("UPDATE Typed SET n = 'x' WHERE id = 1")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Query("SELECT n FROM Typed WHERE id = 1").rows[0][0],
            Value(int64_t{6}));
}

}  // namespace
}  // namespace db2graph::sql

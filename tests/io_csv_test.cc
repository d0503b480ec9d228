// CSV import/export and the conflict report.
#include "io/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "db/conflict_report.h"
#include "db/database.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute(
        "CREATE TABLE emp (name VARCHAR, dept VARCHAR, salary INTEGER)"));
  }
  Database db_;
};

TEST_F(CsvTest, BasicImport) {
  auto stats = ImportCsvText(&db_, "emp",
                             "name,dept,salary\n"
                             "ann,sales,10\n"
                             "bob,eng,20\n");
  ASSERT_OK(stats.status());
  EXPECT_EQ(stats.value().rows_read, 2u);
  EXPECT_EQ(stats.value().rows_inserted, 2u);
  auto rs = db_.Query("SELECT * FROM emp ORDER BY name");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().rows[0],
            (Row{Value::String("ann"), Value::String("sales"),
                 Value::Int(10)}));
}

TEST_F(CsvTest, QuotedFieldsDelimitersAndEscapes) {
  auto stats = ImportCsvText(&db_, "emp",
                             "name,dept,salary\n"
                             "\"smith, jr\",\"r\"\"n\"\"d\",30\n");
  ASSERT_OK(stats.status());
  auto rs = db_.Query("SELECT name, dept FROM emp");
  ASSERT_OK(rs.status());
  ASSERT_EQ(rs.value().NumRows(), 1u);
  EXPECT_EQ(rs.value().rows[0][0], Value::String("smith, jr"));
  EXPECT_EQ(rs.value().rows[0][1], Value::String("r\"n\"d"));
}

TEST_F(CsvTest, EmbeddedNewlineInQuotedField) {
  auto stats = ImportCsvText(&db_, "emp",
                             "name,dept,salary\n\"two\nlines\",ops,1\n");
  ASSERT_OK(stats.status());
  auto rs = db_.Query("SELECT name FROM emp");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().rows[0][0], Value::String("two\nlines"));
}

TEST_F(CsvTest, CrlfAndMissingFinalNewline) {
  auto stats = ImportCsvText(&db_, "emp",
                             "name,dept,salary\r\nann,sales,10\r\nbob,eng,20");
  ASSERT_OK(stats.status());
  EXPECT_EQ(stats.value().rows_read, 2u);
}

TEST_F(CsvTest, NullTokenAndQuotedEmptyString) {
  auto stats = ImportCsvText(&db_, "emp",
                             "name,dept,salary\nann,,10\nbob,\"\",20\n");
  ASSERT_OK(stats.status());
  auto rs = db_.Query("SELECT dept FROM emp WHERE dept IS NULL");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().NumRows(), 1u);  // ann's dept NULL; bob's "" string
  auto empty = db_.Query("SELECT dept FROM emp WHERE dept = ''");
  ASSERT_OK(empty.status());
  EXPECT_EQ(empty.value().NumRows(), 1u);
}

TEST_F(CsvTest, SetSemanticsDedupe) {
  auto stats = ImportCsvText(&db_, "emp",
                             "name,dept,salary\nann,sales,10\nann,sales,10\n");
  ASSERT_OK(stats.status());
  EXPECT_EQ(stats.value().rows_read, 2u);
  EXPECT_EQ(stats.value().rows_inserted, 1u);
}

TEST_F(CsvTest, TypeErrorsIdentifyLineAndColumn) {
  auto stats = ImportCsvText(&db_, "emp",
                             "name,dept,salary\nann,sales,ten\n");
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(stats.status().message().find("column 3"), std::string::npos);
}

TEST_F(CsvTest, NanIsRefused) {
  // strtod accepts "nan", but the table refuses a value unequal to itself.
  ASSERT_OK(db_.Execute("CREATE TABLE m (k INTEGER, v DOUBLE)"));
  for (const char* cell : {"nan", "NAN", "-nan"}) {
    auto stats = ImportCsvText(&db_, "m", std::string("k,v\n1,") + cell);
    ASSERT_FALSE(stats.ok()) << cell;
    EXPECT_NE(stats.status().message().find("NaN"), std::string::npos)
        << stats.status().ToString();
  }
  ASSERT_OK(ImportCsvText(&db_, "m", "k,v\n1,inf\n2,-1.5\n").status());
}

TEST_F(CsvTest, ArityMismatchFails) {
  EXPECT_FALSE(
      ImportCsvText(&db_, "emp", "name,dept,salary\nann,sales\n").ok());
  EXPECT_FALSE(ImportCsvText(&db_, "emp", "name,dept\n").ok());  // header
}

TEST_F(CsvTest, MalformedQuotingFails) {
  EXPECT_FALSE(
      ImportCsvText(&db_, "emp", "name,dept,salary\nan\"n,sales,1\n").ok());
  EXPECT_FALSE(
      ImportCsvText(&db_, "emp", "name,dept,salary\n\"ann,sales,1\n").ok());
}

TEST_F(CsvTest, NoHeaderOption) {
  CsvOptions options;
  options.header = false;
  auto stats = ImportCsvText(&db_, "emp", "ann,sales,10\n", options);
  ASSERT_OK(stats.status());
  EXPECT_EQ(stats.value().rows_read, 1u);
}

TEST_F(CsvTest, RoundTripThroughFile) {
  ASSERT_OK(db_.Execute(
      "INSERT INTO emp VALUES ('a,b', 'x\ny', 1), ('q\"r', NULL, 2)"));
  auto rs = db_.Query("SELECT * FROM emp ORDER BY salary");
  ASSERT_OK(rs.status());

  std::string path = ::testing::TempDir() + "/hippo_csv_roundtrip.csv";
  ASSERT_OK(ExportCsvFile(rs.value(), path));

  Database db2;
  ASSERT_OK(db2.Execute(
      "CREATE TABLE emp (name VARCHAR, dept VARCHAR, salary INTEGER)"));
  auto imported = ImportCsvFile(&db2, "emp", path);
  ASSERT_OK(imported.status());
  auto rs2 = db2.Query("SELECT * FROM emp ORDER BY salary");
  ASSERT_OK(rs2.status());
  EXPECT_EQ(SortedRows(rs.value()), SortedRows(rs2.value()));
  std::remove(path.c_str());
}

TEST_F(CsvTest, CopyStatements) {
  std::string path = ::testing::TempDir() + "/hippo_copy_test.csv";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "name,dept,salary\nann,sales,10\nbob,eng,20\n";
  }
  ASSERT_OK(db_.Execute("COPY emp FROM '" + path + "'"));
  auto rs = db_.Query("SELECT * FROM emp");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().NumRows(), 2u);

  std::string out_path = ::testing::TempDir() + "/hippo_copy_out.csv";
  ASSERT_OK(db_.Execute("COPY emp TO '" + out_path + "'"));
  Database db2;
  ASSERT_OK(db2.Execute(
      "CREATE TABLE emp (name VARCHAR, dept VARCHAR, salary INTEGER)"));
  ASSERT_OK(db2.Execute("COPY emp FROM '" + out_path + "'"));
  auto rs2 = db2.Query("SELECT * FROM emp");
  ASSERT_OK(rs2.status());
  EXPECT_EQ(SortedRows(rs.value()), SortedRows(rs2.value()));
  std::remove(path.c_str());
  std::remove(out_path.c_str());
}

TEST_F(CsvTest, MissingFileIsNotFound) {
  auto st = ImportCsvFile(&db_, "emp", "/nonexistent/nope.csv");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kNotFound);
}

TEST_F(CsvTest, ImportFeedsIncrementalMaintenance) {
  ASSERT_OK(db_.Execute("CREATE CONSTRAINT fd FD ON emp (name -> salary)"));
  ASSERT_OK(db_.EnableIncrementalMaintenance());
  auto stats = ImportCsvText(&db_, "emp",
                             "name,dept,salary\nann,sales,10\nann,ops,11\n");
  ASSERT_OK(stats.status());
  auto g = db_.Hypergraph();
  ASSERT_OK(g.status());
  EXPECT_EQ(g.value()->NumEdges(), 1u);
  EXPECT_EQ(db_.incremental_stats().edges_added, 1u);
}

// --- conflict report ---------------------------------------------------------

TEST(ConflictReportTest, RendersWitnessesAndVerdict) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE emp (name VARCHAR, salary INTEGER);"
      "CREATE TABLE audit (name VARCHAR);"
      "INSERT INTO emp VALUES ('ann', 10), ('ann', 11), ('bob', 20);"
      "INSERT INTO audit VALUES ('bob');"
      "CREATE CONSTRAINT fd FD ON emp (name -> salary);"
      "CREATE CONSTRAINT ex EXCLUSION ON emp (name), audit (name)"));
  auto report = GenerateConflictReport(&db);
  ASSERT_OK(report.status());
  const std::string& text = report.value();
  EXPECT_NE(text.find("verdict: INCONSISTENT"), std::string::npos);
  EXPECT_NE(text.find("violations: 1"), std::string::npos);
  EXPECT_NE(text.find("emp('ann', 10)"), std::string::npos) << text;
  EXPECT_NE(text.find("audit('bob')"), std::string::npos) << text;
  EXPECT_NE(text.find("repairs: 4"), std::string::npos) << text;
}

TEST(ConflictReportTest, ConsistentDatabase) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE emp (name VARCHAR, salary INTEGER);"
      "INSERT INTO emp VALUES ('ann', 10);"
      "CREATE CONSTRAINT fd FD ON emp (name -> salary)"));
  auto report = GenerateConflictReport(&db);
  ASSERT_OK(report.status());
  EXPECT_NE(report.value().find("verdict: CONSISTENT"), std::string::npos);
}

TEST(ConflictReportTest, DotOutput) {
  Database db;
  ASSERT_OK(db.Execute(
      "CREATE TABLE t (a INTEGER, b INTEGER);"
      "INSERT INTO t VALUES (1, 1), (1, 2), (1, 3);"
      "CREATE CONSTRAINT fd FD ON t (a -> b)"));
  auto g = db.Hypergraph();
  ASSERT_OK(g.status());
  std::string dot = g.value()->ToDot();
  EXPECT_NE(dot.find("graph conflicts {"), std::string::npos);
  EXPECT_NE(dot.find("--"), std::string::npos);  // at least one edge line
  // Truncation annotation kicks in under a small cap.
  std::string truncated = g.value()->ToDot(/*max_edges=*/1);
  EXPECT_NE(truncated.find("1 of 3 edges shown"), std::string::npos)
      << truncated;
}

}  // namespace
}  // namespace hippo

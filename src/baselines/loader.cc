#include "baselines/loader.h"

namespace db2graph::baselines {

namespace {

using Properties = std::vector<std::pair<std::string, Value>>;

// Bytes of the CSV line an export file holds for one element: the
// leading fields in `line`, then every property value, comma-separated.
size_t CsvLineBytes(std::string line, const Properties& properties) {
  for (const auto& [key, value] : properties) {
    (void)key;
    line += ',';
    line += value.ToString();
  }
  return line.size() + 1;
}

// Callers aggregate-initialize each element: assigning temporary Values
// into a default-constructed one trips GCC 12's -Wmaybe-uninitialized
// under ASan.
void AddVertex(ExportedVertex v, ExportedGraph* out) {
  out->csv_bytes +=
      CsvLineBytes(v.id.ToString() + "," + v.label, v.properties);
  out->vertices.push_back(std::move(v));
}

void AddEdge(ExportedEdge e, ExportedGraph* out) {
  out->csv_bytes += CsvLineBytes(
      e.src.ToString() + "," + e.label + "," + e.dst.ToString(),
      e.properties);
  out->edges.push_back(std::move(e));
}

}  // namespace

Result<ExportedGraph> ExportLinkBenchTables(sql::Database* db) {
  ExportedGraph exported;

  Result<sql::ResultSet> nodes = db->Execute("SELECT * FROM Node");
  if (!nodes.ok()) return nodes.status();
  exported.vertices.reserve(nodes->rows.size());
  for (const Row& row : nodes->rows) {
    AddVertex({row[0],
               row[1].ToString(),
               {{"version", row[2]}, {"time", row[3]}, {"data", row[4]}}},
              &exported);
  }

  Result<sql::ResultSet> links = db->Execute("SELECT * FROM Link");
  if (!links.ok()) return links.status();
  exported.edges.reserve(links->rows.size());
  int64_t next_edge_id = 1000000000;  // surrogate ids for the graph stores
  for (const Row& row : links->rows) {
    AddEdge({Value(next_edge_id++),
             row[1].ToString(),
             row[0],
             row[2],
             {{"visibility", row[3]},
              {"data", row[4]},
              {"time", row[5]},
              {"version", row[6]}}},
            &exported);
  }
  return exported;
}

Result<ExportedGraph> ExportPartitionedLinkBenchTables(sql::Database* db) {
  ExportedGraph exported;
  int64_t next_edge_id = 1000000000;
  for (int t = 0; t < 10; ++t) {
    const std::string label = "vt" + std::to_string(t);
    Result<sql::ResultSet> nodes =
        db->Execute("SELECT * FROM Node_t" + std::to_string(t));
    if (!nodes.ok()) return nodes.status();
    for (const Row& row : nodes->rows) {
      AddVertex({row[0],
                 label,
                 {{"version", row[1]}, {"time", row[2]}, {"data", row[3]}}},
                &exported);
    }
  }
  for (int t = 0; t < 10; ++t) {
    const std::string label = "et" + std::to_string(t);
    Result<sql::ResultSet> links =
        db->Execute("SELECT * FROM Link_e" + std::to_string(t));
    if (!links.ok()) return links.status();
    for (const Row& row : links->rows) {
      AddEdge({Value(next_edge_id++),
               label,
               row[0],
               row[1],
               {{"visibility", row[2]},
                {"data", row[3]},
                {"time", row[4]},
                {"version", row[5]}}},
              &exported);
    }
  }
  return exported;
}

}  // namespace db2graph::baselines

#ifndef QCFE_UTIL_TABLE_PRINTER_H_
#define QCFE_UTIL_TABLE_PRINTER_H_

/// \file table_printer.h
/// Console table rendering for the benchmark harness. All paper tables
/// are printed through this so the output format is uniform.

#include <ostream>
#include <string>
#include <vector>

namespace qcfe {

/// Accumulates rows of strings and renders an ASCII-aligned table.
///
///   TablePrinter tp({"model", "pearson", "mean", "time"});
///   tp.AddRow({"QCFE(qpp)", "0.985", "1.072", "424.3"});
///   tp.Print(std::cout);
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Appends a row; short rows are padded with empty cells.
  void AddRow(std::vector<std::string> row);

  /// Renders the table with column alignment and a header separator.
  void Print(std::ostream& os) const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a section banner used between experiments in bench output.
void PrintBanner(std::ostream& os, const std::string& title);

}  // namespace qcfe

#endif  // QCFE_UTIL_TABLE_PRINTER_H_

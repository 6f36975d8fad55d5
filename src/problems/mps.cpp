#include "problems/mps.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "support/strings.hpp"

namespace gpumip::problems {

namespace {

[[noreturn]] void io_fail(const std::string& message) {
  throw Error(ErrorCode::kIoError, "MPS: " + message);
}

/// Parses a numeric field. The whole token must be a number in double range.
double number(const std::string& tok) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0') io_fail("expected a number, got '" + tok + "'");
  if (errno == ERANGE) io_fail("number out of range: '" + tok + "'");
  return value;
}

std::string show(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

struct RowInfo {
  char type = 'N';  // N, L, G, E
  int index = -1;   // model row index (-1 for the objective N row)
};

}  // namespace

mip::MipModel read_mps(std::istream& in) {
  mip::MipModel model;
  lp::LpModel& lp = model.lp();

  std::map<std::string, RowInfo> rows;
  std::map<std::string, int> cols;
  std::string objective_row;
  std::string section;
  bool in_integer_block = false;
  std::string line;
  bool saw_endata = false;
  // Columns that got an explicit bound (to keep MPS default semantics).
  std::map<int, bool> has_lower_bound;
  int line_no = 0;
  // Line of each column's last BOUNDS entry. Bounds may cross while the
  // section is read (UP before a higher LO, then a higher UP), so a crossed
  // pair is reported once the section ends, at that line.
  std::map<int, int> last_bounds_line;
  auto check_bounds = [&] {
    for (const auto& [j, at] : last_bounds_line) {
      const lp::ColumnDef& col = lp.col(j);
      if (!(col.lb <= col.ub)) {  // negated so that a NaN bound fails too
        io_fail("line " + std::to_string(at) + ": bounds of column '" + col.name +
                "' cross (lb " + show(col.lb) + " > ub " + show(col.ub) + ")");
      }
    }
    last_bounds_line.clear();
  };

  auto get_col = [&](const std::string& name, bool integer) {
    auto it = cols.find(name);
    if (it != cols.end()) return it->second;
    const int j = integer ? model.add_int_col(0.0, 0.0, lp::kInf, name)
                          : model.add_col(0.0, 0.0, lp::kInf, name);
    cols[name] = j;
    return j;
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '*') continue;
    const bool is_header = !std::isspace(static_cast<unsigned char>(line[0]));
    std::vector<std::string> tok = split_ws(line);
    if (tok.empty()) continue;
    if (is_header) {
      check_bounds();
      const std::string head = to_upper(tok[0]);
      if (head == "NAME") {
        continue;
      } else if (head == "ROWS" || head == "COLUMNS" || head == "RHS" || head == "RANGES" ||
                 head == "BOUNDS") {
        section = head;
        continue;
      } else if (head == "ENDATA") {
        saw_endata = true;
        break;
      } else if (head == "OBJSENSE") {
        section = "OBJSENSE";
        continue;
      } else {
        io_fail("unknown section '" + tok[0] + "'");
      }
    }
    if (section == "OBJSENSE") {
      const std::string s = to_upper(tok[0]);
      if (s == "MAX" || s == "MAXIMIZE") lp.set_sense(lp::Sense::Maximize);
      if (s == "MIN" || s == "MINIMIZE") lp.set_sense(lp::Sense::Minimize);
    } else if (section == "ROWS") {
      if (tok.size() < 2) io_fail("ROWS line needs type and name");
      const char type = static_cast<char>(std::toupper(static_cast<unsigned char>(tok[0][0])));
      const std::string& name = tok[1];
      RowInfo info;
      info.type = type;
      switch (type) {
        case 'N':
          if (objective_row.empty()) objective_row = name;
          info.index = -1;
          break;
        case 'L': info.index = lp.add_row(-lp::kInf, 0.0, name); break;
        case 'G': info.index = lp.add_row(0.0, lp::kInf, name); break;
        case 'E': info.index = lp.add_row(0.0, 0.0, name); break;
        default: io_fail(std::string("bad row type '") + type + "'");
      }
      rows[name] = info;
    } else if (section == "COLUMNS") {
      // MARKER lines toggle integrality.
      if (tok.size() >= 3 && to_upper(tok[1]) == "'MARKER'") {
        const std::string marker = to_upper(tok[2]);
        if (marker == "'INTORG'") in_integer_block = true;
        if (marker == "'INTEND'") in_integer_block = false;
        continue;
      }
      if (tok.size() < 3 || tok.size() % 2 == 0) io_fail("bad COLUMNS line: " + line);
      const int j = get_col(tok[0], in_integer_block);
      for (std::size_t k = 1; k + 1 < tok.size(); k += 2) {
        auto it = rows.find(tok[k]);
        if (it == rows.end()) io_fail("unknown row '" + tok[k] + "'");
        const double value = number(tok[k + 1]);
        if (it->second.index < 0) {
          if (tok[k] == objective_row) lp.col(j).obj = value;
          // other N rows are ignored (free rows)
        } else {
          lp.set_coef(it->second.index, j, value);
        }
      }
    } else if (section == "RHS") {
      if (tok.size() < 3 || tok.size() % 2 == 0) io_fail("bad RHS line: " + line);
      for (std::size_t k = 1; k + 1 < tok.size(); k += 2) {
        auto it = rows.find(tok[k]);
        if (it == rows.end()) io_fail("unknown RHS row '" + tok[k] + "'");
        if (it->second.index < 0) continue;  // objective constant: ignore
        const double value = number(tok[k + 1]);
        lp::RowDef& row = lp.row(it->second.index);
        switch (it->second.type) {
          case 'L': row.ub = value; break;
          case 'G': row.lb = value; break;
          case 'E': row.lb = row.ub = value; break;
          default: break;
        }
      }
    } else if (section == "RANGES") {
      if (tok.size() < 3 || tok.size() % 2 == 0) io_fail("bad RANGES line: " + line);
      for (std::size_t k = 1; k + 1 < tok.size(); k += 2) {
        auto it = rows.find(tok[k]);
        if (it == rows.end()) io_fail("unknown RANGES row '" + tok[k] + "'");
        if (it->second.index < 0) continue;
        const double r = number(tok[k + 1]);
        lp::RowDef& row = lp.row(it->second.index);
        switch (it->second.type) {
          case 'L': row.lb = row.ub - std::fabs(r); break;
          case 'G': row.ub = row.lb + std::fabs(r); break;
          case 'E':
            if (r >= 0) {
              row.ub = row.lb + r;
            } else {
              row.lb = row.ub + r;
            }
            break;
          default: break;
        }
      }
    } else if (section == "BOUNDS") {
      if (tok.size() < 3) io_fail("bad BOUNDS line: " + line);
      const std::string type = to_upper(tok[0]);
      auto it = cols.find(tok[2]);
      if (it == cols.end()) io_fail("unknown BOUNDS column '" + tok[2] + "'");
      lp::ColumnDef& col = lp.col(it->second);
      const double value = tok.size() >= 4 ? number(tok[3]) : 0.0;
      last_bounds_line[it->second] = line_no;
      if (type == "UP") {
        col.ub = value;
        // MPS quirk: UP with a negative value and no prior LO makes lb -inf.
        if (value < 0 && !has_lower_bound[it->second]) col.lb = -lp::kInf;
      } else if (type == "LO") {
        col.lb = value;
        has_lower_bound[it->second] = true;
      } else if (type == "FX") {
        col.lb = col.ub = value;
        has_lower_bound[it->second] = true;
      } else if (type == "FR") {
        col.lb = -lp::kInf;
        col.ub = lp::kInf;
      } else if (type == "MI") {
        col.lb = -lp::kInf;
      } else if (type == "PL") {
        col.ub = lp::kInf;
      } else if (type == "BV") {
        col.lb = 0.0;
        col.ub = 1.0;
        model.set_integer(it->second, true);
        has_lower_bound[it->second] = true;
      } else if (type == "UI") {
        col.ub = value;
        model.set_integer(it->second, true);
      } else if (type == "LI") {
        col.lb = value;
        model.set_integer(it->second, true);
        has_lower_bound[it->second] = true;
      } else {
        io_fail("unknown bound type '" + tok[0] + "'");
      }
    } else if (section.empty()) {
      io_fail("data before any section: " + line);
    }
  }
  check_bounds();
  if (!saw_endata) io_fail("missing ENDATA");
  model.validate();
  return model;
}

mip::MipModel read_mps_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) io_fail("cannot open '" + path + "'");
  return read_mps(in);
}

mip::MipModel read_mps_string(const std::string& text) {
  std::istringstream in(text);
  return read_mps(in);
}

void write_mps(const mip::MipModel& model, std::ostream& out, const std::string& name) {
  const lp::LpModel& lp = model.lp();
  out << "NAME " << name << "\n";
  if (lp.sense() == lp::Sense::Maximize) out << "OBJSENSE\n MAX\n";
  out << "ROWS\n N COST\n";
  auto row_name = [&](int i) {
    const std::string& n = lp.row(i).name;
    return n.empty() ? "R" + std::to_string(i) : n;
  };
  auto col_name = [&](int j) {
    const std::string& n = lp.col(j).name;
    return n.empty() ? "C" + std::to_string(j) : n;
  };
  std::vector<char> row_type(static_cast<std::size_t>(lp.num_rows()), 'E');
  for (int i = 0; i < lp.num_rows(); ++i) {
    const auto& r = lp.row(i);
    char t;
    if (r.lb == r.ub) {
      t = 'E';
    } else if (std::isfinite(r.ub)) {
      t = 'L';  // ranged rows get a RANGES entry
    } else if (std::isfinite(r.lb)) {
      t = 'G';
    } else {
      t = 'L';  // free row: emit as L with +inf rhs... use N instead
    }
    row_type[static_cast<std::size_t>(i)] = t;
    out << " " << t << " " << row_name(i) << "\n";
  }
  out << "COLUMNS\n";
  const sparse::Csc by_col = sparse::csr_to_csc(lp.matrix());
  bool in_int = false;
  int marker = 0;
  for (int j = 0; j < lp.num_cols(); ++j) {
    if (model.is_integer(j) != in_int) {
      out << " MK" << marker++ << " 'MARKER' " << (model.is_integer(j) ? "'INTORG'" : "'INTEND'")
          << "\n";
      in_int = model.is_integer(j);
    }
    if (lp.col(j).obj != 0.0) {
      out << " " << col_name(j) << " COST " << lp.col(j).obj << "\n";
    }
    for (int k = by_col.col_start[static_cast<std::size_t>(j)];
         k < by_col.col_start[static_cast<std::size_t>(j) + 1]; ++k) {
      out << " " << col_name(j) << " "
          << row_name(by_col.row_index[static_cast<std::size_t>(k)]) << " "
          << by_col.values[static_cast<std::size_t>(k)] << "\n";
    }
  }
  if (in_int) out << " MK" << marker++ << " 'MARKER' 'INTEND'\n";
  out << "RHS\n";
  for (int i = 0; i < lp.num_rows(); ++i) {
    const auto& r = lp.row(i);
    double rhs;
    switch (row_type[static_cast<std::size_t>(i)]) {
      case 'L': rhs = r.ub; break;
      case 'G': rhs = r.lb; break;
      default: rhs = r.lb; break;
    }
    if (std::isfinite(rhs) && rhs != 0.0) out << " RHS1 " << row_name(i) << " " << rhs << "\n";
  }
  out << "RANGES\n";
  for (int i = 0; i < lp.num_rows(); ++i) {
    const auto& r = lp.row(i);
    if (row_type[static_cast<std::size_t>(i)] == 'L' && std::isfinite(r.lb) && r.lb != r.ub) {
      out << " RNG1 " << row_name(i) << " " << (r.ub - r.lb) << "\n";
    }
  }
  out << "BOUNDS\n";
  for (int j = 0; j < lp.num_cols(); ++j) {
    const auto& c = lp.col(j);
    if (model.is_integer(j) && c.lb == 0.0 && c.ub == 1.0) {
      out << " BV BND1 " << col_name(j) << "\n";
      continue;
    }
    if (c.lb == c.ub) {
      out << " FX BND1 " << col_name(j) << " " << c.lb << "\n";
      continue;
    }
    if (!std::isfinite(c.lb) && !std::isfinite(c.ub)) {
      out << " FR BND1 " << col_name(j) << "\n";
      continue;
    }
    if (!std::isfinite(c.lb)) out << " MI BND1 " << col_name(j) << "\n";
    if (c.lb != 0.0 && std::isfinite(c.lb)) {
      out << " LO BND1 " << col_name(j) << " " << c.lb << "\n";
    }
    if (std::isfinite(c.ub)) out << " UP BND1 " << col_name(j) << " " << c.ub << "\n";
  }
  out << "ENDATA\n";
}

std::string write_mps_string(const mip::MipModel& model, const std::string& name) {
  std::ostringstream out;
  out.precision(17);
  write_mps(model, out, name);
  return out.str();
}

}  // namespace gpumip::problems

#include "query/vquel.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <vector>

#include "query/queries.h"

namespace decibel {
namespace vquel {

namespace {

std::vector<std::string> Tokenize(const std::string& input) {
  std::vector<std::string> tokens;
  std::istringstream in(input);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

std::string Upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

bool ParseInt(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

Result<BranchId> ResolveBranch(Decibel* db, const std::string& name) {
  int64_t id;
  if (ParseInt(name, &id) && id >= 0 &&
      db->HasBranch(static_cast<BranchId>(id))) {
    return static_cast<BranchId>(id);
  }
  return db->FindBranchByName(name);
}

Result<CompareOp> ParseOp(const std::string& tok) {
  if (tok == "=" || tok == "==") return CompareOp::kEq;
  if (tok == "!=" || tok == "<>") return CompareOp::kNe;
  if (tok == "<") return CompareOp::kLt;
  if (tok == "<=") return CompareOp::kLe;
  if (tok == ">") return CompareOp::kGt;
  if (tok == ">=") return CompareOp::kGe;
  return Status::InvalidArgument("vquel: bad comparison operator '" + tok +
                                 "'");
}

/// Parses an optional "WHERE col op int" clause at position i, which must
/// end the statement.
Result<Predicate> ParseWhere(Decibel* db,
                             const std::vector<std::string>& tokens,
                             size_t i) {
  if (i >= tokens.size()) return Predicate();
  if (Upper(tokens[i]) != "WHERE") {
    return Status::InvalidArgument("vquel: expected WHERE clause");
  }
  if (i + 4 > tokens.size()) {
    return Status::InvalidArgument("vquel: incomplete WHERE clause");
  }
  if (i + 4 < tokens.size()) {
    return Status::InvalidArgument("vquel: trailing tokens after '" +
                                   tokens[i + 3] + "'");
  }
  DECIBEL_ASSIGN_OR_RETURN(CompareOp op, ParseOp(tokens[i + 2]));
  int64_t value;
  if (!ParseInt(tokens[i + 3], &value)) {
    return Status::InvalidArgument("vquel: bad literal '" + tokens[i + 3] +
                                   "'");
  }
  return Predicate::Compare(db->schema(), tokens[i + 1], op, value);
}

void FormatColumn(std::ostream& out, const RecordRef& rec, size_t c) {
  switch (rec.schema()->column(c).type) {
    case FieldType::kInt32:
      out << rec.GetInt32(c);
      break;
    case FieldType::kInt64:
      out << rec.GetInt64(c);
      break;
    case FieldType::kDouble:
      out << rec.GetDouble(c);
      break;
    case FieldType::kString:
      out << rec.GetString(c);
      break;
  }
}

std::string FormatRecord(const RecordRef& rec) {
  std::ostringstream out;
  const Schema& schema = *rec.schema();
  out << rec.pk();
  for (size_t c = 1; c < schema.num_columns(); ++c) {
    out << " | ";
    FormatColumn(out, rec, c);
  }
  return out.str();
}

/// Formats only the projected columns, in the SELECT list's order.
std::string FormatProjected(const RecordRef& rec,
                            const std::vector<size_t>& projection) {
  if (projection.empty()) return FormatRecord(rec);
  std::ostringstream out;
  for (size_t i = 0; i < projection.size(); ++i) {
    if (i > 0) out << " | ";
    FormatColumn(out, rec, projection[i]);
  }
  return out.str();
}

Value TypedCell(const RecordRef& rec, size_t c) {
  Value v;
  switch (rec.schema()->column(c).type) {
    case FieldType::kInt32:
      v.i = rec.GetInt32(c);
      break;
    case FieldType::kInt64:
      v.i = rec.GetInt64(c);
      break;
    case FieldType::kDouble:
      v.d = rec.GetDouble(c);
      break;
    case FieldType::kString:
      v.s = std::string(rec.GetString(c));
      break;
  }
  return v;
}

/// Fills \p result->columns for \p projection (all schema columns when it
/// is empty) and returns the column indices each typed row extracts.
std::vector<size_t> SetResultColumns(const Schema& schema,
                                     const std::vector<size_t>& projection,
                                     ExecResult* result) {
  std::vector<size_t> indices = projection;
  if (indices.empty()) {
    indices.resize(schema.num_columns());
    for (size_t c = 0; c < indices.size(); ++c) indices[c] = c;
  }
  result->columns.reserve(indices.size());
  for (size_t c : indices) result->columns.push_back(schema.column(c));
  return indices;
}

Result<Record> ParseRecord(Decibel* db,
                           const std::vector<std::string>& tokens,
                           size_t first) {
  const Schema& schema = db->schema();
  if (first >= tokens.size()) {
    return Status::InvalidArgument("vquel: missing primary key");
  }
  if (tokens.size() > first + schema.num_columns()) {
    return Status::InvalidArgument(
        "vquel: too many values (schema has " +
        std::to_string(schema.num_columns()) + " columns)");
  }
  Record rec(&schema);
  int64_t pk;
  if (!ParseInt(tokens[first], &pk)) {
    return Status::InvalidArgument("vquel: bad primary key '" +
                                   tokens[first] + "'");
  }
  rec.SetPk(pk);
  for (size_t c = 1; c < schema.num_columns(); ++c) {
    const size_t ti = first + c;
    if (ti >= tokens.size()) break;  // unspecified columns stay zero
    switch (schema.column(c).type) {
      case FieldType::kInt32: {
        int64_t v;
        if (!ParseInt(tokens[ti], &v)) {
          return Status::InvalidArgument("vquel: bad value '" + tokens[ti] +
                                         "'");
        }
        rec.SetInt32(c, static_cast<int32_t>(v));
        break;
      }
      case FieldType::kInt64: {
        int64_t v;
        if (!ParseInt(tokens[ti], &v)) {
          return Status::InvalidArgument("vquel: bad value '" + tokens[ti] +
                                         "'");
        }
        rec.SetInt64(c, v);
        break;
      }
      case FieldType::kDouble: {
        char* end = nullptr;
        errno = 0;
        const double v = strtod(tokens[ti].c_str(), &end);
        if (errno != 0 || end != tokens[ti].c_str() + tokens[ti].size()) {
          return Status::InvalidArgument("vquel: bad value '" + tokens[ti] +
                                         "'");
        }
        rec.SetDouble(c, v);
        break;
      }
      case FieldType::kString:
        rec.SetString(c, tokens[ti]);
        break;
    }
  }
  return rec;
}

}  // namespace

Result<ExecResult> Execute(Decibel* db, const std::string& statement) {
  Interpreter one_shot(db);
  return one_shot.Execute(statement);
}

Result<ExecResult> Interpreter::Execute(const std::string& statement) {
  Decibel* db = db_;
  const std::vector<std::string> tokens = Tokenize(statement);
  if (tokens.empty()) {
    return Status::InvalidArgument("vquel: empty statement");
  }
  const std::string verb = Upper(tokens[0]);
  ExecResult result;
  std::ostringstream out;

  if (verb == "SELECT") {
    // SELECT <col[,col...]|*> FROM <branch|COMMIT id> [WHERE col op int]
    // [LIMIT n] — the whole statement maps onto one ScanSpec, so the
    // column list, the filter and the limit all push into the engine.
    size_t i = 1;
    std::vector<std::string> names;
    bool star = false;
    for (; i < tokens.size() && Upper(tokens[i]) != "FROM"; ++i) {
      const std::string& tok = tokens[i];
      size_t start = 0;
      while (start <= tok.size()) {
        const size_t comma = tok.find(',', start);
        const std::string piece =
            tok.substr(start, comma == std::string::npos ? std::string::npos
                                                         : comma - start);
        if (piece == "*") {
          star = true;
        } else if (!piece.empty()) {
          names.push_back(piece);
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    }
    if (i >= tokens.size() || (names.empty() && !star)) {
      return Status::InvalidArgument(
          "vquel: SELECT <cols|*> FROM <branch|COMMIT id>");
    }
    ++i;  // past FROM
    if (i >= tokens.size()) {
      return Status::InvalidArgument("vquel: SELECT needs a source");
    }
    ScanSpec spec;
    if (Upper(tokens[i]) == "COMMIT") {
      int64_t commit;
      if (i + 1 >= tokens.size() || !ParseInt(tokens[i + 1], &commit)) {
        return Status::InvalidArgument("vquel: bad commit id");
      }
      spec = ScanSpec::Commit(static_cast<CommitId>(commit));
      i += 2;
    } else {
      DECIBEL_ASSIGN_OR_RETURN(BranchId branch, ResolveBranch(db, tokens[i]));
      spec = ScanSpec::Branch(branch);
      ++i;
    }
    if (i < tokens.size() && Upper(tokens[i]) == "WHERE") {
      if (i + 4 > tokens.size()) {
        return Status::InvalidArgument("vquel: incomplete WHERE clause");
      }
      DECIBEL_ASSIGN_OR_RETURN(CompareOp op, ParseOp(tokens[i + 2]));
      int64_t value;
      if (!ParseInt(tokens[i + 3], &value)) {
        return Status::InvalidArgument("vquel: bad literal '" +
                                       tokens[i + 3] + "'");
      }
      DECIBEL_ASSIGN_OR_RETURN(
          Predicate pred,
          Predicate::Compare(db->schema(), tokens[i + 1], op, value));
      spec.Where(std::move(pred));
      i += 4;
    }
    if (i < tokens.size() && Upper(tokens[i]) == "LIMIT") {
      int64_t n;
      // ScanSpec uses limit 0 as the "unlimited" sentinel, so a literal
      // LIMIT 0 would silently mean the opposite; reject it.
      if (i + 1 >= tokens.size() || !ParseInt(tokens[i + 1], &n) || n <= 0) {
        return Status::InvalidArgument("vquel: LIMIT must be positive");
      }
      spec.WithLimit(static_cast<uint64_t>(n));
      i += 2;
    }
    if (i < tokens.size()) {
      return Status::InvalidArgument("vquel: trailing tokens after '" +
                                     tokens[i - 1] + "'");
    }
    std::vector<size_t> projection;
    if (!star) {
      DECIBEL_ASSIGN_OR_RETURN(projection,
                               ResolveProjection(db->schema(), names));
      spec.Project(projection);
    }
    const std::vector<size_t> cells =
        SetResultColumns(db->schema(), projection, &result);
    DECIBEL_ASSIGN_OR_RETURN(auto cursor, db->NewScan(std::move(spec)));
    ScanRow row;
    while (cursor->Next(&row)) {
      out << FormatProjected(row.record, projection) << "\n";
      std::vector<Value> typed;
      typed.reserve(cells.size());
      for (size_t c : cells) typed.push_back(TypedCell(row.record, c));
      result.typed_rows.push_back(std::move(typed));
      ++result.rows;
    }
    DECIBEL_RETURN_NOT_OK(cursor->status());
    out << "(" << result.rows << " rows)";
  } else if (verb == "SCAN") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("vquel: SCAN needs a branch");
    }
    Result<query::QueryStats> stats = Status::Unknown("unreached");
    const std::vector<size_t> cells =
        SetResultColumns(db->schema(), {}, &result);
    auto emit = [&](const RecordRef& rec) {
      out << FormatRecord(rec) << "\n";
      std::vector<Value> typed;
      typed.reserve(cells.size());
      for (size_t c : cells) typed.push_back(TypedCell(rec, c));
      result.typed_rows.push_back(std::move(typed));
      ++result.rows;
    };
    if (Upper(tokens[1]) == "COMMIT") {
      if (tokens.size() < 3) {
        return Status::InvalidArgument("vquel: SCAN COMMIT needs an id");
      }
      int64_t commit;
      if (!ParseInt(tokens[2], &commit)) {
        return Status::InvalidArgument("vquel: bad commit id");
      }
      DECIBEL_ASSIGN_OR_RETURN(Predicate pred, ParseWhere(db, tokens, 3));
      stats = query::ScanVersionAt(db, static_cast<CommitId>(commit), pred,
                                   emit);
    } else {
      DECIBEL_ASSIGN_OR_RETURN(BranchId branch,
                               ResolveBranch(db, tokens[1]));
      DECIBEL_ASSIGN_OR_RETURN(Predicate pred, ParseWhere(db, tokens, 2));
      stats = query::ScanVersion(db, branch, pred, emit);
    }
    DECIBEL_RETURN_NOT_OK(stats.status());
    out << "(" << result.rows << " rows)";
  } else if (verb == "DIFF" && tokens.size() >= 2 &&
             Upper(tokens[1]) == "COMMIT") {
    // Structured three-way diff between two commits: one line per key
    // whose state differs, classified against the commits' common
    // ancestor.
    if (tokens.size() < 4) {
      return Status::InvalidArgument("vquel: DIFF COMMIT <a> <b>");
    }
    int64_t a = 0, b = 0;
    if (!ParseInt(tokens[2], &a) || !ParseInt(tokens[3], &b)) {
      return Status::InvalidArgument("vquel: bad commit id");
    }
    DECIBEL_ASSIGN_OR_RETURN(
        auto cursor,
        db->DiffCommits(static_cast<CommitId>(a), static_cast<CommitId>(b)));
    const MergeRow* row;
    while ((row = cursor->Next()) != nullptr) {
      const char* kind = row->change == MergeChangeKind::kAdd      ? "+"
                         : row->change == MergeChangeKind::kDelete ? "-"
                                                                   : "~";
      out << kind << " " << row->pk;
      if (row->conflict) out << "  [both sides changed]";
      out << "\n";
      ++result.rows;
    }
    DECIBEL_RETURN_NOT_OK(cursor->status());
    out << "(" << result.rows << " differing keys)";
  } else if (verb == "DIFF") {
    if (tokens.size() < 3) {
      return Status::InvalidArgument("vquel: DIFF needs two branches");
    }
    DECIBEL_ASSIGN_OR_RETURN(BranchId a, ResolveBranch(db, tokens[1]));
    DECIBEL_ASSIGN_OR_RETURN(BranchId b, ResolveBranch(db, tokens[2]));
    DECIBEL_ASSIGN_OR_RETURN(query::QueryStats stats,
                             query::PositiveDiff(db, a, b,
                                                 [&](const RecordRef& rec) {
                                                   out << FormatRecord(rec)
                                                       << "\n";
                                                   ++result.rows;
                                                 }));
    (void)stats;
    out << "(" << result.rows << " rows in " << tokens[1] << " not in "
        << tokens[2] << ")";
  } else if (verb == "JOIN") {
    if (tokens.size() < 3) {
      return Status::InvalidArgument("vquel: JOIN needs two branches");
    }
    DECIBEL_ASSIGN_OR_RETURN(BranchId a, ResolveBranch(db, tokens[1]));
    DECIBEL_ASSIGN_OR_RETURN(BranchId b, ResolveBranch(db, tokens[2]));
    DECIBEL_ASSIGN_OR_RETURN(Predicate pred, ParseWhere(db, tokens, 3));
    DECIBEL_ASSIGN_OR_RETURN(
        query::QueryStats stats,
        query::JoinVersions(db, a, b, pred,
                            [&](const RecordRef& left,
                                const RecordRef& right) {
                              out << FormatRecord(left) << "  <->  "
                                  << FormatRecord(right) << "\n";
                              ++result.rows;
                            }));
    (void)stats;
    out << "(" << result.rows << " joined rows)";
  } else if (verb == "HEADS") {
    DECIBEL_ASSIGN_OR_RETURN(Predicate pred, ParseWhere(db, tokens, 1));
    DECIBEL_ASSIGN_OR_RETURN(
        query::QueryStats stats,
        query::ScanHeads(db, pred,
                         [&](const RecordRef& rec, Membership branches) {
                           out << FormatRecord(rec) << "  [in";
                           branches.ForEach(
                               [&](uint32_t b) { out << " " << b; });
                           out << "]\n";
                           ++result.rows;
                         }));
    (void)stats;
    out << "(" << result.rows << " rows)";
  } else if (verb == "INSERT" || verb == "UPDATE") {
    if (tokens.size() < 3) {
      return Status::InvalidArgument("vquel: " + verb +
                                     " needs branch and values");
    }
    DECIBEL_ASSIGN_OR_RETURN(BranchId branch, ResolveBranch(db, tokens[1]));
    DECIBEL_ASSIGN_OR_RETURN(Record rec, ParseRecord(db, tokens, 2));
    if (txn_.has_value()) {
      if (branch != txn_->branch()) {
        return Status::InvalidArgument(
            "vquel: open transaction is bound to branch " +
            std::to_string(txn_->branch()) +
            "; COMMIT TX or ABORT before writing elsewhere");
      }
      DECIBEL_RETURN_NOT_OK(verb == "INSERT" ? txn_->Insert(rec)
                                             : txn_->Update(rec));
      out << "staged (" << txn_->staged() << " ops)";
    } else {
      DECIBEL_RETURN_NOT_OK(verb == "INSERT" ? db->InsertInto(branch, rec)
                                             : db->UpdateIn(branch, rec));
      out << "ok";
    }
    result.rows = 1;
  } else if (verb == "DELETE") {
    if (tokens.size() < 3) {
      return Status::InvalidArgument("vquel: DELETE needs branch and pk");
    }
    DECIBEL_ASSIGN_OR_RETURN(BranchId branch, ResolveBranch(db, tokens[1]));
    int64_t pk;
    if (!ParseInt(tokens[2], &pk)) {
      return Status::InvalidArgument("vquel: bad primary key");
    }
    if (txn_.has_value()) {
      if (branch != txn_->branch()) {
        return Status::InvalidArgument(
            "vquel: open transaction is bound to branch " +
            std::to_string(txn_->branch()) +
            "; COMMIT TX or ABORT before writing elsewhere");
      }
      DECIBEL_RETURN_NOT_OK(txn_->Delete(pk));
      out << "staged (" << txn_->staged() << " ops)";
    } else {
      DECIBEL_RETURN_NOT_OK(db->DeleteFrom(branch, pk));
      out << "ok";
    }
    result.rows = 1;
  } else if (verb == "BEGIN") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("vquel: BEGIN needs a branch");
    }
    if (txn_.has_value()) {
      return Status::InvalidArgument(
          "vquel: a transaction is already open on branch " +
          std::to_string(txn_->branch()) + "; COMMIT TX or ABORT first");
    }
    DECIBEL_ASSIGN_OR_RETURN(BranchId branch, ResolveBranch(db, tokens[1]));
    DECIBEL_ASSIGN_OR_RETURN(Transaction txn, db->Begin(branch));
    txn_.emplace(std::move(txn));
    out << "begin transaction " << txn_->id() << " on branch " << branch;
  } else if (verb == "ABORT") {
    if (!txn_.has_value()) {
      return Status::InvalidArgument("vquel: no open transaction");
    }
    const size_t staged = txn_->staged();
    DECIBEL_RETURN_NOT_OK(txn_->Abort());
    txn_.reset();
    out << "transaction aborted, " << staged << " staged ops discarded";
  } else if (verb == "COMMIT" && tokens.size() >= 2 &&
             Upper(tokens[1]) == "TX") {
    if (!txn_.has_value()) {
      return Status::InvalidArgument("vquel: no open transaction");
    }
    const size_t staged = txn_->staged();
    const Status committed = txn_->Commit();
    if (committed.IsAborted()) {
      // Retryable lock timeout: the transaction stays open and staged so
      // the user can COMMIT TX again (or ABORT).
      return committed;
    }
    // Success or a non-retryable failure: either way the transaction is
    // over, so drop it rather than trapping the user in a dead one.
    txn_.reset();
    DECIBEL_RETURN_NOT_OK(committed);
    out << "transaction committed, " << staged << " ops applied";
    result.rows = staged;
  } else if (verb == "BRANCH") {
    if (tokens.size() < 4 || Upper(tokens[2]) != "FROM") {
      return Status::InvalidArgument("vquel: BRANCH <name> FROM <branch>");
    }
    DECIBEL_ASSIGN_OR_RETURN(BranchId parent, ResolveBranch(db, tokens[3]));
    Session s = db->NewSession();
    DECIBEL_RETURN_NOT_OK(db->Use(&s, parent));
    DECIBEL_ASSIGN_OR_RETURN(BranchId child, db->Branch(tokens[1], &s));
    out << "branch " << tokens[1] << " = " << child;
  } else if (verb == "COMMIT") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("vquel: COMMIT needs a branch");
    }
    DECIBEL_ASSIGN_OR_RETURN(BranchId branch, ResolveBranch(db, tokens[1]));
    DECIBEL_ASSIGN_OR_RETURN(CommitId commit, db->CommitBranch(branch));
    out << "commit " << commit;
  } else if (verb == "MERGE") {
    if (tokens.size() < 3) {
      return Status::InvalidArgument("vquel: MERGE <into> <from>");
    }
    DECIBEL_ASSIGN_OR_RETURN(BranchId into, ResolveBranch(db, tokens[1]));
    DECIBEL_ASSIGN_OR_RETURN(BranchId from, ResolveBranch(db, tokens[2]));
    bool three_way = true;
    bool left = true;
    bool preview = false;
    MergeResolution resolution = MergeResolution::kPolicy;
    for (size_t i = 3; i < tokens.size(); ++i) {
      const std::string flag = Upper(tokens[i]);
      if (flag == "TWOWAY") {
        three_way = false;
      } else if (flag == "THREEWAY") {
        three_way = true;
      } else if (flag == "LEFT") {
        left = true;
      } else if (flag == "RIGHT") {
        left = false;
      } else if (flag == "OURS") {
        resolution = MergeResolution::kOurs;
      } else if (flag == "THEIRS") {
        resolution = MergeResolution::kTheirs;
      } else if (flag == "LATEST") {
        resolution = MergeResolution::kLatestWins;
      } else if (flag == "PREVIEW") {
        preview = true;
      } else {
        // A typo'd flag used to be silently ignored — a MERGE that the
        // user believed was TWOWAY/THEIRS could run with the defaults.
        return Status::InvalidArgument("vquel: unknown MERGE flag '" +
                                       tokens[i] + "'");
      }
    }
    const MergePolicy policy =
        three_way ? (left ? MergePolicy::kThreeWayLeft
                          : MergePolicy::kThreeWayRight)
                  : (left ? MergePolicy::kTwoWayLeft
                          : MergePolicy::kTwoWayRight);
    const MergeSpec spec =
        MergeSpec::Branches(into, from).WithPolicy(policy).Resolve(resolution);
    if (preview) {
      // Dry run: stream the per-key outcomes, commit nothing.
      DECIBEL_ASSIGN_OR_RETURN(auto cursor, db->PreviewMerge(spec));
      const MergeRow* row;
      while ((row = cursor->Next()) != nullptr) {
        const char* kind = row->change == MergeChangeKind::kAdd      ? "+"
                           : row->change == MergeChangeKind::kUpdate ? "~"
                           : row->change == MergeChangeKind::kDelete ? "-"
                                                                     : "=";
        out << kind << " " << row->pk;
        if (row->conflict) {
          out << "  [conflict" << (row->field_merge ? ", field-merged" : "")
              << "]";
        }
        out << "\n";
        ++result.rows;
      }
      DECIBEL_RETURN_NOT_OK(cursor->status());
      out << "(preview: " << cursor->stats().merged_records
          << " records would merge, " << cursor->stats().conflicts
          << " conflicts)";
    } else {
      DECIBEL_ASSIGN_OR_RETURN(MergeInfo info, db->Merge(spec));
      out << "merge commit " << info.commit << ", "
          << info.result.merged_records << " records merged, "
          << info.result.conflicts << " conflicts";
    }
  } else if (verb == "RETIRE") {
    if (tokens.size() != 2) {
      return Status::InvalidArgument("vquel: RETIRE <branch>");
    }
    DECIBEL_ASSIGN_OR_RETURN(BranchId branch, ResolveBranch(db, tokens[1]));
    DECIBEL_RETURN_NOT_OK(db->RetireBranch(branch));
    out << "branch " << tokens[1] << " retired";
  } else if (verb == "INFO") {
    if (tokens.size() != 1) {
      return Status::InvalidArgument("vquel: INFO takes no arguments");
    }
    const DecibelStats s = db->Stats();
    out << "branches: " << s.branches << "\n"
        << "active_branches: " << s.active_branches << "\n"
        << "commits: " << s.commits << "\n"
        << "engine.num_records: " << s.engine.num_records << "\n"
        << "engine.num_segments: " << s.engine.num_segments << "\n"
        << "engine.data_bytes: " << s.engine.data_bytes << "\n"
        << "engine.index_memory_bytes: " << s.engine.index_memory_bytes
        << "\n"
        << "engine.commit_store_bytes: " << s.engine.commit_store_bytes
        << "\n"
        << "engine.rows_scanned: " << s.engine.rows_scanned << "\n"
        << "engine.bytes_scanned: " << s.engine.bytes_scanned << "\n"
        << "pool.hits: " << s.engine.pool_hits << "\n"
        << "pool.misses: " << s.engine.pool_misses << "\n"
        << "pool.resident_bytes: " << s.engine.pool_resident_bytes << "\n"
        << "durable: " << (s.durable ? "true" : "false") << "\n"
        << "wal.bytes_appended: " << s.wal_bytes_appended << "\n"
        << "wal.segment_seq: " << s.wal_segment_seq << "\n"
        << "wal.last_lsn: " << s.wal_last_lsn << "\n"
        << "wal.syncs: " << s.wal_syncs << "\n"
        << "wal.syncs_in_flight_max: " << s.wal_syncs_in_flight_max << "\n"
        << "checkpoint.generation: " << s.checkpoint_generation << "\n"
        << "subscriptions: " << s.subscriptions << "\n"
        << "events_published: " << s.events_published;
    result.rows = 22;
  } else if (verb == "SUBSCRIBE" || verb == "UNSUBSCRIBE") {
    // Subscriptions need a connection to push notifications down; the
    // net server intercepts these verbs per session before the
    // interpreter ever sees them.
    return Status::InvalidArgument("vquel: " + verb +
                                   " requires a server connection "
                                   "(decibel_server)");
  } else if (verb == "BRANCHES") {
    for (const BranchInfo& b : db->ListBranches()) {
      out << b.id << "  " << b.name << "  head=" << b.head
          << (b.active ? "" : "  (retired)") << "\n";
      ++result.rows;
    }
    out << "(" << result.rows << " branches)";
  } else if (verb == "LOG") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("vquel: LOG needs a branch");
    }
    DECIBEL_ASSIGN_OR_RETURN(BranchId branch, ResolveBranch(db, tokens[1]));
    // Walk first-parent ancestry from the head.
    CommitId cur = db->Head(branch);
    while (cur != kInvalidCommit) {
      auto info = db->GetCommit(cur);
      if (!info.ok()) break;
      out << "commit " << info->id << " (branch " << info->branch << ")";
      if (info->parents.size() > 1) out << " [merge]";
      out << "\n";
      ++result.rows;
      cur = info->parents.empty() ? kInvalidCommit : info->parents[0];
    }
    out << "(" << result.rows << " commits)";
  } else {
    return Status::InvalidArgument("vquel: unknown verb '" + tokens[0] +
                                   "'");
  }

  result.output = out.str();
  return result;
}

}  // namespace vquel
}  // namespace decibel

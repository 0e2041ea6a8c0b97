#include <sstream>

#include "common/macros.h"
#include "common/string_util.h"
#include "script/ast.h"

namespace lafp::script {

namespace {

/// Nesting budget: unary operators, parentheses, list/dict/call
/// arguments, subscripts, operator and postfix chains and blocks each
/// count one level. The parser and every later tree walk (analysis,
/// lowering, codegen, the interpreter) recurse once per level, so the cap
/// bounds their stack depth for any input.
constexpr int kMaxNestingDepth = 200;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens, int depth = 0)
      : tokens_(std::move(tokens)), depth_(depth) {}

  Result<Module> ParseModule() {
    Module module;
    while (!Check(TokenKind::kEndOfFile)) {
      LAFP_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStatement());
      if (stmt != nullptr) module.stmts.push_back(std::move(stmt));
    }
    return module;
  }

  Result<ExprPtr> ParseSingleExpression() {
    LAFP_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    return e;
  }

 private:
  const Token& Peek(int ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool Match(TokenKind kind) {
    if (!Check(kind)) return false;
    ++pos_;
    return true;
  }
  const Token& Advance() { return tokens_[pos_++]; }
  Status Expect(TokenKind kind) {
    if (!Check(kind)) {
      return Err(std::string("expected '") + TokenKindName(kind) +
                 "', got '" + TokenKindName(Peek().kind) + "'");
    }
    ++pos_;
    return Status::OK();
  }
  Status Err(const std::string& msg) const {
    return Status::ParseError("line " + std::to_string(Peek().line) + ": " +
                              msg);
  }

  /// Scoped nesting levels: Deepen() adds one (false past the cap) and
  /// the destructor gives back every level taken in the scope.
  class Depth {
   public:
    explicit Depth(Parser* p) : p_(p), saved_(p->depth_) {}
    ~Depth() { p_->depth_ = saved_; }
    bool Deepen() { return ++p_->depth_ <= kMaxNestingDepth; }
    Depth(const Depth&) = delete;
    Depth& operator=(const Depth&) = delete;

   private:
    Parser* p_;
    int saved_;
  };
  Status TooDeep() const {
    return Status::Invalid("line " + std::to_string(Peek().line) +
                           ": nesting deeper than " +
                           std::to_string(kMaxNestingDepth) + " levels");
  }

  ExprPtr NewExpr(ExprKind kind) {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->line = Peek().line;
    return e;
  }

  Result<StmtPtr> ParseStatement() {
    while (Match(TokenKind::kNewline)) {
    }
    if (Check(TokenKind::kEndOfFile)) return StmtPtr();
    if (Check(TokenKind::kImport) || Check(TokenKind::kFrom)) {
      return ParseImport();
    }
    if (Check(TokenKind::kIf)) return ParseIf();
    if (Check(TokenKind::kWhile)) return ParseWhile();
    if (Check(TokenKind::kFor)) return ParseFor();
    if (Match(TokenKind::kPass)) {
      LAFP_RETURN_NOT_OK(Expect(TokenKind::kNewline));
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kPass;
      return stmt;
    }
    // assignment or expression statement
    LAFP_ASSIGN_OR_RETURN(ExprPtr first, ParseExpr());
    auto stmt = std::make_unique<Stmt>();
    stmt->line = first->line;
    if (Match(TokenKind::kAssign)) {
      if (first->kind != ExprKind::kName &&
          first->kind != ExprKind::kSubscript &&
          first->kind != ExprKind::kAttribute) {
        return Err("invalid assignment target");
      }
      LAFP_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
      stmt->kind = StmtKind::kAssign;
      stmt->target = std::move(first);
      stmt->value = std::move(value);
    } else {
      stmt->kind = StmtKind::kExpr;
      stmt->value = std::move(first);
    }
    LAFP_RETURN_NOT_OK(Expect(TokenKind::kNewline));
    return stmt;
  }

  Result<StmtPtr> ParseImport() {
    auto stmt = std::make_unique<Stmt>();
    stmt->line = Peek().line;
    if (Match(TokenKind::kFrom)) {
      stmt->kind = StmtKind::kFromImport;
      LAFP_ASSIGN_OR_RETURN(stmt->module, ParseDottedName());
      if (!Check(TokenKind::kImport)) {
        return Err("expected 'import' in from-import");
      }
      Advance();
      if (!Check(TokenKind::kName)) return Err("expected imported name");
      stmt->imported_name = Advance().text;
    } else {
      LAFP_RETURN_NOT_OK(Expect(TokenKind::kImport));
      stmt->kind = StmtKind::kImport;
      LAFP_ASSIGN_OR_RETURN(stmt->module, ParseDottedName());
      if (Match(TokenKind::kAs)) {
        if (!Check(TokenKind::kName)) return Err("expected alias name");
        stmt->alias = Advance().text;
      }
    }
    LAFP_RETURN_NOT_OK(Expect(TokenKind::kNewline));
    return stmt;
  }

  Result<std::string> ParseDottedName() {
    if (!Check(TokenKind::kName)) return Err("expected module name");
    std::string name = Advance().text;
    while (Match(TokenKind::kDot)) {
      if (!Check(TokenKind::kName)) return Err("expected name after '.'");
      name += "." + Advance().text;
    }
    return name;
  }

  Result<StmtPtr> ParseIf() {
    Depth depth(this);  // elif chains recurse here
    if (!depth.Deepen()) return TooDeep();
    LAFP_RETURN_NOT_OK(Expect(TokenKind::kIf));
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kIf;
    stmt->line = Peek().line;
    LAFP_ASSIGN_OR_RETURN(stmt->value, ParseExpr());
    LAFP_RETURN_NOT_OK(Expect(TokenKind::kColon));
    LAFP_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
    if (Check(TokenKind::kElif)) {
      // elif sugar: else { if ... }
      tokens_[pos_].kind = TokenKind::kIf;
      LAFP_ASSIGN_OR_RETURN(StmtPtr nested, ParseIf());
      stmt->else_body.push_back(std::move(nested));
    } else if (Match(TokenKind::kElse)) {
      LAFP_RETURN_NOT_OK(Expect(TokenKind::kColon));
      LAFP_ASSIGN_OR_RETURN(stmt->else_body, ParseBlock());
    }
    return stmt;
  }

  Result<StmtPtr> ParseWhile() {
    LAFP_RETURN_NOT_OK(Expect(TokenKind::kWhile));
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kWhile;
    stmt->line = Peek().line;
    LAFP_ASSIGN_OR_RETURN(stmt->value, ParseExpr());
    LAFP_RETURN_NOT_OK(Expect(TokenKind::kColon));
    LAFP_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
    return stmt;
  }

  Result<StmtPtr> ParseFor() {
    LAFP_RETURN_NOT_OK(Expect(TokenKind::kFor));
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kFor;
    stmt->line = Peek().line;
    if (!Check(TokenKind::kName)) return Err("expected loop variable");
    stmt->loop_var = Advance().text;
    LAFP_RETURN_NOT_OK(Expect(TokenKind::kIn));
    LAFP_ASSIGN_OR_RETURN(stmt->value, ParseExpr());
    LAFP_RETURN_NOT_OK(Expect(TokenKind::kColon));
    LAFP_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
    return stmt;
  }

  Result<std::vector<StmtPtr>> ParseBlock() {
    Depth depth(this);
    if (!depth.Deepen()) return TooDeep();
    LAFP_RETURN_NOT_OK(Expect(TokenKind::kNewline));
    LAFP_RETURN_NOT_OK(Expect(TokenKind::kIndent));
    std::vector<StmtPtr> body;
    while (!Check(TokenKind::kDedent) && !Check(TokenKind::kEndOfFile)) {
      LAFP_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStatement());
      if (stmt != nullptr) body.push_back(std::move(stmt));
    }
    LAFP_RETURN_NOT_OK(Expect(TokenKind::kDedent));
    if (body.empty()) return Err("empty block");
    return body;
  }

  // Expression precedence: or < and < not < comparison < |& < +- < */% <
  // unary < postfix.
  Result<ExprPtr> ParseExpr() {
    Depth depth(this);
    if (!depth.Deepen()) return TooDeep();
    return ParseOr();
  }

  Result<ExprPtr> ParseOr() {
    LAFP_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    Depth depth(this);  // each operator deepens the left spine
    while (Check(TokenKind::kOr)) {
      if (!depth.Deepen()) return TooDeep();
      Advance();
      LAFP_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = MakeBin("or", std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    LAFP_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    Depth depth(this);  // each operator deepens the left spine
    while (Check(TokenKind::kAnd)) {
      if (!depth.Deepen()) return TooDeep();
      Advance();
      LAFP_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = MakeBin("and", std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (Match(TokenKind::kNot)) {
      Depth depth(this);
      if (!depth.Deepen()) return TooDeep();
      LAFP_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      auto e = NewExpr(ExprKind::kUnaryOp);
      e->name = "not";
      e->lhs = std::move(operand);
      return e;
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    LAFP_ASSIGN_OR_RETURN(ExprPtr left, ParseBitwise());
    static const std::pair<TokenKind, const char*> kOps[] = {
        {TokenKind::kEq, "=="}, {TokenKind::kNe, "!="},
        {TokenKind::kLt, "<"},  {TokenKind::kLe, "<="},
        {TokenKind::kGt, ">"},  {TokenKind::kGe, ">="}};
    for (const auto& [kind, text] : kOps) {
      if (Check(kind)) {
        Advance();
        LAFP_ASSIGN_OR_RETURN(ExprPtr right, ParseBitwise());
        auto e = NewExpr(ExprKind::kCompare);
        e->name = text;
        e->lhs = std::move(left);
        e->rhs = std::move(right);
        return ExprPtr(std::move(e));
      }
    }
    return left;
  }

  Result<ExprPtr> ParseBitwise() {
    LAFP_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    Depth depth(this);  // each operator deepens the left spine
    while (Check(TokenKind::kAmp) || Check(TokenKind::kPipe)) {
      if (!depth.Deepen()) return TooDeep();
      std::string op = Advance().text;
      LAFP_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
      left = MakeBin(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAdditive() {
    LAFP_ASSIGN_OR_RETURN(ExprPtr left, ParseTerm());
    Depth depth(this);  // each operator deepens the left spine
    while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
      if (!depth.Deepen()) return TooDeep();
      std::string op = Advance().text;
      LAFP_ASSIGN_OR_RETURN(ExprPtr right, ParseTerm());
      left = MakeBin(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseTerm() {
    LAFP_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    Depth depth(this);  // each operator deepens the left spine
    while (Check(TokenKind::kStar) || Check(TokenKind::kSlash) ||
           Check(TokenKind::kPercent)) {
      if (!depth.Deepen()) return TooDeep();
      std::string op = Advance().text;
      LAFP_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      left = MakeBin(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseUnary() {
    if (Check(TokenKind::kMinus) || Check(TokenKind::kTilde)) {
      Depth depth(this);
      if (!depth.Deepen()) return TooDeep();
      std::string op = Advance().text;
      LAFP_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      // Constant-fold negative number literals.
      if (op == "-" && operand->kind == ExprKind::kIntLit) {
        operand->int_value = -operand->int_value;
        return operand;
      }
      if (op == "-" && operand->kind == ExprKind::kFloatLit) {
        operand->float_value = -operand->float_value;
        return operand;
      }
      auto e = NewExpr(ExprKind::kUnaryOp);
      e->name = op;
      e->lhs = std::move(operand);
      return ExprPtr(std::move(e));
    }
    return ParsePostfix();
  }

  Result<ExprPtr> ParsePostfix() {
    LAFP_ASSIGN_OR_RETURN(ExprPtr expr, ParseAtom());
    Depth depth(this);  // each postfix op wraps the expression once more
    while (true) {
      if (!depth.Deepen()) return TooDeep();
      if (Match(TokenKind::kDot)) {
        if (!Check(TokenKind::kName)) return Err("expected attribute name");
        auto e = NewExpr(ExprKind::kAttribute);
        e->name = Advance().text;
        e->lhs = std::move(expr);
        expr = std::move(e);
        continue;
      }
      if (Check(TokenKind::kLParen)) {
        Advance();
        auto e = NewExpr(ExprKind::kCall);
        e->lhs = std::move(expr);
        while (!Check(TokenKind::kRParen)) {
          // keyword argument?
          if (Check(TokenKind::kName) &&
              Peek(1).kind == TokenKind::kAssign) {
            Kwarg kw;
            kw.name = Advance().text;
            Advance();  // '='
            LAFP_ASSIGN_OR_RETURN(kw.value, ParseExpr());
            e->kwargs.push_back(std::move(kw));
          } else {
            LAFP_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
            e->elements.push_back(std::move(arg));
          }
          if (!Match(TokenKind::kComma)) break;
        }
        LAFP_RETURN_NOT_OK(Expect(TokenKind::kRParen));
        expr = std::move(e);
        continue;
      }
      if (Check(TokenKind::kLBracket)) {
        Advance();
        auto e = NewExpr(ExprKind::kSubscript);
        e->lhs = std::move(expr);
        LAFP_ASSIGN_OR_RETURN(e->rhs, ParseExpr());
        LAFP_RETURN_NOT_OK(Expect(TokenKind::kRBracket));
        expr = std::move(e);
        continue;
      }
      break;
    }
    return expr;
  }

  Result<ExprPtr> ParseAtom() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kName: {
        auto e = NewExpr(ExprKind::kName);
        e->name = Advance().text;
        return ExprPtr(std::move(e));
      }
      case TokenKind::kInt: {
        auto e = NewExpr(ExprKind::kIntLit);
        auto v = ParseInt64(Advance().text);
        if (!v.has_value()) return Err("bad integer literal");
        e->int_value = *v;
        return ExprPtr(std::move(e));
      }
      case TokenKind::kFloat: {
        auto e = NewExpr(ExprKind::kFloatLit);
        auto v = ParseDouble(Advance().text);
        if (!v.has_value()) return Err("bad float literal");
        e->float_value = *v;
        return ExprPtr(std::move(e));
      }
      case TokenKind::kString: {
        auto e = NewExpr(ExprKind::kStringLit);
        e->str_value = Advance().text;
        return ExprPtr(std::move(e));
      }
      case TokenKind::kTrue:
      case TokenKind::kFalse: {
        auto e = NewExpr(ExprKind::kBoolLit);
        e->bool_value = tok.kind == TokenKind::kTrue;
        Advance();
        return ExprPtr(std::move(e));
      }
      case TokenKind::kNone: {
        Advance();
        return ExprPtr(NewExpr(ExprKind::kNoneLit));
      }
      case TokenKind::kFStringStart: {
        auto e = NewExpr(ExprKind::kFString);
        const Token& f = Advance();
        for (size_t i = 0; i < f.fstring_parts.size(); ++i) {
          if (i % 2 == 0) {
            e->fstring_literals.push_back(f.fstring_parts[i]);
          } else {
            LAFP_ASSIGN_OR_RETURN(ExprPtr embedded,
                                  ParseEmbedded(f.fstring_parts[i]));
            e->elements.push_back(std::move(embedded));
          }
        }
        if (e->fstring_literals.size() != e->elements.size() + 1) {
          return Err("malformed f-string");
        }
        return ExprPtr(std::move(e));
      }
      case TokenKind::kLBracket: {
        Advance();
        auto e = NewExpr(ExprKind::kList);
        while (!Check(TokenKind::kRBracket)) {
          LAFP_ASSIGN_OR_RETURN(ExprPtr elem, ParseExpr());
          e->elements.push_back(std::move(elem));
          if (!Match(TokenKind::kComma)) break;
        }
        LAFP_RETURN_NOT_OK(Expect(TokenKind::kRBracket));
        return ExprPtr(std::move(e));
      }
      case TokenKind::kLBrace: {
        Advance();
        auto e = NewExpr(ExprKind::kDict);
        while (!Check(TokenKind::kRBrace)) {
          LAFP_ASSIGN_OR_RETURN(ExprPtr key, ParseExpr());
          LAFP_RETURN_NOT_OK(Expect(TokenKind::kColon));
          LAFP_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
          e->dict_keys.push_back(std::move(key));
          e->dict_values.push_back(std::move(value));
          if (!Match(TokenKind::kComma)) break;
        }
        LAFP_RETURN_NOT_OK(Expect(TokenKind::kRBrace));
        return ExprPtr(std::move(e));
      }
      case TokenKind::kLParen: {
        Advance();
        LAFP_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        LAFP_RETURN_NOT_OK(Expect(TokenKind::kRParen));
        return inner;
      }
      default:
        return Err(std::string("unexpected token '") +
                   TokenKindName(tok.kind) + "'");
    }
  }

  Result<ExprPtr> ParseEmbedded(const std::string& fragment) {
    LAFP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(fragment));
    Parser inner(std::move(tokens), depth_);
    return inner.ParseSingleExpression();
  }

  ExprPtr MakeBin(const std::string& op, ExprPtr left, ExprPtr right) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kBinOp;
    e->line = left->line;
    e->name = op;
    e->lhs = std::move(left);
    e->rhs = std::move(right);
    return e;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<Module> Parse(const std::string& source) {
  LAFP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(source));
  Parser parser(std::move(tokens));
  return parser.ParseModule();
}

Result<ExprPtr> ParseExpression(const std::string& source) {
  LAFP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(source));
  Parser parser(std::move(tokens));
  return parser.ParseSingleExpression();
}

}  // namespace lafp::script

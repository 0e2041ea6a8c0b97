#include <gtest/gtest.h>

#include "script/cfg.h"
#include "script/codegen.h"
#include "script/model.h"

namespace lafp::script {
namespace {

TEST(LexerTest, TokenizesBasicProgram) {
  auto tokens = Lex("df = pd.read_csv(\"data.csv\")\n");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  std::vector<TokenKind> kinds;
  for (const auto& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kName, TokenKind::kAssign, TokenKind::kName,
                TokenKind::kDot, TokenKind::kName, TokenKind::kLParen,
                TokenKind::kString, TokenKind::kRParen, TokenKind::kNewline,
                TokenKind::kEndOfFile}));
  EXPECT_EQ((*tokens)[6].text, "data.csv");
}

TEST(LexerTest, IndentationBlocks) {
  auto tokens = Lex("if x:\n    y = 1\nz = 2\n");
  ASSERT_TRUE(tokens.ok());
  int indents = 0, dedents = 0;
  for (const auto& t : *tokens) {
    indents += t.kind == TokenKind::kIndent;
    dedents += t.kind == TokenKind::kDedent;
  }
  EXPECT_EQ(indents, 1);
  EXPECT_EQ(dedents, 1);
}

TEST(LexerTest, CommentsAndBlankLinesSkipped) {
  auto tokens = Lex("# header\n\nx = 1  # trailing\n\n");
  ASSERT_TRUE(tokens.ok());
  size_t names = 0;
  for (const auto& t : *tokens) names += t.kind == TokenKind::kName;
  EXPECT_EQ(names, 1u);
}

TEST(LexerTest, OperatorsAndNumbers) {
  auto tokens = Lex("a = (1 + 2.5) * 3 <= x != y\n");
  ASSERT_TRUE(tokens.ok());
  bool saw_le = false, saw_ne = false, saw_float = false;
  for (const auto& t : *tokens) {
    saw_le |= t.kind == TokenKind::kLe;
    saw_ne |= t.kind == TokenKind::kNe;
    saw_float |= t.kind == TokenKind::kFloat;
  }
  EXPECT_TRUE(saw_le && saw_ne && saw_float);
}

TEST(LexerTest, FStringSplitsParts) {
  auto tokens = Lex("print(f\"avg is {x} units\")\n");
  ASSERT_TRUE(tokens.ok());
  const Token* fstr = nullptr;
  for (const auto& t : *tokens) {
    if (t.kind == TokenKind::kFStringStart) fstr = &t;
  }
  ASSERT_NE(fstr, nullptr);
  ASSERT_EQ(fstr->fstring_parts.size(), 3u);
  EXPECT_EQ(fstr->fstring_parts[0], "avg is ");
  EXPECT_EQ(fstr->fstring_parts[1], "x");
  EXPECT_EQ(fstr->fstring_parts[2], " units");
}

TEST(LexerTest, BracketContinuationJoinsLines) {
  auto tokens = Lex("x = foo(1,\n        2)\ny = 3\n");
  ASSERT_TRUE(tokens.ok());
  size_t newlines = 0;
  for (const auto& t : *tokens) newlines += t.kind == TokenKind::kNewline;
  EXPECT_EQ(newlines, 2u);  // one per logical line
}

TEST(LexerTest, RejectsBadIndentAndStrays) {
  EXPECT_FALSE(Lex("x = @\n").ok());
  EXPECT_FALSE(Lex("x = \"unterminated\n").ok());
}

TEST(ParserTest, AssignAndCalls) {
  auto module = Parse(
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"d.csv\")\n"
      "df[\"day\"] = df.pickup.dt.dayofweek\n"
      "x = df.groupby([\"day\"])[\"pax\"].sum()\n"
      "print(x)\n");
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  ASSERT_EQ(module->stmts.size(), 5u);
  EXPECT_EQ(module->stmts[0]->kind, StmtKind::kImport);
  EXPECT_EQ(module->stmts[0]->alias, "pd");
  EXPECT_EQ(module->stmts[1]->kind, StmtKind::kAssign);
  EXPECT_EQ(module->stmts[2]->target->kind, ExprKind::kSubscript);
  EXPECT_EQ(module->stmts[4]->kind, StmtKind::kExpr);
}

TEST(ParserTest, PrecedenceAndParens) {
  auto expr = ParseExpression("a + b * c");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->ToSource(), "(a + (b * c))");
  auto expr2 = ParseExpression("(a + b) * c");
  ASSERT_TRUE(expr2.ok());
  EXPECT_EQ((*expr2)->ToSource(), "((a + b) * c)");
  auto cmp = ParseExpression("df.fare > 0 ");
  ASSERT_TRUE(cmp.ok());
  EXPECT_EQ((*cmp)->kind, ExprKind::kCompare);
}

TEST(ParserTest, MaskConjunction) {
  auto expr = ParseExpression("(df.a > 0) & (df.b < 5)");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->kind, ExprKind::kBinOp);
  EXPECT_EQ((*expr)->name, "&");
}

TEST(ParserTest, KwargsAndDicts) {
  auto expr = ParseExpression(
      "df.merge(other, on=[\"k\"], how=\"left\")");
  ASSERT_TRUE(expr.ok());
  ASSERT_EQ((*expr)->kwargs.size(), 2u);
  EXPECT_EQ((*expr)->kwargs[0].name, "on");
  EXPECT_EQ((*expr)->kwargs[1].name, "how");
  auto dict = ParseExpression("{\"a\": \"b\", \"c\": \"d\"}");
  ASSERT_TRUE(dict.ok());
  EXPECT_EQ((*dict)->dict_keys.size(), 2u);
}

TEST(ParserTest, IfElifElseAndWhile) {
  auto module = Parse(
      "if x > 1:\n"
      "    y = 1\n"
      "elif x > 0:\n"
      "    y = 2\n"
      "else:\n"
      "    y = 3\n"
      "while y > 0:\n"
      "    y = y - 1\n");
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  ASSERT_EQ(module->stmts.size(), 2u);
  const Stmt& ifstmt = *module->stmts[0];
  EXPECT_EQ(ifstmt.kind, StmtKind::kIf);
  ASSERT_EQ(ifstmt.else_body.size(), 1u);
  EXPECT_EQ(ifstmt.else_body[0]->kind, StmtKind::kIf);  // elif sugar
  EXPECT_EQ(module->stmts[1]->kind, StmtKind::kWhile);
}

TEST(ParserTest, NegativeNumbersFold) {
  auto expr = ParseExpression("-5");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->kind, ExprKind::kIntLit);
  EXPECT_EQ((*expr)->int_value, -5);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("if x:\n").ok());                 // missing block
  EXPECT_FALSE(Parse("x = = 3\n").ok());               // bad expression
  EXPECT_FALSE(Parse("1 = x\n").ok());                 // bad target
}

TEST(LoweringTest, FlattensToTemps) {
  auto module = Parse("y = df[df.a > 0].head(5)\n");
  ASSERT_TRUE(module.ok());
  auto ir = LowerToIR(*module);
  ASSERT_TRUE(ir.ok()) << ir.status().ToString();
  // getattr, compare, getitem, head -> several temps; the final assign
  // targets y.
  EXPECT_GE(ir->stmts.size(), 4u);
  EXPECT_EQ(ir->stmts.back().kind, IRStmtKind::kAssign);
  EXPECT_EQ(ir->stmts.back().target, "y");
  bool has_temp = false;
  for (const auto& s : ir->stmts) {
    if (s.kind == IRStmtKind::kAssign && s.target[0] == '$') has_temp = true;
  }
  EXPECT_TRUE(has_temp);
}

TEST(LoweringTest, ControlFlowLabels) {
  auto module = Parse(
      "if a:\n    x = 1\nelse:\n    x = 2\n"
      "while b:\n    x = x - 1\n");
  ASSERT_TRUE(module.ok());
  auto ir = LowerToIR(*module);
  ASSERT_TRUE(ir.ok());
  int branches = 0, gotos = 0, labels = 0;
  for (const auto& s : ir->stmts) {
    branches += s.kind == IRStmtKind::kBranch;
    gotos += s.kind == IRStmtKind::kGoto;
    labels += s.kind == IRStmtKind::kLabel;
  }
  EXPECT_EQ(branches, 2);
  EXPECT_GE(gotos, 2);  // if-else end jump + loop back edge
  EXPECT_GE(labels, 5);
}

TEST(CfgTest, StraightLineIsOneBlock) {
  auto module = Parse("a = 1\nb = 2\nc = a\n");
  auto ir = LowerToIR(*module);
  auto cfg = BuildCfg(*ir);
  ASSERT_TRUE(cfg.ok());
  // One real block plus the virtual exit.
  EXPECT_EQ(cfg->blocks.size(), 2u);
  EXPECT_EQ(cfg->blocks[0].succs, std::vector<int>{1});
}

TEST(CfgTest, WhileLoopHasBackEdge) {
  auto module = Parse("x = 3\nwhile x > 0:\n    x = x - 1\ny = x\n");
  auto ir = LowerToIR(*module);
  auto cfg = BuildCfg(*ir);
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();
  bool back_edge = false;
  for (const auto& block : cfg->blocks) {
    for (int succ : block.succs) {
      if (succ <= block.id) back_edge = true;
    }
  }
  EXPECT_TRUE(back_edge);
  EXPECT_FALSE(cfg->ToDot().empty());
}

TEST(CfgTest, BranchHasTwoSuccessors) {
  auto module = Parse("if a:\n    x = 1\nelse:\n    x = 2\ny = x\n");
  auto ir = LowerToIR(*module);
  auto cfg = BuildCfg(*ir);
  ASSERT_TRUE(cfg.ok());
  bool found = false;
  for (const auto& block : cfg->blocks) {
    if (block.stmts.empty()) continue;
    const IRStmt& last = ir->stmts[block.stmts.back()];
    if (last.kind == IRStmtKind::kBranch) {
      EXPECT_EQ(block.succs.size(), 2u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ModelTest, InfersKindsAcrossChains) {
  auto module = Parse(
      "import lazyfatpandas.pandas as pd\n"
      "import matplotlib.pyplot as plt\n"
      "df = pd.read_csv(\"d.csv\")\n"
      "fare = df.fare_amount\n"
      "mask = fare > 0\n"
      "small = df[mask]\n"
      "gb = small.groupby([\"day\"])\n"
      "series = gb[\"pax\"]\n"
      "total = series.sum()\n"
      "n = len(df)\n");
  ASSERT_TRUE(module.ok());
  auto ir = LowerToIR(*module);
  ASSERT_TRUE(ir.ok());
  ProgramModel model = BuildProgramModel(*ir);
  EXPECT_TRUE(model.IsPandasModule("pd"));
  EXPECT_TRUE(model.IsExternalModule("plt"));
  EXPECT_EQ(model.KindOf("df"), VarKind::kDataFrame);
  EXPECT_EQ(model.KindOf("fare"), VarKind::kSeries);
  EXPECT_EQ(model.Find("fare")->column, "fare_amount");
  EXPECT_EQ(model.KindOf("mask"), VarKind::kSeries);
  EXPECT_EQ(model.KindOf("small"), VarKind::kDataFrame);
  EXPECT_EQ(model.KindOf("gb"), VarKind::kGroupBy);
  EXPECT_EQ(model.Find("gb")->groupby_keys,
            std::vector<std::string>{"day"});
  EXPECT_EQ(model.KindOf("series"), VarKind::kGroupByCol);
  // A grouped-column aggregate is a keyed frame (day + pax), not a scalar.
  EXPECT_EQ(model.KindOf("total"), VarKind::kDataFrame);
  EXPECT_EQ(model.KindOf("n"), VarKind::kScalar);
}

TEST(ModelTest, RecordsAssignedColumns) {
  auto module = Parse(
      "import pandas as pd\n"
      "df = pd.read_csv(\"d.csv\")\n"
      "df[\"day\"] = df.a\n");
  auto ir = LowerToIR(*module);
  ProgramModel model = BuildProgramModel(*ir);
  EXPECT_EQ(model.assigned_columns.count("day"), 1u);
  EXPECT_EQ(model.assigned_columns.count("a"), 0u);
}

TEST(CodegenTest, RoundTripsStraightLine) {
  std::string source =
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"d.csv\")\n"
      "df[\"day\"] = df.pickup.dt.dayofweek\n"
      "x = df.groupby([\"day\"])[\"pax\"].sum()\n"
      "print(x)\n";
  auto module = Parse(source);
  ASSERT_TRUE(module.ok());
  auto ir = LowerToIR(*module);
  ASSERT_TRUE(ir.ok());
  auto regen = GenerateSource(*ir);
  ASSERT_TRUE(regen.ok()) << regen.status().ToString();
  // Temps are inlined back: no $ left, statements intact.
  EXPECT_EQ(regen->find('$'), std::string::npos) << *regen;
  EXPECT_NE(regen->find("df = pd.read_csv(\"d.csv\")"), std::string::npos);
  EXPECT_NE(regen->find("df[\"day\"] = df.pickup.dt.dayofweek"),
            std::string::npos);
  EXPECT_NE(regen->find("print(x)"), std::string::npos);
  // And the regenerated source parses again.
  EXPECT_TRUE(Parse(*regen).ok());
}

TEST(CodegenTest, RoundTripsControlFlow) {
  std::string source =
      "x = 3\n"
      "total = 0\n"
      "while x > 0:\n"
      "    total = total + x\n"
      "    x = x - 1\n"
      "if total > 5:\n"
      "    y = 1\n"
      "else:\n"
      "    y = 2\n"
      "print(y)\n";
  auto module = Parse(source);
  ASSERT_TRUE(module.ok());
  auto ir = LowerToIR(*module);
  ASSERT_TRUE(ir.ok());
  auto regen = GenerateSource(*ir);
  ASSERT_TRUE(regen.ok()) << regen.status().ToString();
  EXPECT_NE(regen->find("while"), std::string::npos);
  EXPECT_NE(regen->find("if"), std::string::npos);
  EXPECT_NE(regen->find("else:"), std::string::npos);
  // Regenerated source must parse and re-lower.
  auto module2 = Parse(*regen);
  ASSERT_TRUE(module2.ok()) << *regen;
  EXPECT_TRUE(LowerToIR(*module2).ok());
}

TEST(CodegenTest, NestedControlFlow) {
  std::string source =
      "x = 4\n"
      "while x > 0:\n"
      "    if x > 2:\n"
      "        x = x - 2\n"
      "    else:\n"
      "        x = x - 1\n"
      "print(x)\n";
  auto module = Parse(source);
  ASSERT_TRUE(module.ok());
  auto ir = LowerToIR(*module);
  ASSERT_TRUE(ir.ok());
  auto regen = GenerateSource(*ir);
  ASSERT_TRUE(regen.ok()) << regen.status().ToString();
  EXPECT_TRUE(Parse(*regen).ok()) << *regen;
}

// Every recursive construct counts against one nesting budget, so no input
// can drive the parser or a later tree walk into stack exhaustion.
TEST(ParserTest, NestingBudgetRejectsDeepInputsCleanly) {
  auto rep = [](const std::string& s, int n) {
    std::string out;
    for (int i = 0; i < n; ++i) out += s;
    return out;
  };
  const std::vector<std::string> deep = {
      "x = " + rep("(", 5000) + "1" + rep(")", 5000) + "\n",
      "x = " + rep("-", 5000) + "y\n",
      "x = " + rep("not ", 5000) + "y\n",
      "x = 1" + rep(" + 1", 5000) + "\n",
      "x = f" + rep("(1)", 5000) + "\n",
      "x = " + rep("[", 5000) + rep("]", 5000) + "\n",
      "if a:\n  x = 1\n" + rep("elif a:\n  x = 1\n", 5000),
  };
  for (const auto& src : deep) {
    auto module = Parse(src);
    ASSERT_FALSE(module.ok()) << src.substr(0, 40);
    EXPECT_TRUE(module.status().IsInvalid()) << module.status().ToString();
  }
  std::string blocks;
  for (int i = 0; i < 300; ++i) {
    blocks += std::string(2 * static_cast<size_t>(i), ' ') + "if a:\n";
  }
  blocks += std::string(600, ' ') + "x = 1\n";
  EXPECT_TRUE(Parse(blocks).status().IsInvalid());
  // Ordinary nesting stays well inside the budget.
  EXPECT_TRUE(Parse("x = " + rep("(", 50) + "1" + rep(" + 1", 50) +
                    rep(")", 50) + "\n")
                  .ok());
}

}  // namespace
}  // namespace lafp::script

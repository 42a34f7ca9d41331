#include "lex/token.h"

namespace fsdep::lex {

const char* tokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::Eof: return "eof";
    case TokenKind::Identifier: return "identifier";
    case TokenKind::IntLiteral: return "int-literal";
    case TokenKind::CharLiteral: return "char-literal";
    case TokenKind::StringLiteral: return "string-literal";
    case TokenKind::KwVoid: return "void";
    case TokenKind::KwChar: return "char";
    case TokenKind::KwShort: return "short";
    case TokenKind::KwInt: return "int";
    case TokenKind::KwLong: return "long";
    case TokenKind::KwSigned: return "signed";
    case TokenKind::KwUnsigned: return "unsigned";
    case TokenKind::KwStruct: return "struct";
    case TokenKind::KwEnum: return "enum";
    case TokenKind::KwTypedef: return "typedef";
    case TokenKind::KwStatic: return "static";
    case TokenKind::KwConst: return "const";
    case TokenKind::KwExtern: return "extern";
    case TokenKind::KwIf: return "if";
    case TokenKind::KwElse: return "else";
    case TokenKind::KwWhile: return "while";
    case TokenKind::KwFor: return "for";
    case TokenKind::KwDo: return "do";
    case TokenKind::KwSwitch: return "switch";
    case TokenKind::KwCase: return "case";
    case TokenKind::KwDefault: return "default";
    case TokenKind::KwReturn: return "return";
    case TokenKind::KwBreak: return "break";
    case TokenKind::KwContinue: return "continue";
    case TokenKind::KwSizeof: return "sizeof";
    case TokenKind::KwGoto: return "goto";
    case TokenKind::LParen: return "(";
    case TokenKind::RParen: return ")";
    case TokenKind::LBrace: return "{";
    case TokenKind::RBrace: return "}";
    case TokenKind::LBracket: return "[";
    case TokenKind::RBracket: return "]";
    case TokenKind::Semicolon: return ";";
    case TokenKind::Comma: return ",";
    case TokenKind::Colon: return ":";
    case TokenKind::Question: return "?";
    case TokenKind::Arrow: return "->";
    case TokenKind::Dot: return ".";
    case TokenKind::Ellipsis: return "...";
    case TokenKind::Plus: return "+";
    case TokenKind::Minus: return "-";
    case TokenKind::Star: return "*";
    case TokenKind::Slash: return "/";
    case TokenKind::Percent: return "%";
    case TokenKind::Amp: return "&";
    case TokenKind::Pipe: return "|";
    case TokenKind::Caret: return "^";
    case TokenKind::Tilde: return "~";
    case TokenKind::Bang: return "!";
    case TokenKind::Shl: return "<<";
    case TokenKind::Shr: return ">>";
    case TokenKind::Less: return "<";
    case TokenKind::Greater: return ">";
    case TokenKind::LessEqual: return "<=";
    case TokenKind::GreaterEqual: return ">=";
    case TokenKind::EqualEqual: return "==";
    case TokenKind::BangEqual: return "!=";
    case TokenKind::AmpAmp: return "&&";
    case TokenKind::PipePipe: return "||";
    case TokenKind::Assign: return "=";
    case TokenKind::PlusAssign: return "+=";
    case TokenKind::MinusAssign: return "-=";
    case TokenKind::StarAssign: return "*=";
    case TokenKind::SlashAssign: return "/=";
    case TokenKind::PercentAssign: return "%=";
    case TokenKind::AmpAssign: return "&=";
    case TokenKind::PipeAssign: return "|=";
    case TokenKind::CaretAssign: return "^=";
    case TokenKind::ShlAssign: return "<<=";
    case TokenKind::ShrAssign: return ">>=";
    case TokenKind::PlusPlus: return "++";
    case TokenKind::MinusMinus: return "--";
    case TokenKind::Hash: return "#";
  }
  return "unknown";
}

// Keywords are classified by length, then compared: no hashing, and
// most identifiers are rejected by the length switch alone.
TokenKind classifyIdentifier(std::string_view text) {
  switch (text.size()) {
    case 2:
      if (text == "if") return TokenKind::KwIf;
      if (text == "do") return TokenKind::KwDo;
      break;
    case 3:
      if (text == "int") return TokenKind::KwInt;
      if (text == "for") return TokenKind::KwFor;
      break;
    case 4:
      switch (text[0]) {
        case 'v': if (text == "void") return TokenKind::KwVoid; break;
        case 'c':
          if (text == "char") return TokenKind::KwChar;
          if (text == "case") return TokenKind::KwCase;
          break;
        case 'l': if (text == "long") return TokenKind::KwLong; break;
        case 'e':
          if (text == "enum") return TokenKind::KwEnum;
          if (text == "else") return TokenKind::KwElse;
          break;
        case 'g': if (text == "goto") return TokenKind::KwGoto; break;
        default: break;
      }
      break;
    case 5:
      if (text == "short") return TokenKind::KwShort;
      if (text == "const") return TokenKind::KwConst;
      if (text == "while") return TokenKind::KwWhile;
      if (text == "break") return TokenKind::KwBreak;
      break;
    case 6:
      switch (text[0]) {
        case 's':
          if (text == "signed") return TokenKind::KwSigned;
          if (text == "struct") return TokenKind::KwStruct;
          if (text == "static") return TokenKind::KwStatic;
          if (text == "switch") return TokenKind::KwSwitch;
          if (text == "sizeof") return TokenKind::KwSizeof;
          break;
        case 'e': if (text == "extern") return TokenKind::KwExtern; break;
        case 'r': if (text == "return") return TokenKind::KwReturn; break;
        default: break;
      }
      break;
    case 7:
      if (text == "typedef") return TokenKind::KwTypedef;
      if (text == "default") return TokenKind::KwDefault;
      break;
    case 8:
      if (text == "unsigned") return TokenKind::KwUnsigned;
      if (text == "continue") return TokenKind::KwContinue;
      break;
    default:
      break;
  }
  return TokenKind::Identifier;
}

}  // namespace fsdep::lex

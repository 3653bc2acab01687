//! Tokenizer for the Themis SQL subset.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (keywords are matched case-insensitively by the
    /// parser; the original spelling is preserved here).
    Ident(String),
    /// Single-quoted string literal, quotes stripped.
    Str(String),
    /// Numeric literal.
    Num(f64),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `;`
    Semicolon,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Num(n) => write!(f, "{n}"),
            Token::Comma => write!(f, ","),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Star => write!(f, "*"),
            Token::Dot => write!(f, "."),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Semicolon => write!(f, ";"),
        }
    }
}

/// A lexing error with byte position.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Byte offset in the input.
    pub position: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize an input string.
pub fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(LexError {
                        position: i,
                        message: "expected '=' after '!'".into(),
                    });
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::Le);
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(LexError {
                        position: i,
                        message: "unterminated string literal".into(),
                    });
                }
                tokens.push(Token::Str(input[start..j].to_string()));
                i = j + 1;
            }
            _ if c.is_ascii_digit()
                || (c == '-' && i + 1 < bytes.len() && (bytes[i + 1] as char).is_ascii_digit()) =>
            {
                let start = i;
                i += 1; // consume digit or leading minus
                while i < bytes.len() && ((bytes[i] as char).is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                let text = &input[start..i];
                let n: f64 = text.parse().map_err(|_| LexError {
                    position: start,
                    message: format!("invalid number {text:?}"),
                })?;
                tokens.push(Token::Num(n));
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_string()));
            }
            _ => {
                return Err(LexError {
                    position: i,
                    message: format!("unexpected character {c:?}"),
                });
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_a_full_query() {
        let toks = tokenize("SELECT COUNT(*) FROM f WHERE a <= 30 AND b = 'CA';").unwrap();
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert_eq!(toks[1], Token::Ident("COUNT".into()));
        assert_eq!(toks[2], Token::LParen);
        assert_eq!(toks[3], Token::Star);
        assert!(toks.contains(&Token::Le));
        assert!(toks.contains(&Token::Num(30.0)));
        assert!(toks.contains(&Token::Str("CA".into())));
        assert_eq!(*toks.last().unwrap(), Token::Semicolon);
    }

    #[test]
    fn operators_lex_distinctly() {
        let toks = tokenize("< <= > >= = <> !=").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Eq,
                Token::Ne,
                Token::Ne
            ]
        );
    }

    #[test]
    fn qualified_names_and_negative_numbers() {
        let toks = tokenize("t.DE -3.5").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("t".into()),
                Token::Dot,
                Token::Ident("DE".into()),
                Token::Num(-3.5)
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        let err = tokenize("SELECT 'oops").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn bad_character_errors_with_position() {
        let err = tokenize("SELECT #").unwrap_err();
        assert_eq!(err.position, 7);
    }
}

//! Recursive-descent parser for `.jir` modules.
//!
//! The [`Module`] borrows its identifiers from the source text the tokens
//! came from, not from the token vector, so the tokens may be dropped as
//! soon as parsing returns. Declarations, statements and name lists are
//! appended straight to the module's flat vectors.

use crate::ast::{ClassDecl, EntryDecl, List, MethodDecl, Module, Stmt, StmtKind};
use crate::error::{LangError, Location};
use crate::lexer::{Token, TokenKind};

/// Parses a token stream into a [`Module`].
///
/// # Errors
///
/// Returns [`LangError::Parse`] at the first unexpected token.
pub fn parse<'src>(tokens: &[Token<'src>]) -> Result<Module<'src>, LangError> {
    Parser {
        tokens,
        pos: 0,
        out: Module::default(),
        fields: Vec::new(),
        static_fields: Vec::new(),
    }
    .module()
}

struct Parser<'t, 'src> {
    tokens: &'t [Token<'src>],
    pos: usize,
    /// The module being built.
    out: Module<'src>,
    /// Field names of the class being parsed. Its methods' parameters and
    /// arguments go to `out.names` while the class body is read, so its
    /// fields are appended there only at the closing brace.
    fields: Vec<&'src str>,
    /// Static field names of the class being parsed, likewise.
    static_fields: Vec<&'src str>,
}

impl<'src> Parser<'_, 'src> {
    fn peek(&self) -> TokenKind<'src> {
        self.tokens[self.pos].kind
    }

    fn location(&self) -> Location {
        self.tokens[self.pos].location
    }

    fn advance(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn error(&self, expected: &str) -> LangError {
        LangError::Parse {
            location: self.location(),
            message: format!("expected {expected}, found {}", self.peek().describe()),
        }
    }

    fn expect(&mut self, kind: TokenKind<'_>, what: &str) -> Result<(), LangError> {
        if self.peek() == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.error(what))
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'src str, LangError> {
        if let TokenKind::Ident(name) = self.peek() {
            self.advance();
            Ok(name)
        } else {
            Err(self.error(what))
        }
    }

    fn module(mut self) -> Result<Module<'src>, LangError> {
        loop {
            match self.peek() {
                TokenKind::KwClass => {
                    let class = self.class_decl()?;
                    self.out.classes.push(class);
                }
                TokenKind::KwEntry => {
                    let entry = self.entry_decl()?;
                    self.out.entries.push(entry);
                }
                TokenKind::Eof => break,
                _ => return Err(self.error("`class`, `entry`, or end of input")),
            }
        }
        Ok(self.out)
    }

    /// Appends `names` to the module's name lists.
    fn push_names(out: &mut Module<'src>, names: &[&'src str]) -> List {
        let start = out.names.len();
        out.names.extend_from_slice(names);
        List::since(&out.names, start)
    }

    fn class_decl(&mut self) -> Result<ClassDecl<'src>, LangError> {
        let location = self.location();
        self.expect(TokenKind::KwClass, "`class`")?;
        let name = self.ident("class name")?;
        let parent = if self.peek() == TokenKind::Colon {
            self.advance();
            Some(self.ident("superclass name")?)
        } else {
            None
        };
        self.expect(TokenKind::LBrace, "`{`")?;
        self.fields.clear();
        self.static_fields.clear();
        let methods = self.out.methods.len();
        loop {
            match self.peek() {
                TokenKind::KwField => {
                    self.advance();
                    let field = self.ident("field name")?;
                    self.fields.push(field);
                    self.expect(TokenKind::Semi, "`;`")?;
                }
                TokenKind::KwMethod => {
                    self.advance();
                    self.method_decl(false)?;
                }
                TokenKind::KwStatic => {
                    self.advance();
                    // `static field name;` declares a static field;
                    // `static name(...) {...}` declares a static method.
                    if self.peek() == TokenKind::KwField {
                        self.advance();
                        let field = self.ident("field name")?;
                        self.static_fields.push(field);
                        self.expect(TokenKind::Semi, "`;`")?;
                    } else {
                        self.method_decl(true)?;
                    }
                }
                TokenKind::RBrace => {
                    self.advance();
                    break;
                }
                _ => return Err(self.error("`field`, `method`, `static`, or `}`")),
            }
        }
        Ok(ClassDecl {
            name,
            parent,
            fields: Self::push_names(&mut self.out, &self.fields),
            static_fields: Self::push_names(&mut self.out, &self.static_fields),
            methods: List::since(&self.out.methods, methods),
            location,
        })
    }

    /// Parses a method declaration and appends it to the module.
    fn method_decl(&mut self, is_static: bool) -> Result<(), LangError> {
        let location = self.location();
        let name = self.ident("method name")?;
        self.expect(TokenKind::LParen, "`(`")?;
        let params = self.out.names.len();
        if self.peek() != TokenKind::RParen {
            loop {
                let param = self.ident("parameter name")?;
                self.out.names.push(param);
                if self.peek() == TokenKind::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        let params = List::since(&self.out.names, params);
        self.expect(TokenKind::RParen, "`)`")?;
        // Optional `catch (T e, U f)` clause list.
        let catches = self.out.catches.len();
        if self.peek() == TokenKind::KwCatch {
            self.advance();
            self.expect(TokenKind::LParen, "`(`")?;
            loop {
                let ty = self.ident("catch type")?;
                let binder = self.ident("catch binder")?;
                self.out.catches.push((ty, binder));
                if self.peek() == TokenKind::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
            self.expect(TokenKind::RParen, "`)`")?;
        }
        let catches = List::since(&self.out.catches, catches);
        self.expect(TokenKind::LBrace, "`{`")?;
        let body = self.out.stmts.len();
        while self.peek() != TokenKind::RBrace {
            let stmt = self.stmt()?;
            self.out.stmts.push(stmt);
        }
        let body = List::since(&self.out.stmts, body);
        self.expect(TokenKind::RBrace, "`}`")?;
        self.out.methods.push(MethodDecl {
            name,
            params,
            is_static,
            catches,
            body,
            location,
        });
        Ok(())
    }

    fn entry_decl(&mut self) -> Result<EntryDecl<'src>, LangError> {
        let location = self.location();
        self.expect(TokenKind::KwEntry, "`entry`")?;
        let class = self.ident("class name")?;
        self.expect(TokenKind::Dot, "`.`")?;
        let method = self.ident("method name")?;
        self.expect(TokenKind::Semi, "`;`")?;
        Ok(EntryDecl {
            class,
            method,
            location,
        })
    }

    fn stmt(&mut self) -> Result<Stmt<'src>, LangError> {
        let location = self.location();
        // return x;
        if self.peek() == TokenKind::KwReturn {
            self.advance();
            let var = self.ident("variable")?;
            self.expect(TokenKind::Semi, "`;`")?;
            return Ok(Stmt {
                kind: StmtKind::Return { var },
                location,
            });
        }

        // throw x;
        if self.peek() == TokenKind::KwThrow {
            self.advance();
            let var = self.ident("variable")?;
            self.expect(TokenKind::Semi, "`;`")?;
            return Ok(Stmt {
                kind: StmtKind::Throw { var },
                location,
            });
        }

        let first = self.ident("statement")?;
        match self.peek() {
            // x = ...
            TokenKind::Eq => {
                self.advance();
                let kind = self.assignment_rhs(first)?;
                self.expect(TokenKind::Semi, "`;`")?;
                Ok(Stmt { kind, location })
            }
            // x.f = y;  |  recv.m(args);
            TokenKind::Dot => {
                self.advance();
                let member = self.ident("field or method name")?;
                match self.peek() {
                    TokenKind::LParen => {
                        let args = self.call_args()?;
                        self.expect(TokenKind::Semi, "`;`")?;
                        Ok(Stmt {
                            kind: StmtKind::Call {
                                to: None,
                                recv: first,
                                method: member,
                                args,
                            },
                            location,
                        })
                    }
                    TokenKind::Eq => {
                        self.advance();
                        let from = self.ident("variable")?;
                        self.expect(TokenKind::Semi, "`;`")?;
                        Ok(Stmt {
                            kind: StmtKind::Store {
                                base: first,
                                field: member,
                                from,
                            },
                            location,
                        })
                    }
                    _ => Err(self.error("`(` or `=` after member access")),
                }
            }
            _ => Err(self.error("`=` or `.` in statement")),
        }
    }

    /// Parses the right-hand side of `to = ...`.
    fn assignment_rhs(&mut self, to: &'src str) -> Result<StmtKind<'src>, LangError> {
        match self.peek() {
            // to = new C
            TokenKind::KwNew => {
                self.advance();
                let class = self.ident("class name")?;
                Ok(StmtKind::Alloc { to, class })
            }
            // to = (C) y
            TokenKind::LParen => {
                self.advance();
                let class = self.ident("cast target class")?;
                self.expect(TokenKind::RParen, "`)`")?;
                let from = self.ident("variable")?;
                Ok(StmtKind::Cast { to, class, from })
            }
            TokenKind::Ident(_) => {
                let source = self.ident("variable")?;
                match self.peek() {
                    // to = y.f  |  to = recv.m(args)
                    TokenKind::Dot => {
                        self.advance();
                        let member = self.ident("field or method name")?;
                        if self.peek() == TokenKind::LParen {
                            let args = self.call_args()?;
                            Ok(StmtKind::Call {
                                to: Some(to),
                                recv: source,
                                method: member,
                                args,
                            })
                        } else {
                            Ok(StmtKind::Load {
                                to,
                                base: source,
                                field: member,
                            })
                        }
                    }
                    // to = y
                    _ => Ok(StmtKind::Move { to, from: source }),
                }
            }
            _ => Err(self.error("`new`, `(`, or a variable")),
        }
    }

    fn call_args(&mut self) -> Result<List, LangError> {
        self.expect(TokenKind::LParen, "`(`")?;
        let args = self.out.names.len();
        if self.peek() != TokenKind::RParen {
            loop {
                let arg = self.ident("argument variable")?;
                self.out.names.push(arg);
                if self.peek() == TokenKind::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen, "`)`")?;
        Ok(List::since(&self.out.names, args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Result<Module<'_>, LangError> {
        parse(&lex(src).unwrap())
    }

    #[test]
    fn parses_full_module() {
        let m = parse_src(
            r#"
            class Object {}
            class Box : Object {
                field value;
                method set(v) { this.value = v; }
                method get() { r = this.value; return r; }
            }
            class Main : Object {
                static main() {
                    b = new Box;
                    p = new Object;
                    b.set(p);
                    r = b.get();
                    o = (Object) r;
                    q = o;
                    Main.helper();
                }
                static helper() {}
            }
            entry Main.main;
        "#,
        )
        .unwrap();
        assert_eq!(m.classes.len(), 3);
        assert_eq!(m.entries.len(), 1);
        let main = &m.methods_of(&m.classes[2])[0];
        assert!(main.is_static);
        let body = m.body(main);
        assert_eq!(body.len(), 7);
        assert!(matches!(body[0].kind, StmtKind::Alloc { .. }));
        assert!(matches!(body[2].kind, StmtKind::Call { to: None, .. }));
        assert!(matches!(body[3].kind, StmtKind::Call { to: Some(_), .. }));
        assert!(matches!(body[4].kind, StmtKind::Cast { .. }));
        assert!(matches!(body[5].kind, StmtKind::Move { .. }));
        assert!(matches!(body[6].kind, StmtKind::Call { .. }));
        // Name lists land in the module's flat vector, in source order.
        let box_class = &m.classes[1];
        assert_eq!(m.names(box_class.fields), ["value"]);
        assert_eq!(m.names(m.methods_of(box_class)[0].params), ["v"]);
        let StmtKind::Call { args, .. } = body[2].kind else {
            unreachable!()
        };
        assert_eq!(m.names(args), ["p"]);
    }

    #[test]
    fn parses_field_access_statements() {
        let m = parse_src(
            r#"
            class C {
                field f;
                method m(x) {
                    this.f = x;
                    y = this.f;
                    return y;
                }
            }
        "#,
        )
        .unwrap();
        let body = m.body(&m.methods_of(&m.classes[0])[0]);
        assert!(matches!(body[0].kind, StmtKind::Store { .. }));
        assert!(matches!(body[1].kind, StmtKind::Load { .. }));
        assert!(matches!(body[2].kind, StmtKind::Return { .. }));
    }

    #[test]
    fn error_reports_location() {
        let err = parse_src("class C {\n  field ; \n}").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("2:"), "location missing in: {msg}");
        assert!(msg.contains("field name"));
    }

    #[test]
    fn rejects_garbage_at_top_level() {
        assert!(parse_src("banana").is_err());
    }

    #[test]
    fn empty_module_is_fine() {
        let m = parse_src("").unwrap();
        assert!(m.classes.is_empty());
    }
}

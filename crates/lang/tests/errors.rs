//! Front-end diagnostics, pinned: each malformed input must fail with
//! exactly this `LangError` message, `line:column` included. The table
//! covers the lexer, the parser, lowering and IR validation, so a change
//! to how the front end stores names cannot move a location or reword an
//! error unnoticed.

use pta_lang::parse_program;

/// A small valid prelude most lowering cases build on.
const OBJ: &str = "class Object {}\n";

fn cases() -> Vec<(&'static str, String, &'static str)> {
    let with_obj = |body: &str| format!("{OBJ}{body}");
    vec![
        (
            "bad character",
            "class A {\n  % }".to_owned(),
            "lex error at 2:3: unexpected character '%'",
        ),
        (
            "bad character after a tab and a comment",
            "// lead\n\tx = y # z".to_owned(),
            "lex error at 2:8: unexpected character '#'",
        ),
        (
            "unterminated block comment",
            "class A {}\n  /* never closed".to_owned(),
            "lex error at 2:3: unterminated block comment",
        ),
        (
            "top-level garbage",
            "class A {}\nbanana".to_owned(),
            "parse error at 2:1: expected `class`, `entry`, or end of input, found identifier `banana`",
        ),
        (
            "missing class name",
            "class {".to_owned(),
            "parse error at 1:7: expected class name, found `{`",
        ),
        (
            "unclosed class body",
            "class A {\n  field f;\n".to_owned(),
            "parse error at 3:1: expected `field`, `method`, `static`, or `}`, found end of input",
        ),
        (
            "missing semicolon",
            with_obj("class M : Object {\n  static main() { x = new Object }\n}"),
            "parse error at 3:34: expected `;`, found `}`",
        ),
        (
            "missing parameter list",
            with_obj("class M : Object { method m { } }"),
            "parse error at 2:29: expected `(`, found `{`",
        ),
        (
            "bare expression statement",
            with_obj("class M : Object { method m() { x; } }"),
            "parse error at 2:34: expected `=` or `.` in statement, found `;`",
        ),
        (
            "member access with no call or store",
            with_obj("class M : Object { method m() { this.f; } }"),
            "parse error at 2:39: expected `(` or `=` after member access, found `;`",
        ),
        (
            "keyword where a variable belongs",
            with_obj("class M : Object { method m() { x = return; } }"),
            "parse error at 2:37: expected `new`, `(`, or a variable, found `return`",
        ),
        (
            "unknown class in new",
            with_obj("class M : Object { static main() { x = new Ghost; } }\nentry M.main;"),
            "lowering error: in M.main: unknown class `Ghost` in `new`",
        ),
        (
            "unknown class in cast",
            with_obj(
                "class M : Object { static main() { x = new Object; y = (Ghost) x; } }\n\
                 entry M.main;",
            ),
            "lowering error: in M.main: unknown class `Ghost` in cast",
        ),
        (
            "unknown field",
            with_obj(
                "class M : Object { static main() { x = new Object; x.ghost = x; } }\n\
                 entry M.main;",
            ),
            "lowering error: in M.main: unknown field `ghost`",
        ),
        (
            "unknown static method",
            with_obj("class M : Object { static main() { M.ghost(); } }\nentry M.main;"),
            "lowering error: in M.main: unknown static method `M.ghost`",
        ),
        (
            "unknown receiver",
            with_obj("class M : Object { static main() { Ghost.m(); } }\nentry M.main;"),
            "lowering error: in M.main: `Ghost` is neither a local variable nor a class",
        ),
        (
            "use before assignment",
            with_obj("class M : Object { static main() { x = y; } }\nentry M.main;"),
            "lowering error: in M.main: variable `y` is used but never assigned",
        ),
        (
            "wrong arity",
            with_obj(
                "class C : Object { static m(a, b) {} }\n\
                 class M : Object { static main() { x = new Object; C.m(x); } }\n\
                 entry M.main;",
            ),
            "lowering error: in M.main: `C.m` expects 2 arguments, got 1",
        ),
        (
            "instance method called statically",
            with_obj(
                "class C : Object { method m() {} }\n\
                 class M : Object { static main() { C.m(); } }\n\
                 entry M.main;",
            ),
            "lowering error: in M.main: `C.m` is an instance method; call it on a variable",
        ),
        (
            "unknown catch type",
            with_obj("class M : Object { static main() catch (Ghost e) {} }\nentry M.main;"),
            "lowering error: in M.main: unknown catch type `Ghost`",
        ),
        (
            "catch binder shadows a local",
            with_obj(
                "class M : Object { static main() catch (Object x) { x = new Object; } }\n\
                 entry M.main;",
            ),
            "lowering error: in M.main: catch binder `x` shadows another variable",
        ),
        (
            "duplicate class",
            "class A {}\nclass A {}".to_owned(),
            "lowering error: class `A` declared twice",
        ),
        (
            "duplicate method",
            with_obj("class C : Object { static m() {} static m() {} }"),
            "lowering error: method `C.m` declared twice",
        ),
        (
            "duplicate field across classes",
            with_obj("class A : Object { field v; }\nclass B : Object { static field v; }"),
            "lowering error: field `v` declared in more than one class; field names must be \
             unique program-wide (prefix with the class name)",
        ),
        (
            "unknown superclass",
            "class A : Nowhere {}".to_owned(),
            "lowering error: unresolved superclass or inheritance cycle involving: A",
        ),
        (
            "inheritance cycle",
            with_obj("class A : B {}\nclass B : C {}\nclass C : A {}"),
            "lowering error: unresolved superclass or inheritance cycle involving: A, B, C",
        ),
        (
            "entry on an unknown class",
            with_obj("entry Ghost.main;"),
            "lowering error: entry names unknown class `Ghost`",
        ),
        (
            "entry on an unknown method",
            with_obj("entry Object.nothing;"),
            "lowering error: entry names unknown method `Object.nothing`",
        ),
        (
            "entry on an instance method",
            with_obj("class M : Object { method main() {} }\nentry M.main;"),
            "lowering error: entry `M.main` must be static",
        ),
        (
            "no entry point",
            with_obj("class M : Object { static main() {} }"),
            "invalid program: program has no entry point",
        ),
    ]
}

#[test]
fn every_malformed_input_fails_with_its_pinned_message() {
    let mut mismatches = Vec::new();
    for (what, source, want) in cases() {
        match parse_program(&source) {
            Ok(_) => mismatches.push(format!("{what}: parsed, expected `{want}`")),
            Err(e) if e.to_string() != want => {
                mismatches.push(format!("{what}:\n    got  `{e}`\n    want `{want}`"));
            }
            Err(_) => {}
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

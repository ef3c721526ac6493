//! The elaboration \[\[·\]\] from Typed Ail into Core (§5.3–§5.8 of the
//! paper).
//!
//! The elaboration is a compositional translation that makes the dynamic
//! intricacies of C explicit in Core: evaluation order (via `unseq` and
//! weak/strong sequencing), integer promotions and the usual arithmetic
//! conversions (computed at elaboration time and made explicit with
//! `conv_int` builtins), arithmetic undefined behaviour (via explicit `undef(...)` tests, as in the
//! paper's Fig. 3 left-shift excerpt), object lifetimes (explicit
//! `create`/`kill` actions), and control flow (via `save`/`run`/`exit`
//! labels).
//!
//! # Example
//!
//! ```
//! use cerberus_ail::desugar::desugar_translation_unit_all;
//! use cerberus_ast::env::ImplEnv;
//! use cerberus_elab::elaborate_program;
//! use cerberus_parser::parse_translation_unit;
//!
//! let env = ImplEnv::lp64();
//! let tu = parse_translation_unit("int main(void) { return 1 << 3; }").unwrap();
//! let ail = desugar_translation_unit_all(&tu, &env).unwrap();
//! let core = elaborate_program(&ail, &env);
//! assert!(core.proc("main").is_some());
//! ```

pub mod expr;
pub mod stmt;

use cerberus_ail::ail::AilProgram;
use cerberus_ast::env::ImplEnv;
use cerberus_ast::ident::Ident;
use cerberus_core::program::{CoreGlobal, CoreProc, CoreProgram};

use crate::stmt::Elaborator;

/// Elaborate a whole desugared program into Core.
pub fn elaborate_program(program: &AilProgram, env: &ImplEnv) -> CoreProgram {
    let mut elab = Elaborator::new(env.clone(), program.tags.clone());
    let mut core = CoreProgram {
        tags: program.tags.clone(),
        ..CoreProgram::default()
    };

    for global in &program.globals {
        let init = elab.elaborate_global_init(global);
        core.globals.push(CoreGlobal {
            name: global.name.clone(),
            ty: global.ty.clone(),
            init,
        });
    }

    for f in &program.functions {
        let body = elab.elaborate_function_body(f);
        core.procs.insert(
            f.name.as_str().to_owned(),
            CoreProc {
                name: f.name.clone(),
                params: f.params.clone(),
                return_ty: f.return_ty.clone(),
                body,
            },
        );
    }

    core.string_literals = elab.take_string_literals();
    if program.has_main() {
        core.main = Some(Ident::new("main"));
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerberus_ail::desugar::desugar_translation_unit_all;
    use cerberus_core::pretty::expr_to_string;
    use cerberus_parser::parse_translation_unit;

    fn elaborate(src: &str) -> CoreProgram {
        let env = ImplEnv::lp64();
        let tu = parse_translation_unit(src).unwrap();
        let ail = desugar_translation_unit_all(&tu, &env).unwrap();
        elaborate_program(&ail, &env)
    }

    #[test]
    fn minimal_program_elaborates() {
        let core = elaborate("int main(void) { return 0; }");
        assert!(core.main.is_some());
        assert_eq!(core.proc_count(), 1);
    }

    #[test]
    fn globals_get_initialisation_expressions() {
        let core = elaborate("int y = 2, x = 1; int main(void) { return x + y; }");
        assert_eq!(core.globals.len(), 2);
        let rendered = expr_to_string(&core.globals[0].init);
        assert!(rendered.contains("store"));
    }

    #[test]
    fn shift_elaboration_contains_the_fig3_ub_tests() {
        // The Fig. 3 excerpt: the elaboration of << introduces explicit
        // undef() tests for negative shifts, too-large shifts and signed
        // overflow.
        let core = elaborate("int shift(int a, int b) { return a << b; }");
        let body = expr_to_string(&core.proc("shift").unwrap().body);
        assert!(body.contains("undef(Negative_shift)"), "{body}");
        assert!(body.contains("undef(Shift_too_large)"), "{body}");
        assert!(body.contains("undef(Exceptional_condition)"), "{body}");
        assert!(body.contains("unseq("), "{body}");
        assert!(body.contains("let weak"), "{body}");
    }

    #[test]
    fn division_elaboration_checks_for_zero() {
        let core = elaborate("int f(int a, int b) { return a / b; }");
        let body = expr_to_string(&core.proc("f").unwrap().body);
        assert!(body.contains("undef(Division_by_zero)"), "{body}");
    }

    #[test]
    fn string_literals_become_objects() {
        let core =
            elaborate("#include <stdio.h>\nint main(void) { printf(\"hello\\n\"); return 0; }");
        assert_eq!(core.string_literals.len(), 1);
        assert_eq!(core.string_literals[0].1, b"hello\n".to_vec());
    }

    #[test]
    fn loops_use_save_and_run() {
        let core = elaborate("int main(void) { int i; for (i = 0; i < 4; i++) {} return i; }");
        let body = expr_to_string(&core.proc("main").unwrap().body);
        assert!(body.contains("save "), "{body}");
        assert!(body.contains("run "), "{body}");
        assert!(body.contains("exit "), "{body}");
    }

    #[test]
    fn local_declarations_create_and_kill_objects() {
        let core = elaborate("int main(void) { int x = 3; return x; }");
        let body = expr_to_string(&core.proc("main").unwrap().body);
        assert!(body.contains("create("), "{body}");
        assert!(body.contains("kill("), "{body}");
        assert!(body.contains("store("), "{body}");
        assert!(body.contains("load("), "{body}");
    }

    #[test]
    fn postfix_increment_has_a_negative_store() {
        let core = elaborate("int main(void) { int x = 0; x++; return x; }");
        let body = expr_to_string(&core.proc("main").unwrap().body);
        assert!(body.contains("neg(store("), "{body}");
    }

    #[test]
    fn logical_and_is_short_circuiting() {
        let core = elaborate("int f(int a, int b) { return a && b; }");
        let body = expr_to_string(&core.proc("f").unwrap().body);
        // The second operand is under a conditional, not an unseq.
        assert!(body.contains("if"), "{body}");
    }
}

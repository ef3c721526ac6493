//! Provenance explorer: run the paper's §2.1 DR260 example (and two related
//! idioms) under several memory object models and show how the verdict
//! changes — concrete, candidate de facto, GCC-like, strict ISO, and the
//! CompCert-style block model.
//!
//! Each program is elaborated **once** and the resulting artifact is executed
//! under every model by a `DifferentialRunner` — the Session-API shape of
//! the paper's §3 comparison.
//!
//! Run with: `cargo run --example provenance_explorer`

use cerberus::pipeline::Session;
use cerberus::DifferentialRunner;
use cerberus_memory::config::ModelConfig;

const DR260: &str = r#"
#include <stdio.h>
#include <string.h>
int x = 1, y = 2;
int main() {
  int *p = &x + 1;
  int *q = &y;
  if (memcmp(&p, &q, sizeof(p)) == 0) {
    *p = 11;
    printf("x=%d y=%d *p=%d *q=%d\n", x, y, *p, *q);
  }
  return 0;
}
"#;

const ROUND_TRIP: &str = r#"
int main(void) {
  int x = 7;
  unsigned long a = (unsigned long)&x;
  int *p = (int*)a;
  return *p;
}
"#;

const RELATIONAL: &str = r#"
int a, b;
int main(void) { return &a < &b || &a > &b; }
"#;

fn show(title: &str, source: &str) {
    println!("== {title} ==");
    // One front-end pass; six rows off the shared artifact (the last row
    // places each allocation in its own region; it runs apart only where
    // the program observes an address).
    let program = Session::default()
        .elaborate(source)
        .expect("well-formed program");
    let matrix = DifferentialRunner::new(vec![
        ModelConfig::concrete(),
        ModelConfig::de_facto(),
        ModelConfig::gcc_like(),
        ModelConfig::strict_iso(),
        ModelConfig::block(),
        ModelConfig::symbolic(),
    ])
    .run(&program);
    for row in matrix.rows() {
        let first = &row.outcome.outcomes[0];
        let stdout = if first.stdout.is_empty() {
            String::new()
        } else {
            format!("   [prints {:?}]", first.stdout)
        };
        println!("  {:<12} {}{}", row.model, first.result, stdout);
    }
    let classes = matrix.agreement_classes();
    println!("  -> {} agreement class(es):", classes.len());
    for class in classes {
        println!("     {{{}}}", class.models.join(", "));
    }
    println!();
}

fn main() {
    show(
        "DR260 provenance example (provenance_basic_global_xy.c)",
        DR260,
    );
    show("pointer/integer round trip (Q5)", ROUND_TRIP);
    show(
        "relational comparison of pointers to different objects (Q25)",
        RELATIONAL,
    );
}
